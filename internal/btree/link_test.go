package btree

import (
	"math/rand"
	"testing"

	"logicallog/internal/obs/obstest"
)

func TestLeafPageNextRoundTrip(t *testing.T) {
	leaf := &page{
		kind: leafPage,
		next: "bt/t/p00000007",
		keys: [][]byte{[]byte("a")},
		vals: [][]byte{[]byte("1")},
	}
	got, err := decodePage(encodePage(leaf))
	if err != nil {
		t.Fatal(err)
	}
	if got.next != leaf.next {
		t.Errorf("next = %q, want %q", got.next, leaf.next)
	}
	// Empty next (chain end) survives too.
	leaf.next = ""
	got, err = decodePage(encodePage(leaf))
	if err != nil {
		t.Fatal(err)
	}
	if got.next != "" {
		t.Errorf("chain-end next = %q", got.next)
	}
}

// TestRangeAcrossLeafSplit is the leaf-link regression test: a range scan
// spanning a freshly split leaf must see every key exactly once, in order —
// the split transformation has to thread the new right leaf into the chain.
func TestRangeAcrossLeafSplit(t *testing.T) {
	tree, _ := newTree(t, 4)
	// Fill one leaf to capacity, then overflow it: the next insert splits
	// the root leaf, and later inserts split children.
	for i := 0; i < 32; i++ {
		if err := tree.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		// After every insert the chain must cover all keys so far.
		var got []string
		if err := tree.Range(nil, nil, func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != i+1 {
			t.Fatalf("after insert %d: range saw %d keys, want %d (%v)", i, len(got), i+1, got)
		}
		for j := 1; j < len(got); j++ {
			if got[j-1] >= got[j] {
				t.Fatalf("after insert %d: range out of order: %q >= %q", i, got[j-1], got[j])
			}
		}
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	// A bounded range crossing several leaf boundaries.
	var got []string
	if err := tree.Range(key(5), key(20), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 15 || got[0] != string(key(5)) || got[len(got)-1] != string(key(19)) {
		t.Errorf("Range(5,20) = %v", got)
	}
}

func TestRangeBounds(t *testing.T) {
	tree, _ := newTree(t, 4)
	for i := 0; i < 40; i++ {
		if err := tree.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	// hi is exclusive.
	if err := tree.Range(key(10), key(10), func(k, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("empty range visited %d", count)
	}
	// lo between keys seeks forward; early stop works mid-chain.
	var got []string
	if err := tree.Range([]byte("key000010x"), nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 3
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != string(key(11)) {
		t.Errorf("seek range = %v", got)
	}
}

// TestDeleteMergesAndRebalances drains a populated tree and checks the
// structural invariants (including the leaf chain) after every delete; the
// tree must shrink back down via merges and root collapses.
func TestDeleteMergesAndRebalances(t *testing.T) {
	tree, _ := newTree(t, 4)
	const n = 200
	for i := 0; i < n; i++ {
		if err := tree.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if grown.Height < 3 {
		t.Fatalf("tree too shallow to exercise merges: height %d", grown.Height)
	}
	perm := rand.New(rand.NewSource(7)).Perm(n)
	alive := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		alive[i] = true
	}
	for step, i := range perm {
		found, err := tree.Delete(key(i))
		if err != nil || !found {
			t.Fatalf("Delete(%d) = %v, %v", i, found, err)
		}
		delete(alive, i)
		if err := tree.Check(); err != nil {
			t.Fatalf("after delete %d (#%d): %v", i, step, err)
		}
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 0 {
		t.Errorf("drained tree has %d keys", st.Keys)
	}
	if st.Height != 1 {
		t.Errorf("drained tree height = %d, want 1 (root collapses)", st.Height)
	}
	if st.Pages != 1 {
		t.Errorf("drained tree has %d pages, want 1 (merges free pages)", st.Pages)
	}
}

// TestDeleteKeepsSurvivors interleaves deletes with membership checks so
// merges and borrows are verified not to drop or duplicate surviving keys.
func TestDeleteKeepsSurvivors(t *testing.T) {
	tree, _ := newTree(t, 3)
	const n = 120
	for i := 0; i < n; i++ {
		if err := tree.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	alive := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		alive[string(key(i))] = true
	}
	for _, i := range rng.Perm(n)[:n*3/4] {
		if _, err := tree.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		delete(alive, string(key(i)))
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	if err := tree.Scan(func(k, v []byte) bool {
		if seen[string(k)] {
			t.Errorf("duplicate key %q in scan", k)
		}
		seen[string(k)] = true
		if !alive[string(k)] {
			t.Errorf("deleted key %q still visible", k)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(alive) {
		t.Errorf("scan saw %d keys, want %d", len(seen), len(alive))
	}
}

// TestLogicalMergeLogsNoPageContents mirrors the split test: merging two
// big leaves must log only page ids, never the moved contents.
func TestLogicalMergeLogsNoPageContents(t *testing.T) {
	tree, eng := newTree(t, 4)
	bigVal := make([]byte, 2048)
	const n = 12
	for i := 0; i < n; i++ {
		if err := tree.Insert(key(i), bigVal); err != nil {
			t.Fatal(err)
		}
	}
	eng.ResetStats()
	for i := 0; i < n; i++ {
		if _, err := tree.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Metrics()
	// Deletes log only keys; merges/rebalances/collapses log only ids.  The
	// ~24 KiB of leaf contents shuffled between pages must stay off the log.
	if obstest.Counter(t, st, "wal.value_bytes") > 2048 {
		t.Errorf("drain logged %d value bytes; logical merges must not log page contents", obstest.Counter(t, st, "wal.value_bytes"))
	}
	if obstest.Counter(t, st, "wal.op_payload_bytes.L") > 2048 {
		t.Errorf("merge/rebalance payload = %d bytes", obstest.Counter(t, st, "wal.op_payload_bytes.L"))
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTreeDeleteCrashRecovery drives inserts and merging deletes with
// periodic installs, crashes, and verifies the recovered tree — structure,
// leaf chain, and exact membership.
func TestTreeDeleteCrashRecovery(t *testing.T) {
	tree, eng := newTree(t, 3)
	const n = 90
	for i := 0; i < n; i++ {
		if err := tree.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	alive := make(map[string]string, n)
	for i := 0; i < n; i++ {
		alive[string(key(i))] = string(val(i))
	}
	rng := rand.New(rand.NewSource(3))
	for step, i := range rng.Perm(n)[:n/2] {
		if _, err := tree.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		delete(alive, string(key(i)))
		if step%7 == 0 {
			if err := eng.InstallOne(); err != nil {
				t.Fatal(err)
			}
		}
		if step%13 == 0 {
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	tree2, err := Open(eng, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tree2.Check(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	if err := tree2.Scan(func(k, v []byte) bool {
		want, ok := alive[string(k)]
		if !ok {
			t.Errorf("recovered tree resurrected %q", k)
		} else if want != string(v) {
			t.Errorf("recovered %q = %q, want %q", k, v, want)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(alive) {
		t.Errorf("recovered scan saw %d keys, want %d", seen, len(alive))
	}
}

// TestPutAlias keeps the Domain-interface spelling wired to Insert.
func TestPutAlias(t *testing.T) {
	tree, _ := newTree(t, 4)
	if err := tree.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tree.Get([]byte("k"))
	if err != nil || !found || string(v) != "v" {
		t.Errorf("Put/Get = %q, %v, %v", v, found, err)
	}
}
