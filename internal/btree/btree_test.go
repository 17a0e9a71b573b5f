package btree

import (
	"fmt"
	"math/rand"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/obs/obstest"
	"logicallog/internal/op"
)

func newTree(t *testing.T, order int) (*Tree, *core.Engine) {
	t.Helper()
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	Register(eng.Registry())
	tree, err := New(eng, "t", order)
	if err != nil {
		t.Fatal(err)
	}
	return tree, eng
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val%06d", i)) }

func TestPageEncodeDecodeRoundTrip(t *testing.T) {
	leaf := &page{kind: leafPage, keys: [][]byte{[]byte("a"), []byte("b")}, vals: [][]byte{[]byte("1"), []byte("2")}}
	got, err := decodePage(encodePage(leaf))
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != leafPage || len(got.keys) != 2 || string(got.vals[1]) != "2" {
		t.Errorf("leaf round trip: %+v", got)
	}
	internal := &page{kind: internalPage, keys: [][]byte{[]byte("m")}, children: []op.ObjectID{"p1", "p2"}}
	got, err = decodePage(encodePage(internal))
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != internalPage || len(got.children) != 2 || got.children[1] != "p2" {
		t.Errorf("internal round trip: %+v", got)
	}
	if _, err := decodePage([]byte("junk")); err == nil {
		t.Error("junk page decoded")
	}
	if _, err := decodePage(op.EncodeParams([]byte{9})); err == nil {
		t.Error("unknown page kind decoded")
	}
}

func TestNewRejectsTinyOrder(t *testing.T) {
	eng, _ := core.New(core.DefaultOptions())
	Register(eng.Registry())
	if _, err := New(eng, "x", 1); err == nil {
		t.Error("order 1 accepted")
	}
}

func TestInsertGetSmall(t *testing.T) {
	tree, _ := newTree(t, 4)
	if err := tree.Insert([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tree.Get([]byte("a"))
	if err != nil || !found || string(v) != "1" {
		t.Errorf("Get(a) = %q, %v, %v", v, found, err)
	}
	if _, found, _ := tree.Get([]byte("zz")); found {
		t.Error("found a missing key")
	}
	// Replacement.
	if err := tree.Insert([]byte("a"), []byte("1'")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = tree.Get([]byte("a"))
	if string(v) != "1'" {
		t.Errorf("replaced value = %q", v)
	}
	if err := tree.Insert(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
}

func TestInsertManySplitsAndCheck(t *testing.T) {
	tree, _ := newTree(t, 4)
	const n = 500
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for _, i := range perm {
		if err := tree.Insert(key(i), val(i)); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != n {
		t.Errorf("Keys = %d, want %d", st.Keys, n)
	}
	if st.Height < 3 {
		t.Errorf("Height = %d; 500 keys at order 4 must be deep", st.Height)
	}
	for i := 0; i < n; i++ {
		v, found, err := tree.Get(key(i))
		if err != nil || !found || string(v) != string(val(i)) {
			t.Fatalf("Get(%d) = %q, %v, %v", i, v, found, err)
		}
	}
	// Scan yields all keys in order.
	var seen int
	var prev []byte
	err = tree.Scan(func(k, v []byte) bool {
		if prev != nil && string(k) <= string(prev) {
			t.Errorf("scan out of order: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		seen++
		return true
	})
	if err != nil || seen != n {
		t.Errorf("Scan visited %d, %v", seen, err)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tree, _ := newTree(t, 4)
	for i := 0; i < 50; i++ {
		tree.Insert(key(i), val(i))
	}
	count := 0
	tree.Scan(func(k, v []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestDelete(t *testing.T) {
	tree, _ := newTree(t, 4)
	for i := 0; i < 100; i++ {
		tree.Insert(key(i), val(i))
	}
	found, err := tree.Delete(key(42))
	if err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	if _, found, _ := tree.Get(key(42)); found {
		t.Error("deleted key still present")
	}
	if found, _ := tree.Delete(key(42)); found {
		t.Error("double delete reported found")
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	st, _ := tree.Stats()
	if st.Keys != 99 {
		t.Errorf("Keys = %d", st.Keys)
	}
}

func TestLogicalSplitLogsNoPageContents(t *testing.T) {
	tree, eng := newTree(t, 8)
	// Fill with large values so page contents dwarf ids.
	bigVal := make([]byte, 2048)
	for i := 0; i < 8; i++ {
		if err := tree.Insert(key(i), bigVal); err != nil {
			t.Fatal(err)
		}
	}
	eng.ResetStats()
	// This insert forces a root split (order 8 reached).
	if err := tree.Insert(key(8), bigVal); err != nil {
		t.Fatal(err)
	}
	st := eng.Metrics()
	// The split logged ids only; values logged are the meta rewrites (tiny)
	// plus the inserted record itself (2 KiB), never the ~16 KiB of moved
	// page contents.
	if obstest.Counter(t, st, "wal.value_bytes") > 4096 {
		t.Errorf("split+insert logged %d value bytes; logical split must not log page contents", obstest.Counter(t, st, "wal.value_bytes"))
	}
	if obstest.Counter(t, st, "wal.op_payload_bytes.L") > 512 {
		t.Errorf("logical split payload = %d bytes", obstest.Counter(t, st, "wal.op_payload_bytes.L"))
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPhysiologicalBaselineLogsPageContents(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Physiological = true
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	Register(eng.Registry())
	tree, err := New(eng, "t", 8)
	if err != nil {
		t.Fatal(err)
	}
	bigVal := make([]byte, 2048)
	for i := 0; i < 8; i++ {
		if err := tree.Insert(key(i), bigVal); err != nil {
			t.Fatal(err)
		}
	}
	eng.ResetStats()
	if err := tree.Insert(key(8), bigVal); err != nil {
		t.Fatal(err)
	}
	// The lowered split logs all written pages' contents.
	if got := obstest.Counter(t, eng.Metrics(), "wal.value_bytes"); got < 8*1024 {
		t.Errorf("physiological split logged only %d value bytes", got)
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSurvivesCrash(t *testing.T) {
	tree, eng := newTree(t, 4)
	const n = 200
	for i := 0; i < n; i++ {
		if err := tree.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		if i%17 == 0 {
			if err := eng.InstallOne(); err != nil {
				t.Fatal(err)
			}
		}
		if i%29 == 0 {
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
	for i := 0; i < n; i++ {
		v, found, err := tree2.Get(key(i))
		if err != nil || !found || string(v) != string(val(i)) {
			t.Fatalf("recovered Get(%d) = %q, %v, %v", i, v, found, err)
		}
	}
}

func TestTreeCrashAtEveryBatch(t *testing.T) {
	// Crash after each batch of inserts; recovery must always yield a
	// structurally valid tree containing exactly the durable inserts.
	for batches := 1; batches <= 8; batches++ {
		tree, eng := newTree(t, 3)
		inserted := 0
		for b := 0; b < batches; b++ {
			for i := 0; i < 10; i++ {
				if err := tree.Insert(key(inserted), val(inserted)); err != nil {
					t.Fatal(err)
				}
				inserted++
			}
			if b%2 == 0 {
				if err := eng.InstallOne(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := eng.Log().Force(); err != nil {
			t.Fatal(err)
		}
		eng.Crash()
		if _, err := eng.Recover(); err != nil {
			t.Fatalf("batches=%d: %v", batches, err)
		}
		tree2, err := Open(eng, "t")
		if err != nil {
			t.Fatal(err)
		}
		if err := tree2.Check(); err != nil {
			t.Fatalf("batches=%d: %v", batches, err)
		}
		for i := 0; i < inserted; i++ {
			if _, found, _ := tree2.Get(key(i)); !found {
				t.Fatalf("batches=%d: key %d lost", batches, i)
			}
		}
	}
}

func TestOpenMissingTree(t *testing.T) {
	eng, _ := core.New(core.DefaultOptions())
	Register(eng.Registry())
	if _, err := Open(eng, "ghost"); err == nil {
		t.Error("Open of missing tree succeeded")
	}
}
