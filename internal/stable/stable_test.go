package stable

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"logicallog/internal/fault"
	"logicallog/internal/obs"
	"logicallog/internal/obs/obstest"
	"logicallog/internal/op"
)

// mustWrite is for test setup writes whose success is a precondition, not
// the behavior under test.
func mustWrite(t *testing.T, s *Store, entries []Entry, mode BatchMode) {
	t.Helper()
	if err := s.WriteBatch(entries, mode); err != nil {
		t.Fatal(err)
	}
}

// crashAt installs a fresh fault plan that crashes the idx-th simulated
// device write of the next batches (the store's probe is consulted once per
// write, so idx is relative to installation).
func crashAt(s *Store, idx int) *fault.Plan {
	plan := fault.NewPlan(fault.Point{Chan: fault.ChanStable, Index: idx, Kind: fault.KindCrash})
	s.SetWriteProbe(plan.StableProbe())
	return plan
}

func TestModeString(t *testing.T) {
	if ModeSingle.String() != "single" || ModeShadow.String() != "shadow" ||
		ModeFlushTxn.String() != "flushtxn" || ModeUnsafe.String() != "unsafe" ||
		BatchMode(9).String() == "" {
		t.Error("BatchMode.String wrong")
	}
}

func TestReadWriteSingle(t *testing.T) {
	s := NewStore()
	if _, err := s.Read("X"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Read missing = %v", err)
	}
	if err := s.WriteBatch([]Entry{{ID: "X", Val: []byte("v1"), VSI: 3}}, ModeSingle); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read("X")
	if err != nil || string(v.Val) != "v1" || v.VSI != 3 {
		t.Errorf("Read = %+v, %v", v, err)
	}
	// Returned value must not alias storage.
	v.Val[0] = 'z'
	v2, _ := s.Read("X")
	if string(v2.Val) != "v1" {
		t.Error("Read aliased storage")
	}
	if !s.Contains("X") || s.Contains("Y") || s.Len() != 1 {
		t.Error("Contains/Len wrong")
	}
	if err := s.WriteBatch([]Entry{{ID: "A"}, {ID: "B"}}, ModeSingle); err == nil {
		t.Error("ModeSingle must reject multi-entry batches")
	}
	if err := s.WriteBatch(nil, ModeShadow); err != nil {
		t.Errorf("empty batch = %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := NewStore()
	mustWrite(t, s, []Entry{{ID: "X", Val: []byte("v")}}, ModeSingle)
	mustWrite(t, s, []Entry{{ID: "X", Delete: true}}, ModeSingle)
	if s.Contains("X") {
		t.Error("delete failed")
	}
}

func TestIDs(t *testing.T) {
	s := NewStore()
	mustWrite(t, s, []Entry{{ID: "b"}}, ModeSingle)
	mustWrite(t, s, []Entry{{ID: "a"}}, ModeSingle)
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("IDs = %v", ids)
	}
}

func TestShadowAtomicity(t *testing.T) {
	s := NewStore()
	mustWrite(t, s, []Entry{{ID: "X", Val: []byte("old"), VSI: 1}}, ModeSingle)
	mustWrite(t, s, []Entry{{ID: "Y", Val: []byte("old"), VSI: 1}}, ModeSingle)
	count := countsOf(t, s)

	// Crash during shadow phase: old state fully intact.
	plan := crashAt(s, 1)
	err := s.WriteBatch([]Entry{
		{ID: "X", Val: []byte("new"), VSI: 5},
		{ID: "Y", Val: []byte("new"), VSI: 5},
	}, ModeShadow)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	x, _ := s.Read("X")
	y, _ := s.Read("Y")
	if string(x.Val) != "old" || string(y.Val) != "old" {
		t.Error("shadow crash must leave old state intact")
	}
	plan.Heal()

	// Successful shadow batch installs everything with one pointer swing.
	if err := s.WriteBatch([]Entry{
		{ID: "X", Val: []byte("new"), VSI: 5},
		{ID: "Y", Val: []byte("new"), VSI: 5},
	}, ModeShadow); err != nil {
		t.Fatal(err)
	}
	x, _ = s.Read("X")
	y, _ = s.Read("Y")
	if string(x.Val) != "new" || string(y.Val) != "new" || x.VSI != 5 {
		t.Error("shadow install failed")
	}
	if n := count("stable.pointer_swings"); n != 1 {
		t.Errorf("stable.pointer_swings = %d", n)
	}
	if n := count("stable.batches.shadow"); n != 2 {
		t.Errorf("stable.batches.shadow = %d", n)
	}
}

func TestFlushTxnCommitRepair(t *testing.T) {
	s := NewStore()
	mustWrite(t, s, []Entry{{ID: "X", Val: []byte("old")}}, ModeSingle)
	mustWrite(t, s, []Entry{{ID: "Y", Val: []byte("old")}}, ModeSingle)

	// Crash before commit (during value logging): old state, no pending.
	crashAt(s, 1)
	err := s.WriteBatch([]Entry{
		{ID: "X", Val: []byte("new")},
		{ID: "Y", Val: []byte("new")},
	}, ModeFlushTxn)
	if !errors.Is(err, fault.ErrInjected) || s.HasPending() {
		t.Fatalf("pre-commit crash: err=%v pending=%v", err, s.HasPending())
	}
	x, _ := s.Read("X")
	if string(x.Val) != "old" {
		t.Error("pre-commit crash must preserve old state")
	}

	// Crash after commit (during in-place phase): pending repair completes it.
	crashAt(s, 3) // 2 log writes pass, crash on 2nd in-place write (idx 3)
	err = s.WriteBatch([]Entry{
		{ID: "X", Val: []byte("new")},
		{ID: "Y", Val: []byte("new")},
	}, ModeFlushTxn)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if !s.HasPending() {
		t.Fatal("post-commit crash must leave a pending flush transaction")
	}
	if n := s.RecoverPending(); n != 2 {
		t.Errorf("RecoverPending applied %d", n)
	}
	x, _ = s.Read("X")
	y, _ := s.Read("Y")
	if string(x.Val) != "new" || string(y.Val) != "new" {
		t.Error("pending repair incomplete")
	}
	if s.HasPending() || s.RecoverPending() != 0 {
		t.Error("RecoverPending not idempotent")
	}
}

func TestFlushTxnCosts(t *testing.T) {
	// Section 4: "each object in the atomic flush set needs to be written
	// twice": once to the flush-transaction log and once in place.
	s := NewStore()
	count := countsOf(t, s)
	entries := []Entry{
		{ID: "A", Val: make([]byte, 100)},
		{ID: "B", Val: make([]byte, 100)},
	}
	if err := s.WriteBatch(entries, ModeFlushTxn); err != nil {
		t.Fatal(err)
	}
	if n := count("stable.flushtxn_log_writes"); n != 3 { // 2 values + 1 commit
		t.Errorf("stable.flushtxn_log_writes = %d, want 3", n)
	}
	if n := count("stable.flushtxn_log_bytes"); n != 200 {
		t.Errorf("stable.flushtxn_log_bytes = %d", n)
	}
	if n, b := count("stable.object_writes"), count("stable.object_write_bytes"); n != 2 || b != 200 {
		t.Errorf("stable.object_writes = %d (%d bytes)", n, b)
	}
}

func TestUnsafeTornWrite(t *testing.T) {
	s := NewStore()
	mustWrite(t, s, []Entry{{ID: "X", Val: []byte("old")}}, ModeSingle)
	mustWrite(t, s, []Entry{{ID: "Y", Val: []byte("old")}}, ModeSingle)
	crashAt(s, 1)
	err := s.WriteBatch([]Entry{
		{ID: "X", Val: []byte("new")},
		{ID: "Y", Val: []byte("new")},
	}, ModeUnsafe)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatal(err)
	}
	x, _ := s.Read("X")
	y, _ := s.Read("Y")
	if string(x.Val) != "new" || string(y.Val) != "old" {
		t.Errorf("unsafe crash must tear: X=%q Y=%q", x.Val, y.Val)
	}
}

func TestCrashAtZero(t *testing.T) {
	s := NewStore()
	plan := crashAt(s, 0)
	err := s.WriteBatch([]Entry{{ID: "X", Val: []byte("v")}}, ModeSingle)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatal(err)
	}
	if s.Contains("X") {
		t.Error("crash-at-zero must write nothing")
	}
	// A dead plan keeps failing writes (the machine stopped) until healed.
	if err := s.WriteBatch([]Entry{{ID: "X", Val: []byte("v")}}, ModeSingle); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("write on dead plan = %v, want injected failure", err)
	}
	plan.Heal()
	if err := s.WriteBatch([]Entry{{ID: "X", Val: []byte("v")}}, ModeSingle); err != nil {
		t.Errorf("post-heal write = %v", err)
	}
}

// TestShadowMidBatchFailureEveryIndex is the regression test for shadow
// batches interrupted at every possible write boundary: phase-1 shadow
// writes 0..n-1 and the pointer swing at n.  Whatever the boundary, the
// store must hold the fully-old state (never torn), report no pending
// repair, and accept a clean retry of the same batch afterwards — i.e. a
// mid-batch failure loses no recoverability.
func TestShadowMidBatchFailureEveryIndex(t *testing.T) {
	batch := []Entry{
		{ID: "X", Val: []byte("newX"), VSI: 9},
		{ID: "Y", Val: []byte("newY"), VSI: 9},
		{ID: "Z", Val: []byte("newZ"), VSI: 9},
	}
	for idx := 0; idx <= len(batch); idx++ {
		t.Run(fmt.Sprintf("write%d", idx), func(t *testing.T) {
			s := NewStore()
			mustWrite(t, s, []Entry{{ID: "X", Val: []byte("oldX"), VSI: 1}}, ModeSingle)
			mustWrite(t, s, []Entry{{ID: "Y", Val: []byte("oldY"), VSI: 1}}, ModeSingle)
			// Z does not exist yet: a torn shadow batch would create it.
			plan := fault.NewPlan(fault.Point{Chan: fault.ChanStable, Index: idx, Kind: fault.KindCrash})
			s.SetWriteProbe(plan.StableProbe())
			err := s.WriteBatch(batch, ModeShadow)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("err = %v, want injected failure", err)
			}
			x, _ := s.Read("X")
			y, _ := s.Read("Y")
			if string(x.Val) != "oldX" || x.VSI != 1 || string(y.Val) != "oldY" || y.VSI != 1 {
				t.Errorf("state torn at write %d: X=%q Y=%q", idx, x.Val, y.Val)
			}
			if s.Contains("Z") {
				t.Errorf("write %d: Z leaked from an uninstalled shadow batch", idx)
			}
			if s.HasPending() {
				t.Errorf("write %d: shadow mode must never leave a pending repair", idx)
			}
			// After healing, the same batch retries cleanly to the new state.
			plan.Heal()
			mustWrite(t, s, batch, ModeShadow)
			x, _ = s.Read("X")
			z, _ := s.Read("Z")
			if string(x.Val) != "newX" || x.VSI != 9 || string(z.Val) != "newZ" {
				t.Errorf("retry after write-%d failure incomplete: X=%q Z=%q", idx, x.Val, z.Val)
			}
		})
	}
}

// TestFlushTxnMidBatchFailureEveryIndex does the same sweep for the
// flush-transaction mechanism: failures before the commit boundary leave
// old state and no pending entries; failures after it leave a pending
// repair that RecoverPending completes to the fully-new state.
func TestFlushTxnMidBatchFailureEveryIndex(t *testing.T) {
	batch := []Entry{
		{ID: "X", Val: []byte("newX"), VSI: 9},
		{ID: "Y", Val: []byte("newY"), VSI: 9},
	}
	// Write boundaries: log writes 0..1, then in-place writes 2..3.
	for idx := 0; idx <= 3; idx++ {
		t.Run(fmt.Sprintf("write%d", idx), func(t *testing.T) {
			s := NewStore()
			mustWrite(t, s, []Entry{{ID: "X", Val: []byte("oldX"), VSI: 1}}, ModeSingle)
			mustWrite(t, s, []Entry{{ID: "Y", Val: []byte("oldY"), VSI: 1}}, ModeSingle)
			plan := fault.NewPlan(fault.Point{Chan: fault.ChanStable, Index: idx, Kind: fault.KindCrash})
			s.SetWriteProbe(plan.StableProbe())
			err := s.WriteBatch(batch, ModeFlushTxn)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("err = %v, want injected failure", err)
			}
			committed := idx >= len(batch)
			if s.HasPending() != committed {
				t.Fatalf("write %d: pending = %v, want %v", idx, s.HasPending(), committed)
			}
			plan.Heal()
			s.RecoverPending()
			x, _ := s.Read("X")
			y, _ := s.Read("Y")
			if committed {
				if string(x.Val) != "newX" || string(y.Val) != "newY" {
					t.Errorf("write %d: repair incomplete: X=%q Y=%q", idx, x.Val, y.Val)
				}
			} else {
				if string(x.Val) != "oldX" || string(y.Val) != "oldY" {
					t.Errorf("write %d: pre-commit failure not atomic: X=%q Y=%q", idx, x.Val, y.Val)
				}
			}
		})
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewStore()
	mustWrite(t, s, []Entry{{ID: "X", Val: []byte("v1"), VSI: 7}}, ModeSingle)
	snap := s.Snapshot()
	mustWrite(t, s, []Entry{{ID: "X", Val: []byte("v2"), VSI: 9}}, ModeSingle)
	mustWrite(t, s, []Entry{{ID: "Y", Val: []byte("y")}}, ModeSingle)
	s.Restore(snap)
	v, err := s.Read("X")
	if err != nil || string(v.Val) != "v1" || v.VSI != 7 {
		t.Errorf("restored X = %+v, %v", v, err)
	}
	if s.Contains("Y") {
		t.Error("restore kept later object")
	}
	// Snapshot is deep: mutating it doesn't affect the store.
	snap["X"].Val[0] = 'z'
	v, _ = s.Read("X")
	if string(v.Val) != "v1" {
		t.Error("snapshot aliased storage")
	}
}

func TestReadCounting(t *testing.T) {
	s := NewStore()
	mustWrite(t, s, []Entry{{ID: "X", Val: []byte("v")}}, ModeSingle)
	count := countsOf(t, s)
	s.Read("X")
	s.Read("X")
	s.Read("missing")
	if got := count("stable.object_reads"); got != 2 {
		t.Errorf("stable.object_reads = %d, want 2 (misses don't count)", got)
	}
}

// countsOf attaches a fresh registry to s and returns a reader of s's
// counters that fails the test on an unregistered name.
func countsOf(tb testing.TB, s *Store) func(name string) int64 {
	r := obs.NewRegistry()
	s.SetObs(r)
	return func(name string) int64 {
		tb.Helper()
		return obstest.Counter(tb, r.Snapshot(), name)
	}
}

// checkIDIndex holds IDs and IDsIn to the stored population.
func checkIDIndex(t *testing.T, s *Store, rng *rand.Rand, where string) {
	t.Helper()
	var want []op.ObjectID
	for x := range s.Snapshot() {
		want = append(want, x)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := s.IDs(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: IDs = %v, stored %v", where, got, want)
	}
	for i := 0; i < 4; i++ {
		lo := op.ObjectID(fmt.Sprintf("k%02d", rng.Intn(44)))
		hi := op.ObjectID(fmt.Sprintf("k%02d", rng.Intn(44)))
		if i == 0 {
			hi = ""
		}
		var in []op.ObjectID
		for _, x := range want {
			if x >= lo && (hi == "" || x < hi) {
				in = append(in, x)
			}
		}
		if got := s.IDsIn(lo, hi); !reflect.DeepEqual(got, in) {
			t.Fatalf("%s: IDsIn(%q, %q) = %v, want %v", where, lo, hi, got, in)
		}
	}
}

// TestIDIndexTracksEveryWritePath applies random creating and deleting
// batches in every mode — some cut by an injected crash, including torn
// ModeUnsafe batches and committed flush transactions finished by
// RecoverPending — plus Restores of earlier snapshots, and checks the ordered
// id index against the stored population after each.
func TestIDIndexTracksEveryWritePath(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewStore()
	var snaps []map[op.ObjectID]Versioned
	modes := []BatchMode{ModeSingle, ModeShadow, ModeFlushTxn, ModeUnsafe}
	for step := 0; step < 600; step++ {
		where := fmt.Sprintf("step %d", step)
		if rng.Intn(25) == 0 && len(snaps) > 0 {
			s.Restore(snaps[rng.Intn(len(snaps))])
			checkIDIndex(t, s, rng, where+" restore")
			continue
		}
		mode := modes[rng.Intn(len(modes))]
		n := 1
		if mode != ModeSingle {
			n = 1 + rng.Intn(5)
		}
		var entries []Entry
		seen := map[op.ObjectID]bool{}
		for len(entries) < n {
			x := op.ObjectID(fmt.Sprintf("k%02d", rng.Intn(40)))
			if seen[x] {
				continue
			}
			seen[x] = true
			entries = append(entries, Entry{ID: x, Val: []byte{byte(step)}, Delete: rng.Intn(3) == 0})
		}
		var plan *fault.Plan
		if rng.Intn(4) == 0 {
			plan = crashAt(s, rng.Intn(2*n+2))
		}
		err := s.WriteBatch(entries, mode)
		if plan != nil {
			s.SetWriteProbe(nil)
			if err != nil && !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("%s: %v", where, err)
			}
			checkIDIndex(t, s, rng, where+" after crash")
			s.RecoverPending()
		} else if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		checkIDIndex(t, s, rng, where)
		if rng.Intn(10) == 0 {
			snaps = append(snaps, s.Snapshot())
		}
	}
}
