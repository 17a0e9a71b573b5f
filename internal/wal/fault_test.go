// Torn-tail, bit-flip, reorder, and transient-retry coverage for the WAL
// through the fault-injection layer.  This lives in package wal_test because
// internal/fault imports internal/wal.
package wal_test

import (
	"errors"
	"testing"
	"time"

	"logicallog/internal/fault"
	"logicallog/internal/obs"
	"logicallog/internal/obs/obstest"
	"logicallog/internal/op"
	"logicallog/internal/wal"
)

// longName makes the faulted record's frame comfortably longer than
// MaxRecordHeader so every cut length 1..MaxRecordHeader lands inside it.
const longName = op.ObjectID("torn-tail-padding-object")

func mustAppendRec(t *testing.T, l *wal.Log, rec *wal.Record) op.SI {
	t.Helper()
	lsn, err := l.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestTornTailEveryLength tears the final append at every prefix length
// 1..MaxRecordHeader bytes and checks, for each: the scan stops before the
// torn record, restart over the device resumes at the last whole record,
// and Restart trims the debris so the log keeps working.
func TestTornTailEveryLength(t *testing.T) {
	for cut := 1; cut <= wal.MaxRecordHeader; cut++ {
		plan := fault.NewPlan(fault.Point{
			Chan: fault.ChanWAL, Index: 1, Kind: fault.KindTorn, Arg: cut,
		})
		dev := plan.WrapDevice(wal.NewMemDevice())
		l, err := wal.New(dev)
		if err != nil {
			t.Fatal(err)
		}
		mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
		if err := l.Force(); err != nil {
			t.Fatalf("cut %d: clean force failed: %v", cut, err)
		}
		mustAppendRec(t, l, wal.NewFlushRecord(longName, 2))
		err = l.Force()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("cut %d: force error = %v, want injected fault", cut, err)
		}

		// The torn record must not be scannable.
		plan.Heal()
		sc, err := l.Scan(0)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := sc.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].LSN != 1 {
			t.Fatalf("cut %d: scan past torn tail: %v", cut, recs)
		}

		// A fresh Log over the torn device resumes at the whole record.
		l2, err := wal.New(dev)
		if err != nil {
			t.Fatal(err)
		}
		if l2.StableLSN() != 1 {
			t.Fatalf("cut %d: restart StableLSN = %d, want 1", cut, l2.StableLSN())
		}

		// In-process restart trims the debris and reuses the lost LSN.
		l.Crash()
		if err := l.Restart(); err != nil {
			t.Fatalf("cut %d: restart: %v", cut, err)
		}
		lsn := mustAppendRec(t, l, wal.NewFlushRecord("B", 3))
		if lsn != 2 {
			t.Fatalf("cut %d: post-trim LSN = %d, want 2", cut, lsn)
		}
		if err := l.Force(); err != nil {
			t.Fatalf("cut %d: post-trim force: %v", cut, err)
		}
		sc2, err := l.Scan(0)
		if err != nil {
			t.Fatal(err)
		}
		recs2, err := sc2.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != 2 || recs2[1].LSN != 2 {
			t.Fatalf("cut %d: after trim+append: %v", cut, recs2)
		}
	}
}

// TestTornTailFullAppendLosesOnlyAck covers the "committed but unacked"
// tear: every byte of the append lands but the caller sees a crash.
// Restart must advance the durable horizon over the landed records.
func TestTornTailFullAppendLosesOnlyAck(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 0, Kind: fault.KindTorn, Arg: 1 << 20,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	mustAppendRec(t, l, wal.NewFlushRecord("B", 2))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	plan.Heal()
	l.Crash()
	if err := l.Restart(); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 2 {
		t.Errorf("StableLSN = %d, want 2 (both records landed)", l.StableLSN())
	}
	if lsn := mustAppendRec(t, l, wal.NewFlushRecord("C", 3)); lsn != 3 {
		t.Errorf("next LSN = %d, want 3", lsn)
	}
}

// TestBitFlipStopsScan flips one bit in the final append: the CRC must
// reject the frame and Restart must trim it.
func TestBitFlipStopsScan(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 1, Kind: fault.KindBitFlip, Arg: 99,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("B", 2))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	plan.Heal()
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("scan past flipped frame: %v", recs)
	}
	l.Crash()
	if err := l.Restart(); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 1 {
		t.Errorf("StableLSN = %d, want 1", l.StableLSN())
	}
}

// TestReorderedBatchTrimsAtGap drops a middle frame of a three-record
// group-commit append: the surviving suffix frames are unreachable past the
// LSN gap and must be trimmed, while frames before the gap stay durable.
func TestReorderedBatchTrimsAtGap(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 1, Kind: fault.KindReorder, Arg: 1,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// One append carrying LSNs 2,3,4; frame index 1 (LSN 3) is dropped.
	mustAppendRec(t, l, wal.NewFlushRecord("B", 2))
	mustAppendRec(t, l, wal.NewFlushRecord("C", 3))
	mustAppendRec(t, l, wal.NewFlushRecord("D", 4))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	plan.Heal()
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].LSN != 2 {
		t.Fatalf("scan across LSN gap: %v", recs)
	}
	l.Crash()
	if err := l.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := l.StableLSN(); got != 2 {
		t.Errorf("StableLSN = %d, want 2 (LSN 4 is beyond the gap)", got)
	}
}

// TestReorderedFirstAppendWipesDevice drops the leading frame of the very
// first append: nothing on the device connects to the log's first LSN, so
// Restart must distrust all of it.
func TestReorderedFirstAppendWipesDevice(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 0, Kind: fault.KindReorder, Arg: 0,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	mustAppendRec(t, l, wal.NewFlushRecord("B", 2))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	plan.Heal()
	l.Crash()
	if err := l.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := l.StableLSN(); got != 0 {
		t.Errorf("StableLSN = %d, want 0 (orphaned suffix must be wiped)", got)
	}
	sz, err := dev.Size()
	if err != nil {
		t.Fatal(err)
	}
	if sz != 0 {
		t.Errorf("device size = %d after trim, want 0", sz)
	}
}

// TestForceRetriesTransientFaults checks the capped-backoff retry absorbs
// consecutive transient EIOs up to the policy bound, and gives up past it.
func TestForceRetriesTransientFaults(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 0, Kind: fault.KindTransient, Arg: 3,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	l.SetRetryPolicy(3, 10*time.Microsecond, 100*time.Microsecond)
	r := obs.NewRegistry()
	l.SetObs(r)
	mustAppendRec(t, l, wal.NewFlushRecord("A", 1))
	if err := l.Force(); err != nil {
		t.Fatalf("force with retry: %v", err)
	}
	if l.StableLSN() != 1 {
		t.Errorf("StableLSN = %d, want 1", l.StableLSN())
	}
	if got := obstest.Counter(t, r.Snapshot(), "wal.transient_retries"); got != 3 {
		t.Errorf("wal.transient_retries = %d, want 3", got)
	}

	// Four consecutive EIOs exceed a 3-retry budget.
	plan2 := fault.NewPlan(fault.Point{
		Chan: fault.ChanWAL, Index: 0, Kind: fault.KindTransient, Arg: 4,
	})
	l2, err := wal.New(plan2.WrapDevice(wal.NewMemDevice()))
	if err != nil {
		t.Fatal(err)
	}
	l2.SetRetryPolicy(3, 10*time.Microsecond, 100*time.Microsecond)
	mustAppendRec(t, l2, wal.NewFlushRecord("A", 1))
	err = l2.Force()
	if err == nil || !wal.IsTransient(err) {
		t.Fatalf("force error = %v, want transient failure after retries exhausted", err)
	}
}

// TestStreamMergeBoundaryCrash arms the walstream channel: the group-commit
// leader merges the per-core streams into a staged batch, the machine dies
// before the batch reaches the device, and recovery must see exactly the
// previously forced prefix — the staged batch is volatile, so merged-order
// operation is schedule-equivalent to single-stream operation.
func TestStreamMergeBoundaryCrash(t *testing.T) {
	plan := fault.NewPlan(fault.Point{
		Chan: fault.ChanWALStream, Index: 1, Kind: fault.KindCrash,
	})
	dev := plan.WrapDevice(wal.NewMemDevice())
	l, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	l.SetStreams(4, true)
	l.SetMergeProbe(plan.MergeProbe())

	// First batch merges and forces cleanly (stream boundary 0).
	mustAppendRec(t, l, wal.NewOpRecord(op.NewPhysicalWrite("X", []byte("v1"))))
	if err := l.Force(); err != nil {
		t.Fatalf("clean force: %v", err)
	}

	// Second batch is staged at boundary 1 and never hits the device.
	mustAppendRec(t, l, wal.NewOpRecord(op.NewPhysicalWrite("X", []byte("v2"))))
	mustAppendRec(t, l, wal.NewOpRecord(op.NewPhysicalWrite("Y", []byte("w"))))
	if err := l.Force(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("force error = %v, want injected fault", err)
	}
	if l.StableLSN() != 1 {
		t.Errorf("StableLSN = %d, want 1 after merge-boundary crash", l.StableLSN())
	}

	// The machine stopped: recovery reopens the device and must find only
	// the forced prefix, with no trace of the staged batch.
	l.Crash()
	plan.Heal()
	l2, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := l2.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("post-crash durable log = %v, want only LSN 1", recs)
	}
	// The restarted log reuses the lost LSNs, keeping the stream dense.
	if lsn := mustAppendRec(t, l2, wal.NewOpRecord(op.NewPhysicalWrite("Z", []byte("z")))); lsn != 2 {
		t.Errorf("post-crash LSN = %d, want 2", lsn)
	}
}
