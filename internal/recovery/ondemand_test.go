package recovery_test

import (
	"fmt"
	"sync"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// TestOnDemandWaitBesideDemandCallers runs Wait concurrently with several
// RequireRead callers while a tracer is attached.  Every goroutine that
// replays chains must do so on a tracer lane of its own (run under -race),
// and the drained result must match full recovery's counters.
func TestOnDemandWaitBesideDemandCallers(t *testing.T) {
	// Blind overwrites of many objects: one long chain per object, so
	// replays on different goroutines overlap in time.
	cfg := core.DefaultOptions()
	dev := wal.NewMemDevice()
	opts := cfg
	opts.LogDevice = dev
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var universe []op.ObjectID
	for i := 0; i < 32; i++ {
		universe = append(universe, op.ObjectID(fmt.Sprintf("obj%02d", i)))
	}
	for round := 0; round < 40; round++ {
		for _, x := range universe {
			if err := eng.Execute(op.NewPhysicalWrite(x, []byte(fmt.Sprintf("%s@%d", x, round)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	logBytes, err := dev.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	img := crashImage{logBytes: logBytes, snap: eng.Store().Snapshot()}
	want, _, wantValues := recoverImage(t, img, cfg.RedoTest, cacheConfig(cfg), 1, universe)

	dev = wal.NewMemDevice()
	if err := dev.Append(img.logBytes); err != nil {
		t.Fatal(err)
	}
	log, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	store := stable.NewStore()
	store.Restore(img.snap)
	tracer := obs.NewTracer()
	od, err := recovery.StartOnDemand(log, store, recovery.Options{
		Test:        cfg.RedoTest,
		Cache:       cacheConfig(cfg),
		RedoWorkers: 1,
		Tracer:      tracer,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var res *recovery.Result
	var waitErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, waitErr = od.Wait()
	}()
	const callers = 3
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(universe); i += callers {
				if err := od.RequireRead(universe[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if waitErr != nil {
		t.Fatal(waitErr)
	}
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	got := counters{
		CheckpointLSN:    res.CheckpointLSN,
		RedoStart:        res.RedoStart,
		Analyzed:         res.AnalyzedRecords,
		Scanned:          res.ScannedOps,
		Redone:           res.Redone,
		SkippedInstalled: res.SkippedInstalled,
		SkippedUnexposed: res.SkippedUnexposed,
		Voided:           res.Voided,
		Repaired:         res.PendingFlushTxnRepaired,
	}
	if got != want {
		t.Errorf("on-demand counters %+v, full recovery %+v", got, want)
	}
	for _, x := range universe {
		v, err := od.Manager().Get(x)
		if err != nil {
			v = nil
		}
		if string(v) != wantValues[x] {
			t.Errorf("object %s: on-demand %q, full recovery %q", x, v, wantValues[x])
		}
	}
	if len(tracer.Events()) == 0 {
		t.Error("no spans recorded")
	}
}
