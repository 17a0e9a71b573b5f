// Determinism tests for parallel redo: every crash/recover scenario must
// yield bit-identical recovered state and Result counters at every worker
// count.  The test lives in an external package so it can drive full engine
// workloads (core + sim) against recovery directly.
package recovery_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/sim"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

// crashImage is a deep copy of the durable state a crash leaves behind: the
// forced log bytes and the stable store contents.
type crashImage struct {
	logBytes []byte
	snap     map[op.ObjectID]stable.Versioned
}

// capture runs the scenario's workload against a fresh engine, crashes it,
// and returns the durable image plus the object universe in play.
func capture(t *testing.T, opts core.Options, sc sim.Scenario) (crashImage, []op.ObjectID) {
	t.Helper()
	dev := wal.NewMemDevice()
	opts.LogDevice = dev
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.DriveWorkload(eng, sc); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	logBytes, err := dev.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	img := crashImage{logBytes: logBytes, snap: eng.Store().Snapshot()}
	universe := make([]op.ObjectID, sc.Objects)
	for i := range universe {
		universe[i] = op.ObjectID(fmt.Sprintf("obj%02d", i))
	}
	return img, universe
}

// counters is the comparable projection of recovery.Result.
type counters struct {
	CheckpointLSN, RedoStart                           op.SI
	Analyzed, Scanned                                  int
	Redone, SkippedInstalled, SkippedUnexposed, Voided int
	Repaired                                           bool
}

// recoverImage recovers an independent copy of the crash image with the
// given worker count and returns the counters, the post-recovery stable
// snapshot, and each universe object's recovered value ("" marks absent).
func recoverImage(t *testing.T, img crashImage, test recovery.RedoTest, cfg cache.Config, workers int, universe []op.ObjectID) (counters, map[op.ObjectID]stable.Versioned, map[op.ObjectID]string) {
	t.Helper()
	dev := wal.NewMemDevice()
	if err := dev.Append(img.logBytes); err != nil {
		t.Fatal(err)
	}
	log, err := wal.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	store := stable.NewStore()
	store.Restore(img.snap)
	res, err := recovery.Recover(log, store, recovery.Options{
		Test:        test,
		Cache:       cfg,
		RedoWorkers: workers,
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	c := counters{
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
	values := make(map[op.ObjectID]string, len(universe))
	for _, x := range universe {
		v, err := res.Manager.Get(x)
		switch {
		case err == nil:
			values[x] = string(v)
		case errors.Is(err, cache.ErrNotFound):
			values[x] = ""
		default:
			t.Fatalf("workers=%d: Get(%s): %v", workers, x, err)
		}
	}
	return c, store.Snapshot(), values
}

func sameSnap(a, b map[op.ObjectID]stable.Versioned) bool {
	if len(a) != len(b) {
		return false
	}
	for x, av := range a {
		bv, ok := b[x]
		if !ok || av.VSI != bv.VSI || !bytes.Equal(av.Val, bv.Val) {
			return false
		}
	}
	return true
}

// parallelConfigs mirrors the sim test matrix: every REDO test × flush
// strategy combination the engine supports.
func parallelConfigs() map[string]core.Options {
	return map[string]core.Options{
		"rW/identity/rSI": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
			RedoTest: recovery.TestRSI, LogInstalls: true,
		},
		"rW/shadow/rSI": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyShadow,
			RedoTest: recovery.TestRSI, LogInstalls: true,
		},
		"rW/flushtxn/vSI": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyFlushTxn,
			RedoTest: recovery.TestVSI, LogInstalls: true,
		},
		"W/shadow/vSI": {
			Policy: writegraph.PolicyW, Strategy: cache.StrategyShadow,
			RedoTest: recovery.TestVSI, LogInstalls: true,
		},
		"rW/identity/redo-all": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
			RedoTest: recovery.TestRedoAll, LogInstalls: true,
		},
	}
}

var workerCounts = []int{1, 2, 8}

// cacheConfig is the recovered cache manager's configuration for engine
// options opts.
func cacheConfig(opts core.Options) cache.Config {
	return cache.Config{
		Policy:      opts.Policy,
		Strategy:    opts.Strategy,
		LogInstalls: opts.LogInstalls,
		Registry:    op.NewRegistry(),
	}
}

// checkScenario recovers one crash image at every worker count and requires
// identical counters, stable snapshots, and recovered object values.
func checkScenario(t *testing.T, opts core.Options, sc sim.Scenario) {
	t.Helper()
	img, universe := capture(t, opts, sc)
	cfg := cacheConfig(opts)
	baseC, baseSnap, baseVals := recoverImage(t, img, opts.RedoTest, cfg, workerCounts[0], universe)
	for _, w := range workerCounts[1:] {
		c, snap, vals := recoverImage(t, img, opts.RedoTest, cfg, w, universe)
		if c != baseC {
			t.Errorf("seed %d workers=%d: counters diverged:\n got %+v\nwant %+v", sc.Seed, w, c, baseC)
		}
		if !sameSnap(snap, baseSnap) {
			t.Errorf("seed %d workers=%d: stable snapshot diverged", sc.Seed, w)
		}
		for x, want := range baseVals {
			if vals[x] != want {
				t.Errorf("seed %d workers=%d: object %s diverged: got %q want %q", sc.Seed, w, x, vals[x], want)
			}
		}
	}
}

// TestParallelRedoMatrix runs the full configuration matrix over randomized
// scenarios at worker counts {1, 2, 8}.
func TestParallelRedoMatrix(t *testing.T) {
	for name, opts := range parallelConfigs() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				checkScenario(t, opts, sim.DefaultScenario(seed))
			}
		})
	}
}

// TestParallelRedoLogOnly recovers a log-only history (nothing installed or
// checkpointed before the crash) — the longest possible redo scan.
func TestParallelRedoLogOnly(t *testing.T) {
	opts := core.DefaultOptions()
	for seed := int64(30); seed < 36; seed++ {
		sc := sim.DefaultScenario(seed)
		sc.InstallEvery = 0
		sc.CheckpointEvery = 0
		sc.ForceEvery = 2
		sc.Steps = 150
		checkScenario(t, opts, sc)
	}
}

// TestParallelRedoHeavyDelete stresses terminated-object voiding under
// concurrency.
func TestParallelRedoHeavyDelete(t *testing.T) {
	opts := core.DefaultOptions()
	for seed := int64(60); seed < 66; seed++ {
		sc := sim.DefaultScenario(seed)
		sc.DeletePercent = 30
		sc.Steps = 120
		checkScenario(t, opts, sc)
	}
}

// TestParallelRedoWideUniverse uses many objects so the stream splits into
// many genuinely independent chains.
func TestParallelRedoWideUniverse(t *testing.T) {
	opts := core.DefaultOptions()
	for seed := int64(90); seed < 94; seed++ {
		sc := sim.DefaultScenario(seed)
		sc.Objects = 48
		sc.Steps = 300
		checkScenario(t, opts, sc)
	}
}
