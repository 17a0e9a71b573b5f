package sim

import (
	"testing"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/writegraph"
)

func TestOracleBasics(t *testing.T) {
	reg := op.NewRegistry()
	o := NewOracle(reg)
	if err := o.Apply(op.NewCreate("X", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	v, live := o.Value("X")
	if !live || string(v) != "v" {
		t.Errorf("Value = %q, %v", v, live)
	}
	if err := o.Apply(op.NewDelete("X")); err != nil {
		t.Fatal(err)
	}
	if _, live := o.Value("X"); live {
		t.Error("deleted object still live")
	}
	if len(o.Live()) != 0 {
		t.Errorf("Live = %v", o.Live())
	}
	// Reading a dead object errors.
	bad := op.NewLogical(op.FuncCopy, []byte("Y"), []op.ObjectID{"X"}, []op.ObjectID{"Y"})
	if err := o.Apply(bad); err == nil {
		t.Error("oracle applied a read of a dead object")
	}
}

// configs is the matrix of engine configurations all crash tests cover.
func configs() map[string]core.Options {
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
		"rW/identity/rSI/noinstalls": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
			RedoTest: recovery.TestRSI, LogInstalls: false,
		},
		"physio/vSI": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
			RedoTest: recovery.TestVSI, LogInstalls: true, Physiological: true,
		},
		"physio/rSI": {
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
			RedoTest: recovery.TestRSI, LogInstalls: true, Physiological: true,
		},
	}
	// Note deliberately absent: TestRedoAll.  Redo-all is sound only for
	// logs containing nothing but physical writes (Section 5's example);
	// our workloads include physiological self-transforms, whose blind
	// re-execution is not idempotent — running that configuration here
	// reproduces exactly the divergence the paper's vSI test exists to
	// prevent (see TestRedoAllOnPhysicalLog in internal/recovery).
}

// TestCrashRecoveryMatrix is the central end-to-end correctness test: for
// every engine configuration and many random seeds, run a mixed workload
// with random installs/checkpoints/forces, crash, recover (twice, checking
// idempotence), and compare against the pure re-execution oracle.
func TestCrashRecoveryMatrix(t *testing.T) {
	for name, opts := range configs() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds(t, 1, 26) {
				if err := CrashTest(opts, DefaultScenario(seed)); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestCrashEveryStep crashes after each individual step of one scenario,
// maximizing coverage of crash points (including immediately after installs
// and checkpoints).
func TestCrashEveryStep(t *testing.T) {
	opts := core.Options{
		Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
		RedoTest: recovery.TestRSI, LogInstalls: true,
	}
	seed := pinnedSeed(t, 424242)
	for steps := 1; steps <= 60; steps++ {
		sc := DefaultScenario(seed)
		sc.Steps = steps
		if err := CrashTest(opts, sc); err != nil {
			t.Fatalf("crash after step %d: %v", steps, err)
		}
	}
}

// TestHeavyDeleteWorkload stresses the terminated-object path (Section 5's
// transient files / applications).
func TestHeavyDeleteWorkload(t *testing.T) {
	opts := core.Options{
		Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
		RedoTest: recovery.TestRSI, LogInstalls: true,
	}
	for _, seed := range seeds(t, 100, 110) {
		sc := DefaultScenario(seed)
		sc.DeletePercent = 30
		sc.Steps = 120
		if err := CrashTest(opts, sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestNoInstallNoCheckpoint exercises recovery of a log-only history (the
// stable store never written before the crash).
func TestNoInstallNoCheckpoint(t *testing.T) {
	opts := core.DefaultOptions()
	sc := DefaultScenario(7)
	sc.InstallEvery = 0
	sc.CheckpointEvery = 0
	sc.ForceEvery = 3
	if err := CrashTest(opts, sc); err != nil {
		t.Fatal(err)
	}
}

// TestAggressiveInstall exercises the opposite extreme: install after
// almost every operation.
func TestAggressiveInstall(t *testing.T) {
	opts := core.DefaultOptions()
	for _, seed := range seeds(t, 50, 56) {
		sc := DefaultScenario(seed)
		sc.InstallEvery = 1
		sc.CheckpointEvery = 5
		if err := CrashTest(opts, sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestVerifyAgainstOracleDetectsDivergence(t *testing.T) {
	// Negative control: corrupt the engine state and check the verifier
	// notices.
	opts := core.DefaultOptions()
	opts.RecordHistory = true
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Execute(op.NewCreate("X", []byte("good"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	// Divergence: overwrite X without logging (bypassing the engine's own
	// Execute) by appending an unlogged operation to history... simplest:
	// execute a second op but verify against a horizon excluding it.
	if err := eng.Execute(op.NewPhysicalWrite("X", []byte("evil"))); err != nil {
		t.Fatal(err)
	}
	// Horizon 1: oracle sees only the create; engine value is "evil".
	if err := VerifyAgainstOracle(eng, 1); err == nil {
		t.Error("verifier missed a divergence")
	}
}
