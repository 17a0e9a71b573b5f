package sim

import (
	"math/rand"
	"testing"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/writegraph"
)

// TestRegressionNotxForceSeed19 pins the WAL-discipline bug found by the
// crash matrix at seed 19: installing a node with unexposed (Notx) objects
// must force the blind-write log records that made those objects unexposed.
// After the flush, those records are the objects' only recovery source; if
// they remain in the volatile log tail, a crash leaves the stable database
// claiming operations installed whose written objects are exposed in the
// *durable* history yet stale on disk — an unexplainable state.
func TestRegressionNotxForceSeed19(t *testing.T) {
	opts := core.Options{
		Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
		RedoTest: recovery.TestRSI, LogInstalls: true, RecordHistory: true,
	}
	sc := DefaultScenario(19)
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	if err := driveWorkload(eng, rng, sc); err != nil {
		t.Fatal(err)
	}
	horizon := eng.Log().StableLSN()
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstOracle(eng, horizon); err != nil {
		t.Fatal(err)
	}
}

// TestRegressionInstallForcesNotxWriters is the minimal deterministic form:
// node A installs with X unexposed thanks to blind writer C; C's record must
// be durable after the install even though nothing forced the log
// explicitly.
func TestRegressionInstallForcesNotxWriters(t *testing.T) {
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exec := func(o *op.Operation) {
		t.Helper()
		if err := eng.Execute(o); err != nil {
			t.Fatal(err)
		}
	}
	exec(op.NewPhysicalWrite("X", []byte("xA")))                                          // A
	exec(op.NewLogical(op.FuncCopy, []byte("Z"), []op.ObjectID{"X"}, []op.ObjectID{"Z"})) // B
	exec(op.NewPhysicalWrite("X", []byte("xC")))                                          // C

	// Install B's node then A's node (vars empty, X in Notx).
	wg := eng.Cache().WriteGraph()
	nb, _ := wg.NodeOfOp(2)
	if _, err := eng.Cache().InstallNode(nb); err != nil {
		t.Fatal(err)
	}
	na, _ := wg.NodeOfOp(1)
	if _, err := eng.Cache().InstallNode(na); err != nil {
		t.Fatal(err)
	}
	// C's record (LSN 3) justifies X's unexposedness; it must be durable.
	if eng.Log().StableLSN() < 3 {
		t.Fatalf("StableLSN = %d: blind-writer record not forced by install", eng.Log().StableLSN())
	}
	// And a crash right now must recover X to C's value.
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	v, err := eng.Get("X")
	if err != nil || string(v) != "xC" {
		t.Errorf("recovered X = %q, %v", v, err)
	}
}
