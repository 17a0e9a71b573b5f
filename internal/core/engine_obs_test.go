package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	. "logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/obs/obstest"
	"logicallog/internal/op"
	"logicallog/internal/ship"
)

// obsEng builds an engine with a metrics registry (and optionally a tracer)
// attached.
func obsEng(t *testing.T, tracer *obs.Tracer) (*Engine, *obs.Registry) {
	t.Helper()
	opts := DefaultOptions()
	opts.Obs = obs.NewRegistry()
	opts.Tracer = tracer
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, opts.Obs
}

func TestMetricsUnifiesStatsAndRegistry(t *testing.T) {
	eng, _ := obsEng(t, nil)
	if err := eng.Execute(op.NewCreate("x", []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if n := obstest.Counter(t, m, "cache.ops_executed"); n != 1 {
		t.Errorf("cache.ops_executed = %d", n)
	}
	if obstest.Counter(t, m, "wal.bytes_appended") == 0 || obstest.Counter(t, m, "stable.object_writes") == 0 {
		t.Errorf("layer counters missing from metrics view: %+v", m.Counters)
	}
	// The registry's hot-path histograms are in the same view.
	if m.Histograms["wal.append.ns"].Count == 0 {
		t.Errorf("wal.append.ns histogram empty; histograms = %v", m.Histograms)
	}
	if m.Histograms["cache.install.flush_set_size"].Count == 0 {
		t.Errorf("flush-set-size histogram empty; histograms = %v", m.Histograms)
	}
}

func TestResetStatsResetsEverySource(t *testing.T) {
	eng, reg := obsEng(t, nil)
	if err := eng.Execute(op.NewCreate("x", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	layers := []string{"wal.bytes_appended", "stable.object_writes", "cache.ops_executed", "cache.installs"}
	before := eng.Metrics()
	for _, name := range layers {
		if obstest.Counter(t, before, name) == 0 {
			t.Fatalf("expected non-zero %s before reset", name)
		}
	}
	if reg.Histogram("wal.append.ns").Snapshot().Count == 0 {
		t.Fatal("expected obs observations before reset")
	}

	eng.ResetStats()

	after := eng.Metrics()
	for _, name := range append(layers, "wal.forces", "stable.object_reads", "cache.objects_flushed") {
		if n := obstest.Counter(t, after, name); n != 0 {
			t.Errorf("%s = %d survived reset", name, n)
		}
	}
	if n := reg.Histogram("wal.append.ns").Snapshot().Count; n != 0 {
		t.Errorf("obs histogram survived reset: count=%d", n)
	}
}

// paritySequence drives one fixed history through an engine built from
// opts, shipping it to a standby built from standbyObs: creates, logical
// and physiological ops, an absorbed blind write, installs, a truncating
// checkpoint, a crash with full recovery, a crash with on-demand recovery,
// and the standby's promotion.  It returns the engine's and the standby's
// metrics.
func paritySequence(t *testing.T, opts Options, standbyObs *obs.Registry) (engine, standby obs.Snapshot) {
	t.Helper()
	opts.AbsorbWrites = true
	opts.RedoWorkers = 2
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sbOpts := opts
	sbOpts.Obs = standbyObs
	sb, err := ship.NewStandby(ship.StandbyConfig{Opts: sbOpts})
	if err != nil {
		t.Fatal(err)
	}
	sender := ship.NewSender(eng.Log(), ship.NewLink(sb, nil), 1, ship.SenderConfig{BatchRecords: 3})
	defer sender.Close()
	exec := func(ops ...*op.Operation) {
		t.Helper()
		for _, o := range ops {
			if err := eng.Execute(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		exec(op.NewCreate(op.ObjectID(fmt.Sprintf("x%d", i)), []byte{byte(i), 1}))
	}
	step(eng.FlushAll())
	exec(op.NewLogical(op.FuncXor, op.EncodeParams([]byte("x1"), []byte("x0")),
		[]op.ObjectID{"x0", "x1"}, []op.ObjectID{"x1"}),
		op.NewLogical(op.FuncCopy, []byte("x0"), []op.ObjectID{"x1"}, []op.ObjectID{"x0"}),
		op.NewPhysioWrite("x2", op.FuncAppend, []byte{9}),
		op.NewPhysicalWrite("x3", []byte("superseded")),
		op.NewPhysicalWrite("x3", []byte("survivor")))
	step(eng.Log().Force())
	step(eng.InstallOne())
	step(eng.Checkpoint())
	exec(op.NewPhysioWrite("x4", op.FuncAppend, []byte{7}),
		op.NewLogical(op.FuncCopy, []byte("x5"), []op.ObjectID{"x4"}, []op.ObjectID{"x5"}))
	step(eng.Log().Force())
	step(sender.Sync())
	eng.Crash()
	_, err = eng.Recover()
	step(err)
	exec(op.NewPhysioWrite("x0", op.FuncAppend, []byte{5}),
		op.NewLogical(op.FuncCopy, []byte("x1"), []op.ObjectID{"x0"}, []op.ObjectID{"x1"}))
	step(eng.Log().Force())
	eng.Crash()
	od, err := eng.RecoverOnDemand()
	step(err)
	if _, err := eng.Get("x1"); err != nil {
		t.Fatal(err)
	}
	_, err = od.Wait()
	step(err)
	_, _, err = sb.Promote()
	step(err)
	return eng.Metrics(), sb.Metrics()
}

// TestMetricsParityNilAndAttachedRegistry holds the always-on rule: an
// engine (and a standby) with no registry counts exactly what one with an
// attached registry counts, under the names outside readers use.
func TestMetricsParityNilAndAttachedRegistry(t *testing.T) {
	nilEng, nilSb := paritySequence(t, DefaultOptions(), nil)
	opts := DefaultOptions()
	opts.Obs = obs.NewRegistry()
	regEng, regSb := paritySequence(t, opts, obs.NewRegistry())

	// Pinned names: perfbench, the llbench/v1 validator, DB.Stats, and
	// llrun read these.
	pinned := []string{"wal.bytes_appended", "wal.value_bytes", "wal.forces", "wal.records.op",
		"wal.op_payload_bytes.L", "wal.absorb.hits", "wal.absorb.bytes_elided",
		"cache.installs", "cache.identity_writes", "cache.ops_executed", "cache.installed_not_flushed",
		"stable.object_reads", "stable.object_writes",
		"recovery.decide.redo", "recovery.decide.skip_installed",
		"recovery.decide.skip_unexposed", "recovery.decide.voided",
		"recovery.ondemand.demand_chains", "recovery.ondemand.background_chains",
		"recovery.ondemand.requires", "recovery.ondemand.demand_waits"}
	for _, name := range pinned {
		obstest.Counter(t, nilEng, name)
		obstest.Counter(t, regEng, name)
	}
	for _, name := range []string{"wal.bytes_appended", "wal.forces", "wal.absorb.hits", "cache.installs",
		"cache.ops_executed", "stable.object_reads", "recovery.decide.redo"} {
		if obstest.Counter(t, regEng, name) == 0 {
			t.Errorf("%s = 0: the sequence must exercise it", name)
		}
	}
	for _, name := range []string{"ship.batches", "ship.applied_ops", "ship.skipped_installed",
		"ship.skipped_unexposed", "ship.voided", "ship.dups", "ship.gaps",
		"ship.installs_mirrored", "ship.promotions"} {
		obstest.Counter(t, nilSb, name)
		obstest.Counter(t, regSb, name)
	}
	if obstest.Counter(t, regSb, "ship.applied_ops") == 0 || obstest.Counter(t, regSb, "ship.promotions") != 1 {
		t.Errorf("standby counters not exercised: %v", regSb.Counters)
	}
	if nilEng.Histograms["wal.append.ns"].Count == 0 {
		t.Error("wal.append.ns histogram empty without an attached registry")
	}

	// On-demand redo splits chains between demand and background workers by
	// timing; only their sum is fixed.
	racy := map[string]bool{"recovery.ondemand.demand_chains": true,
		"recovery.ondemand.background_chains": true, "recovery.ondemand.demand_waits": true,
		"recovery.ondemand.demand_wait_ns": true}
	sameCounts(t, "engine", nilEng, regEng, racy)
	sameCounts(t, "standby", nilSb, regSb, racy)
	chains := func(s obs.Snapshot) int64 {
		return s.Counters["recovery.ondemand.demand_chains"] + s.Counters["recovery.ondemand.background_chains"]
	}
	if chains(nilEng) != chains(regEng) {
		t.Errorf("on-demand chains: nil registry %d, attached %d", chains(nilEng), chains(regEng))
	}
}

// sameCounts fails unless a and b hold the same counters and gauges with
// the same values, and the same histograms with the same counts.
func sameCounts(t *testing.T, what string, a, b obs.Snapshot, skip map[string]bool) {
	t.Helper()
	for _, pair := range [][2]map[string]int64{{a.Counters, b.Counters}, {a.Gauges, b.Gauges}} {
		for _, dir := range [][2]map[string]int64{pair, {pair[1], pair[0]}} {
			for name, v := range dir[0] {
				if w, ok := dir[1][name]; !skip[name] && (!ok || v != w) {
					t.Errorf("%s %s: %d vs %d (present %v)", what, name, v, w, ok)
				}
			}
		}
	}
	for name, h := range a.Histograms {
		if !skip[name] && b.Histograms[name].Count != h.Count {
			t.Errorf("%s histogram %s: count %d vs %d", what, name, h.Count, b.Histograms[name].Count)
		}
	}
	if len(a.Histograms) != len(b.Histograms) {
		t.Errorf("%s: %d histograms vs %d", what, len(a.Histograms), len(b.Histograms))
	}
}

// TestMetricsCoherentUnderConcurrentExecute hammers the engine from
// executor, snapshot, and reset goroutines at once: under -race this shakes
// out torn cross-source reads, and the final quiescent snapshot must balance
// exactly.
func TestMetricsCoherentUnderConcurrentExecute(t *testing.T) {
	eng, _ := obsEng(t, nil)
	const writers, opsPer = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				id := op.ObjectID(fmt.Sprintf("o%d-%d", w, i))
				if err := eng.Execute(op.NewCreate(id, []byte("v"))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Each Metrics() view is one coherent cut: ops land on the WAL
			// and the cache inside the same engine critical section, so the
			// two sources can never disagree within a snapshot.
			m := eng.Metrics()
			if ops, recs := m.Counters["cache.ops_executed"], m.Counters["wal.records.op"]; ops != recs {
				t.Errorf("torn snapshot: cache.ops_executed=%d wal.records.op=%d", ops, recs)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	snaps.Wait()
	m := eng.Metrics()
	if m.Counters["cache.ops_executed"] != writers*opsPer {
		t.Errorf("cache.ops_executed = %d, want %d", m.Counters["cache.ops_executed"], writers*opsPer)
	}
	if got := m.Counters["wal.records.op"]; got != writers*opsPer {
		t.Errorf("wal.records.op = %d, want %d", got, writers*opsPer)
	}
}

// TestRecoveryTraceSpans drives a workload, crashes, recovers with parallel
// redo, and checks the tracer captured the pipeline: restart and analysis on
// the recovery lane, the partition phase, and per-worker chain spans.
func TestRecoveryTraceSpans(t *testing.T) {
	tracer := obs.NewTracer()
	opts := DefaultOptions()
	opts.Obs = obs.NewRegistry()
	opts.Tracer = tracer
	opts.RedoWorkers = 4
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id := op.ObjectID(fmt.Sprintf("x%d", i%8))
		if err := eng.Execute(op.NewCreate(id, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}

	evs := tracer.Events()
	spans := map[string]int{}
	lanes := map[string]bool{}
	for _, ev := range evs {
		spans[ev.Name]++
		lanes[ev.Lane] = true
	}
	for _, want := range []string{"restart", "analysis", "redo-scan", "redo-partition", "chain"} {
		if spans[want] == 0 {
			t.Errorf("missing %q span; got %v", want, spans)
		}
	}
	if !lanes["recovery"] {
		t.Errorf("missing recovery lane; lanes = %v", lanes)
	}
	workerLanes := 0
	for name := range lanes {
		if strings.HasPrefix(name, "redo-worker-") {
			workerLanes++
		}
	}
	if workerLanes == 0 {
		t.Errorf("no per-worker lanes; lanes = %v", lanes)
	}
	// The partitioner's metrics landed in the registry.
	m := eng.Metrics()
	if m.Gauges["recovery.redo.chains"] == 0 {
		t.Errorf("recovery.redo.chains gauge = %d", m.Gauges["recovery.redo.chains"])
	}
	if m.Histograms["recovery.redo.chain_ops"].Count == 0 {
		t.Error("recovery.redo.chain_ops histogram empty")
	}
}
