package main

import (
	"bytes"
	"fmt"
	"time"

	"logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/server"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// restartProbe crashes the engine, dropping the unforced log tail as kill
// -9 with the OS cache discarded would.  Then, w.restarts times, it recovers
// a twin cloned from the durable log bytes and stable store with full redo,
// and restarts the engine on demand behind the server under Get load until
// the drain ends.  The drained state must equal the twin's byte for byte,
// with equal redo decisions.  Writes acknowledged in the timed load that
// the twin lacks count as lost.
func restartProbe(w spec, eng *core.Engine, mem *wal.MemDevice, seed int64,
	models [conns]*model, loadRes *recovery.Result, t *tracing, res *roundResult) error {
	eng.Crash()
	logBytes, err := mem.ReadAll()
	if err != nil {
		return err
	}
	snap := eng.Store().Snapshot()
	var (
		oracle      map[string][]byte
		probeModels [conns]*model
		analysis    []float64
	)
	for rep := range w.restarts {
		if rep > 0 {
			eng.Crash()
		}
		twin, tres, err := fullRedoTwin(logBytes, snap, t.on(), res)
		if err != nil {
			return err
		}
		tdom, err := server.OpenBackend(twin, w.backend, false)
		if err != nil {
			return err
		}
		state, err := domainState(tdom)
		if err != nil {
			return err
		}
		if oracle == nil {
			oracle = state
			probeModels = ackedLoss(oracle, models, res)
			if loadRes != nil && !sameDecisions(loadRes, tres) {
				res.checks = append(res.checks, fmt.Sprintf("timed-load redo decisions %s differ from full redo %s",
					decisions(loadRes), decisions(tres)))
			}
		} else if diff := stateDiff(state, oracle); diff != "" {
			res.checks = append(res.checks, "full redo is not repeatable: "+diff)
		}

		var before obs.Snapshot
		if t.on() {
			before = eng.Metrics()
		}
		ores, took, err := onDemandRestart(w, eng, seed, probeModels, t, res)
		if err != nil {
			return err
		}
		analysis = append(analysis, float64(took.Microseconds())/1e3)
		if !sameDecisions(ores, tres) {
			res.checks = append(res.checks, fmt.Sprintf("on-demand redo decisions %s differ from full redo %s",
				decisions(ores), decisions(tres)))
		}
		if t.on() {
			after, twinM := eng.Metrics(), twin.Metrics()
			for _, name := range []string{"redo", "skip_installed", "skip_unexposed", "voided"} {
				n := "recovery.decide." + name
				if d := counterDelta(before, after, n); d != float64(twinM.Counters[n]) {
					res.checks = append(res.checks, fmt.Sprintf("%s: on-demand %v, full redo %d", n, d, twinM.Counters[n]))
				}
			}
			res.layer["recovery.redone_ops"] = float64(tres.Redone)
		}
	}
	if t.on() {
		res.layer["recovery.analysis_ms"] = median(analysis)
		res.layer["recovery.redo_us_per_op"] = 0
		if n := res.layer["recovery.redone_ops"]; n > 0 {
			res.layer["recovery.redo_us_per_op"] = median(seconds(res.fullRedo)) * 1e6 / n
		}
	}
	return nil
}

// fullRedoTwin builds an engine over a copy of the durable image and
// recovers it with full redo, timing the recovery.
func fullRedoTwin(logBytes []byte, snap map[op.ObjectID]stable.Versioned, traced bool, res *roundResult) (*core.Engine, *recovery.Result, error) {
	dev := wal.NewMemDevice()
	if err := dev.Append(logBytes); err != nil {
		return nil, nil, err
	}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
	}
	twin, err := core.New(engineOptions(dev, reg, nil))
	if err != nil {
		return nil, nil, err
	}
	server.RegisterBackends(twin.Registry())
	twin.Store().Restore(snap)
	start := time.Now()
	tres, err := twin.Recover()
	if err != nil {
		return nil, nil, fmt.Errorf("twin recovery: %w", err)
	}
	res.fullRedo = append(res.fullRedo, time.Since(start))
	return twin, tres, nil
}

// ackedLoss counts the timed load's acknowledged writes missing from the
// recovered state, and returns per-connection models of that state for
// the restart's Get load.
func ackedLoss(oracle map[string][]byte, models [conns]*model, res *roundResult) [conns]*model {
	for c := range conns {
		for k := range models[c].written {
			res.ackedWritten++
			if !bytes.Equal(oracle[k], models[c].vals[k]) {
				res.ackedLost++
			}
		}
	}
	var out [conns]*model
	for c := range conns {
		out[c] = newModel()
	}
	for k, v := range oracle {
		if c := owner([]byte(k)); c >= 0 {
			out[c].set(k, v)
		}
	}
	return out
}

// onDemandRestart restarts the crashed engine on demand, serves a Get load
// through the server until the drain ends, and checks the drained state
// against the load's models.  It returns the drain's redo result and how
// long RecoverOnDemand (the analysis) took.
func onDemandRestart(w spec, eng *core.Engine, seed int64, models [conns]*model, t *tracing, res *roundResult) (*recovery.Result, time.Duration, error) {
	getOnly := w
	getOnly.getPct, getOnly.scanPct = 100, 0
	var gens [conns]*generator
	for c := range conns {
		gens[c] = newGenerator(getOnly, seed, c)
	}
	start := time.Now()
	od, err := eng.RecoverOnDemand()
	if err != nil {
		return nil, 0, err
	}
	analysis := time.Since(start)
	dom, err := server.OpenBackend(eng, w.backend, false)
	if err != nil {
		return nil, 0, err
	}
	done, drain := awaitDrain(od, start)
	var probe loadResult
	ld := &loop{gens: gens, models: models, done: done, t: t, phase: "restart"}
	if t.on() {
		ld.td = t.domain("restart")
	}
	serr := ld.serve(dom, od, start, &probe)
	<-done
	if serr != nil {
		return nil, 0, serr
	}
	ores, err := od.Wait()
	if err != nil {
		return nil, 0, fmt.Errorf("on-demand drain: %w", err)
	}
	res.probe.merge(&probe)
	res.drain = append(res.drain, *drain)
	res.firstResp = append(res.firstResp, probe.firstReply)

	got, err := domainState(dom)
	if err != nil {
		return nil, 0, err
	}
	want := make(map[string][]byte)
	for _, m := range models {
		for k, v := range m.vals {
			want[k] = v
		}
	}
	if diff := stateDiff(got, want); diff != "" {
		res.checks = append(res.checks, "on-demand restart diverges from full redo: "+diff)
	}
	return ores, analysis, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
