// Benchmarks regenerating every paper artifact (one Benchmark per
// experiment in DESIGN.md's index).  Run with
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the experiment's headline numbers: log-bytes/op,
// redone-ops/recovery, flush-set sizes, object writes.  cmd/llbench renders
// the same experiments as full tables.
package logicallog

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"logicallog/internal/apprec"
	"logicallog/internal/btree"
	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/fsim"
	"logicallog/internal/harness"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/ship"
	"logicallog/internal/sim"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
	"logicallog/internal/writegraph"
)

func mustEngine(b *testing.B, opts core.Options) *core.Engine {
	b.Helper()
	eng, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkE1LogBytes — Figure 1: log bytes for an A-form + B-form pair,
// logical vs physiological, per object size.
func BenchmarkE1LogBytes(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		for _, physio := range []bool{false, true} {
			name := fmt.Sprintf("size=%s/physio=%v", fmtBytes(size), physio)
			b.Run(name, func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.Physiological = physio
				eng := mustEngine(b, opts)
				v := make([]byte, size)
				if err := eng.Execute(op.NewCreate("X", v)); err != nil {
					b.Fatal(err)
				}
				if err := eng.Execute(op.NewCreate("Y", v)); err != nil {
					b.Fatal(err)
				}
				eng.ResetStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := op.NewLogical(op.FuncXor, op.EncodeParams([]byte("Y"), []byte("X")),
						[]op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"})
					bb := op.NewLogical(op.FuncCopy, []byte("X"),
						[]op.ObjectID{"Y"}, []op.ObjectID{"X"})
					if err := eng.Execute(a); err != nil {
						b.Fatal(err)
					}
					if err := eng.Execute(bb); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				logged := eng.Metrics().Sum("wal.op_payload_bytes.")
				b.ReportMetric(float64(logged)/float64(b.N), "logbytes/pair")
			})
		}
	}
}

// BenchmarkE2Recover — Figure 2 / Theorem 2: a full crash + recover +
// verify cycle per iteration.
func BenchmarkE2Recover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := sim.CrashTest(core.DefaultOptions(), sim.DefaultScenario(int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3FlushSets — Figures 3/7: write-graph maintenance cost and
// resulting flush-set sizes for W vs rW.
func BenchmarkE3FlushSets(b *testing.B) {
	spec := workload.DefaultSpec(33)
	spec.PhysioPct, spec.DeletePct = 0, 0
	spec.LogicalAPct, spec.LogicalBPct = 40, 40
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	stream := workload.WithLSNs(gen.Stream())
	for _, policy := range []writegraph.Policy{writegraph.PolicyW, writegraph.PolicyRW} {
		b.Run(policy.String(), func(b *testing.B) {
			var maxSet int
			for i := 0; i < b.N; i++ {
				wg := writegraph.New(policy)
				for _, o := range stream {
					if _, err := wg.AddOp(o.Clone()); err != nil {
						b.Fatal(err)
					}
				}
				for _, s := range wg.FlushSetSizes() {
					if s > maxSet {
						maxSet = s
					}
				}
			}
			b.ReportMetric(float64(maxSet), "max-flush-set")
		})
	}
}

// BenchmarkE4Refinement — Figure 5 / Section 4 examples through both
// graphs, per iteration.
func BenchmarkE4Refinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, policy := range []writegraph.Policy{writegraph.PolicyW, writegraph.PolicyRW} {
			wg := writegraph.New(policy)
			ops := []*op.Operation{
				op.NewLogical(op.FuncXor, op.EncodeParams([]byte("Y"), []byte("X")),
					[]op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"}),
				op.NewLogical(op.FuncCopy, []byte("X"), []op.ObjectID{"Y"}, []op.ObjectID{"X"}),
				op.NewPhysioWrite("Y", op.FuncAppend, []byte{1}),
			}
			for j, o := range ops {
				o.LSN = op.SI(j + 1)
				if _, err := wg.AddOp(o); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkE5IdentityVsFlushTxn — Section 4: installing a k-object atomic
// flush set under each mechanism.
func BenchmarkE5IdentityVsFlushTxn(b *testing.B) {
	for _, k := range []int{2, 8} {
		for _, strat := range []cache.FlushStrategy{cache.StrategyIdentityWrite, cache.StrategyFlushTxn, cache.StrategyShadow} {
			b.Run(fmt.Sprintf("k=%d/%s", k, strat), func(b *testing.B) {
				var objWrites int64
				for i := 0; i < b.N; i++ {
					opts := core.DefaultOptions()
					opts.Strategy = strat
					eng := mustEngine(b, opts)
					if err := buildRing(eng, k, 4096); err != nil {
						b.Fatal(err)
					}
					eng.ResetStats()
					if err := eng.FlushAll(); err != nil {
						b.Fatal(err)
					}
					objWrites += eng.Metrics().Counters["stable.object_writes"]
				}
				b.ReportMetric(float64(objWrites)/float64(b.N), "objwrites/install")
			})
		}
	}
}

func buildRing(eng *core.Engine, k, valSize int) error {
	ids := make([]op.ObjectID, k)
	v := make([]byte, valSize)
	for i := range ids {
		ids[i] = op.ObjectID(fmt.Sprintf("s%02d", i))
		if err := eng.Execute(op.NewCreate(ids[i], v)); err != nil {
			return err
		}
	}
	if err := eng.FlushAll(); err != nil {
		return err
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < k; i++ {
			x, y := ids[i], ids[(i+1)%k]
			o := op.NewLogical(op.FuncXor, op.EncodeParams([]byte(y), []byte(x)),
				[]op.ObjectID{x, y}, []op.ObjectID{y})
			if err := eng.Execute(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// BenchmarkE6RedoTests — Section 5: recovery under the vSI vs generalized
// rSI REDO tests; the metric is operations re-executed per recovery.
func BenchmarkE6RedoTests(b *testing.B) {
	for _, test := range []recovery.RedoTest{recovery.TestVSI, recovery.TestRSI} {
		b.Run(test.String(), func(b *testing.B) {
			var redone int64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.RedoTest = test
				eng := mustEngine(b, opts)
				spec := workload.DefaultSpec(77)
				spec.LogicalAPct, spec.LogicalBPct, spec.PhysioPct, spec.DeletePct = 25, 25, 10, 30
				gen, err := workload.NewGenerator(spec)
				if err != nil {
					b.Fatal(err)
				}
				for j, o := range gen.Stream() {
					if err := eng.Execute(o); err != nil {
						b.Fatal(err)
					}
					if j%9 == 0 {
						if err := eng.InstallOne(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := eng.Log().Force(); err != nil {
					b.Fatal(err)
				}
				eng.Crash()
				res, err := eng.Recover()
				if err != nil {
					b.Fatal(err)
				}
				redone += int64(res.Redone)
			}
			b.ReportMetric(float64(redone)/float64(b.N), "redone/recovery")
		})
	}
}

// BenchmarkE7AppRecovery — Table 1 / application recovery: one
// read+exec+write round, logical W_L vs physical W_P vs physiological.
func BenchmarkE7AppRecovery(b *testing.B) {
	const bufSize = 64 << 10
	variants := []struct {
		name   string
		physio bool
		physW  bool
	}{
		{"W_L-logical", false, false},
		{"W_P-physical", false, true},
		{"physiological", true, false},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Physiological = v.physio
			eng := mustEngine(b, opts)
			apprec.Register(eng.Registry())
			if err := eng.Execute(op.NewCreate("input", make([]byte, bufSize))); err != nil {
				b.Fatal(err)
			}
			app, err := apprec.Launch(eng, "app")
			if err != nil {
				b.Fatal(err)
			}
			eng.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := app.Read("input"); err != nil {
					b.Fatal(err)
				}
				if err := app.Step([]byte{byte(i)}); err != nil {
					b.Fatal(err)
				}
				target := op.ObjectID(fmt.Sprintf("out%d", i))
				if v.physW {
					err = app.WritePhysical(target)
				} else {
					err = app.Write(target)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Metrics().Sum("wal.op_payload_bytes."))/float64(b.N), "logbytes/round")
		})
	}
}

// BenchmarkE8FileOps — file-system domain: logical vs physiological copy of
// a 256 KiB file.
func BenchmarkE8FileOps(b *testing.B) {
	const size = 256 << 10
	for _, physical := range []bool{false, true} {
		name := "logical"
		if physical {
			name = "physiological"
		}
		b.Run(name, func(b *testing.B) {
			eng := mustEngine(b, core.DefaultOptions())
			fsim.Register(eng.Registry())
			fs := fsim.New(eng, "fs")
			if err := fs.Create("src", make([]byte, size)); err != nil {
				b.Fatal(err)
			}
			eng.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := fmt.Sprintf("copy%d", i)
				var err error
				if physical {
					err = fs.CopyPhysical(dst, "src")
				} else {
					err = fs.Copy(dst, "src")
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Metrics().Sum("wal.op_payload_bytes."))/float64(b.N), "logbytes/copy")
		})
	}
}

// BenchmarkE9BtreeSplit — database domain: bulk inserts with logical vs
// physiological splits.
func BenchmarkE9BtreeSplit(b *testing.B) {
	for _, physio := range []bool{false, true} {
		name := "logical-split"
		if physio {
			name = "physiological-split"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Physiological = physio
			var logBytes int64
			inserts := 0
			for i := 0; i < b.N; i++ {
				eng := mustEngine(b, opts)
				btree.Register(eng.Registry())
				tree, err := btree.New(eng, "t", 16)
				if err != nil {
					b.Fatal(err)
				}
				eng.ResetStats()
				val := make([]byte, 1024)
				for j := 0; j < 128; j++ {
					if err := tree.Insert([]byte(fmt.Sprintf("key%06d", j)), val); err != nil {
						b.Fatal(err)
					}
					inserts++
				}
				logBytes += eng.Metrics().Sum("wal.op_payload_bytes.")
			}
			b.ReportMetric(float64(logBytes)/float64(inserts), "logbytes/insert")
		})
	}
}

// BenchmarkE10ScanLength — Section 5: recovery after a checkpointed
// workload; the metric is redo-scan length.
func BenchmarkE10ScanLength(b *testing.B) {
	for _, interval := range []int{0, 25} {
		name := "nocheckpoint"
		if interval > 0 {
			name = fmt.Sprintf("checkpoint-every-%d", interval)
		}
		b.Run(name, func(b *testing.B) {
			var scanned int64
			for i := 0; i < b.N; i++ {
				eng := mustEngine(b, core.DefaultOptions())
				gen, err := workload.NewGenerator(workload.DefaultSpec(55))
				if err != nil {
					b.Fatal(err)
				}
				for j, o := range gen.Stream() {
					if err := eng.Execute(o); err != nil {
						b.Fatal(err)
					}
					if j%7 == 0 {
						if err := eng.InstallOne(); err != nil {
							b.Fatal(err)
						}
					}
					if interval > 0 && j%interval == interval-1 {
						if err := eng.Checkpoint(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := eng.Log().Force(); err != nil {
					b.Fatal(err)
				}
				eng.Crash()
				res, err := eng.Recover()
				if err != nil {
					b.Fatal(err)
				}
				scanned += int64(res.ScannedOps)
			}
			b.ReportMetric(float64(scanned)/float64(b.N), "scanned/recovery")
		})
	}
}

// BenchmarkE11ShipLag — log shipping: a 400-op workload streamed to a warm
// standby one batch per step, then failover.  Headline metrics are peak
// replication lag (records) and promotion time per failover.
func BenchmarkE11ShipLag(b *testing.B) {
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var peakLag, promoteNs int64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				eng := mustEngine(b, opts)
				sb, err := ship.NewStandby(ship.StandbyConfig{Opts: opts})
				if err != nil {
					b.Fatal(err)
				}
				s := ship.NewSender(eng.Log(), ship.NewLink(sb, nil), 1, ship.SenderConfig{BatchRecords: batch})
				gen, err := workload.NewGenerator(workload.DefaultSpec(77))
				if err != nil {
					b.Fatal(err)
				}
				for j, o := range gen.Stream() {
					if err := eng.Execute(o); err != nil {
						b.Fatal(err)
					}
					if j%3 == 2 {
						if err := eng.Log().Force(); err != nil {
							b.Fatal(err)
						}
					}
					if j%11 == 7 {
						if err := eng.InstallOne(); err != nil {
							b.Fatal(err)
						}
					}
					if _, lagRecords := s.Lag(); lagRecords > peakLag {
						peakLag = lagRecords
					}
					if _, err := s.Pump(); err != nil {
						b.Fatal(err)
					}
				}
				if err := eng.Log().Force(); err != nil {
					b.Fatal(err)
				}
				if err := s.Sync(); err != nil {
					b.Fatal(err)
				}
				eng.Crash()
				start := time.Now()
				if _, _, err := sb.Promote(); err != nil {
					b.Fatal(err)
				}
				promoteNs += time.Since(start).Nanoseconds()
				s.Close()
			}
			b.ReportMetric(float64(peakLag), "peaklag-records")
			b.ReportMetric(float64(promoteNs)/float64(b.N)/1e6, "promote-ms")
		})
	}
}

// buildParallelRedoLog appends objects × opsPerObject update operations to
// a fresh forced log (round-robin across objects, so dependency chains
// interleave in log order exactly as concurrent writers would produce them)
// with nothing installed since the baseline versions: recovery must fault
// every object and redo every operation.
func buildParallelRedoLog(b *testing.B, objects, opsPerObject int) *wal.Log {
	b.Helper()
	l, err := wal.New(wal.NewMemDevice())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < opsPerObject; i++ {
		for j := 0; j < objects; j++ {
			x := op.ObjectID(fmt.Sprintf("chain%03d", j))
			if _, err := l.AppendOp(op.NewPhysioWrite(x, op.FuncAppend, []byte{byte(i), byte(j)})); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Force(); err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkE8ParallelRedo — parallel redo scalability: one 10240-operation
// log of 512 independent dependency chains over a disk-backed stable store
// (300µs simulated read latency), recovered with 1/2/4/8 workers.  The win
// parallel redo buys is overlapping the per-chain fault latency; every
// worker count must produce identical Result counters.  Headline metric is
// redoops/sec.
func BenchmarkE8ParallelRedo(b *testing.B) {
	const (
		objects      = 512
		opsPerObject = 20 // 10240 ops total
		valSize      = 256
		readDelay    = 300 * time.Microsecond
	)
	log := buildParallelRedoLog(b, objects, opsPerObject)
	snap := make(map[op.ObjectID]stable.Versioned, objects)
	val := make([]byte, valSize)
	for j := 0; j < objects; j++ {
		snap[op.ObjectID(fmt.Sprintf("chain%03d", j))] = stable.Versioned{Val: val}
	}
	store := stable.NewStore()
	store.Restore(snap) // recovery never writes the store, so one instance serves every run
	store.SetReadDelay(readDelay)
	cfg := cache.Config{
		Policy:      writegraph.PolicyRW,
		Strategy:    cache.StrategyIdentityWrite,
		LogInstalls: true,
		Registry:    op.NewRegistry(),
	}
	recoverObs := func(workers int, reg *obs.Registry, tracer *obs.Tracer, fl *flight.Recorder) *recovery.Result {
		c := cfg
		c.Obs = reg
		res, err := recovery.Recover(log, store, recovery.Options{
			Test:        recovery.TestRSI,
			Cache:       c,
			RedoWorkers: workers,
			Obs:         reg,
			Tracer:      tracer,
			Flight:      fl,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	recoverOnce := func(workers int) *recovery.Result {
		return recoverObs(workers, nil, nil, nil)
	}
	base := recoverOnce(1)
	if base.Redone != objects*opsPerObject {
		b.Fatalf("serial baseline redid %d ops, want %d", base.Redone, objects*opsPerObject)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			res := recoverOnce(workers)
			if res.Redone != base.Redone || res.ScannedOps != base.ScannedOps ||
				res.SkippedInstalled != base.SkippedInstalled ||
				res.SkippedUnexposed != base.SkippedUnexposed || res.Voided != base.Voided {
				b.Fatalf("workers=%d: counters diverged from serial: %+v vs %+v", workers, res, base)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recoverOnce(workers)
			}
			b.ReportMetric(float64(base.ScannedOps)*float64(b.N)/b.Elapsed().Seconds(), "redoops/sec")
		})
	}
	// Fully instrumented variant: metrics registry + span tracer attached.
	// Comparing against workers=8 above measures the observability tax
	// (DESIGN.md budgets it at under 5%); the plain runs measure the
	// disabled cost, which is a nil check per hook.
	b.Run("workers=8/obs", func(b *testing.B) {
		reg := obs.NewRegistry()
		res := recoverObs(8, reg, obs.NewTracer(), nil)
		if res.Redone != base.Redone {
			b.Fatalf("instrumented run redid %d ops, want %d", res.Redone, base.Redone)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recoverObs(8, reg, obs.NewTracer(), nil)
		}
		b.ReportMetric(float64(base.ScannedOps)*float64(b.N)/b.Elapsed().Seconds(), "redoops/sec")
	})
	// Flight-recorder variant: one decision event per scanned op into the
	// lock-free ring (no spill).  Comparing against workers=8 above measures
	// the provenance tax (DESIGN.md budgets it at under 3%); the plain runs
	// already pay the disabled cost, a nil check per decision site.
	b.Run("workers=8/flight", func(b *testing.B) {
		fl := flight.NewRecorder(flight.DefaultRingSize)
		res := recoverObs(8, nil, nil, fl)
		if res.Redone != base.Redone {
			b.Fatalf("flight run redid %d ops, want %d", res.Redone, base.Redone)
		}
		if events, _, _ := fl.Counters(); events == 0 {
			b.Fatal("flight recorder saw no decision events")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recoverObs(8, nil, nil, fl)
		}
		b.ReportMetric(float64(base.ScannedOps)*float64(b.N)/b.Elapsed().Seconds(), "redoops/sec")
	})
}

// BenchmarkE12CommitStreams — E12: the commit-path fast lane.  Eight
// committers drive a write-burst mix (3/4 blind hot-key writes — the
// absorbable slice — and 1/4 cold per-committer writes, group commit every
// 16 appends) against a wal.Log across the lane matrix.  The headline
// comparison is the full fast lane (streams=4, absorption on) against the
// single-lane baseline (streams=1, absorption off): ≥1.5x appends/sec on
// this mix, with elidedB/op > 0 proving absorption fired.  The absorb=false
// rows isolate pure stream scaling, which needs real cores to show — on a
// single-CPU host the fast lane's whole win comes from absorption eliding
// merge and device work, and the stream rows read as noise.
func BenchmarkE12CommitStreams(b *testing.B) {
	const (
		committers = 8
		hotKeys    = 4
		coldKeys   = 64
		valSize    = 256
		forceEvery = 16
	)
	hot := make([]op.ObjectID, hotKeys)
	for i := range hot {
		hot[i] = op.ObjectID(fmt.Sprintf("hot%d", i))
	}
	for _, cfg := range []struct {
		streams int
		absorb  bool
	}{{1, false}, {2, false}, {4, false}, {8, false}, {1, true}, {4, true}, {8, true}} {
		b.Run(fmt.Sprintf("streams=%d/absorb=%v", cfg.streams, cfg.absorb), func(b *testing.B) {
			l, err := wal.New(wal.NewMemDevice())
			if err != nil {
				b.Fatal(err)
			}
			reg := obs.NewRegistry()
			l.SetObs(reg)
			l.SetStreams(cfg.streams, cfg.absorb)
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					cold := make([]op.ObjectID, coldKeys)
					for i := range cold {
						cold[i] = op.ObjectID(fmt.Sprintf("g%d-c%d", c, i))
					}
					val := make([]byte, valSize)
					var last op.SI
					for i := 0; i < b.N; i++ {
						key := hot[(i+c)%hotKeys]
						if i%4 == 3 {
							key = cold[i%coldKeys]
						}
						val[0], val[1] = byte(i), byte(c)
						lsn, err := l.AppendOp(op.NewPhysicalWrite(key, val))
						if err != nil {
							b.Error(err)
							return
						}
						last = lsn
						if i%forceEvery == forceEvery-1 {
							if err := l.ForceThrough(last); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			if err := l.Force(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := reg.Snapshot().Counters
			total := float64(committers) * float64(b.N)
			b.ReportMetric(total/b.Elapsed().Seconds(), "appends/sec")
			b.ReportMetric(float64(st["wal.absorb.bytes_elided"])/total, "elidedB/op")
			b.ReportMetric(float64(st["wal.absorb.hits"])/total, "absorbed-frac")
		})
	}
}

// BenchmarkAblationInstallLogging — A1: redo work with and without install
// records.
func BenchmarkAblationInstallLogging(b *testing.B) {
	for _, logInstalls := range []bool{true, false} {
		b.Run(fmt.Sprintf("installrecords=%v", logInstalls), func(b *testing.B) {
			var redone int64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.LogInstalls = logInstalls
				eng := mustEngine(b, opts)
				gen, err := workload.NewGenerator(workload.DefaultSpec(99))
				if err != nil {
					b.Fatal(err)
				}
				for j, o := range gen.Stream() {
					if err := eng.Execute(o); err != nil {
						b.Fatal(err)
					}
					if j%9 == 0 {
						if err := eng.InstallOne(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := eng.Log().Force(); err != nil {
					b.Fatal(err)
				}
				eng.Crash()
				res, err := eng.Recover()
				if err != nil {
					b.Fatal(err)
				}
				redone += int64(res.Redone)
			}
			b.ReportMetric(float64(redone)/float64(b.N), "redone/recovery")
		})
	}
}

// BenchmarkAblationPolicy — A2: end-to-end engine throughput under W vs rW.
func BenchmarkAblationPolicy(b *testing.B) {
	for _, policy := range []writegraph.Policy{writegraph.PolicyW, writegraph.PolicyRW} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.Policy = policy
				if policy == writegraph.PolicyW {
					opts.Strategy = cache.StrategyShadow
				}
				eng := mustEngine(b, opts)
				gen, err := workload.NewGenerator(workload.DefaultSpec(111))
				if err != nil {
					b.Fatal(err)
				}
				for j, o := range gen.Stream() {
					if err := eng.Execute(o); err != nil {
						b.Fatal(err)
					}
					if j%9 == 0 {
						if err := eng.InstallOne(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := eng.FlushAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTables regenerates every experiment table once per iteration —
// the exact artifact set EXPERIMENTS.md records.
func BenchmarkTables(b *testing.B) {
	for _, exp := range harness.All() {
		if exp.ID == "E2" {
			continue // E2 runs 200 crash tests; benchmarked via BenchmarkE2Recover
		}
		exp := exp
		b.Run(exp.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
