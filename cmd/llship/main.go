// Command llship demonstrates the replication subsystem end to end: a
// primary runs a mixed logical workload while a sender continuously ships
// its log to a warm standby; mid-run a second standby is bootstrapped from
// a fuzzy backup and catches up from the backup's StartLSN; the wire can be
// fault-injected; finally the primary crashes and both standbys are
// promoted and verified against the primary's execution history.
//
// Usage:
//
//	llship [-steps N] [-seed S] [-batch R] [-bootstrap-at STEP]
//	       [-faults token] [-vsi] [-metrics]
//
// Example fault tokens (see internal/fault): "ship@4:drop",
// "ship@2:dup+ship@9:reorder=0", "ship@7:eio".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"logicallog/internal/backup"
	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/obs"
	"logicallog/internal/recovery"
	"logicallog/internal/ship"
	"logicallog/internal/sim"
)

func main() {
	steps := flag.Int("steps", 300, "workload steps before the primary crash")
	seed := flag.Int64("seed", 1, "workload seed")
	batch := flag.Int("batch", 16, "ship batch size in records")
	bootstrapAt := flag.Int("bootstrap-at", 150, "step at which the second standby bootstraps from a fuzzy backup (0 = never)")
	faults := flag.String("faults", "", `ship fault plan token, e.g. "ship@4:drop+ship@9:reorder=0"`)
	vsi := flag.Bool("vsi", false, "use the classic vSI REDO test instead of generalized rSIs")
	metrics := flag.Bool("metrics", false, "print the promoted standby's metrics snapshot and span timeline")
	flag.Parse()

	points, err := fault.ParseToken(*faults)
	if err != nil {
		fatal(err)
	}
	plan := fault.NewPlan(points...)

	var (
		reg    *obs.Registry
		tracer *obs.Tracer
	)
	if *metrics {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer()
	}

	opts := core.DefaultOptions()
	opts.Obs = reg
	opts.Tracer = tracer
	opts.RecordHistory = true // the promotion oracle replays the primary's history
	if *vsi {
		opts.RedoTest = recovery.TestVSI
	}
	eng, err := core.New(opts)
	if err != nil {
		fatal(err)
	}

	// Warm standby from the very first record; its link carries the fault
	// plan.  Each standby counts into its own registry.
	sbOpts := opts
	sbOpts.Obs = nil
	sbA, err := ship.NewStandby(ship.StandbyConfig{Opts: sbOpts, TruncateOnCheckpoint: opts.LogInstalls})
	if err != nil {
		fatal(err)
	}
	linkA := ship.NewLink(sbA, plan)
	sendA := ship.NewSender(eng.Log(), linkA, 1, ship.SenderConfig{BatchRecords: *batch, Obs: reg, Tracer: tracer})
	defer sendA.Close()

	var (
		sbB   *ship.Standby
		sendB *ship.Sender
	)
	sc := sim.DefaultScenario(*seed)
	sc.Steps = *steps
	sc.StepHook = func(step int) error {
		if err := sendA.PumpAll(); err != nil {
			return err
		}
		if sendB != nil {
			if err := sendB.PumpAll(); err != nil {
				return err
			}
		}
		if *bootstrapAt > 0 && step == *bootstrapAt {
			// Fuzzy backup while the workload keeps running, then a second
			// standby whose replay starts at the backup's horizon.
			b, err := backup.Take(eng, nil)
			if err != nil {
				return err
			}
			sbB, err = ship.Bootstrap(ship.StandbyConfig{Opts: sbOpts, TruncateOnCheckpoint: opts.LogInstalls}, b)
			if err != nil {
				return err
			}
			sendB = ship.NewSender(eng.Log(), ship.NewLink(sbB, nil), b.StartLSN, ship.SenderConfig{BatchRecords: *batch, Obs: reg, Tracer: tracer})
			fmt.Printf("step %d: standby B bootstrapped from fuzzy backup (%d objects, replay from LSN %d)\n",
				step, len(b.Objects), b.StartLSN)
		}
		return nil
	}

	fmt.Printf("running %d-step workload (seed %d), shipping %d-record batches...\n", sc.Steps, sc.Seed, *batch)
	if err := sim.DriveWorkload(eng, sc); err != nil {
		fatal(err)
	}
	if sendB != nil {
		defer sendB.Close()
	}
	if err := eng.Log().Force(); err != nil {
		fatal(err)
	}
	for _, s := range senders(sendA, sendB) {
		if err := s.Sync(); err != nil {
			fatal(err)
		}
	}
	lagLSN, lagRec := sendA.Lag()
	fmt.Printf("primary durable LSN %d; standby A applied %d (lag %d LSNs / %d records, %d resyncs)\n",
		eng.Log().StableLSN(), sbA.Applied(), lagLSN, lagRec, sendA.Resyncs())
	if fired := plan.Fired(); len(fired) > 0 {
		fmt.Printf("  wire faults fired: %d (repro token: %s)\n", len(fired), plan.Token())
	}
	stA := sbA.Metrics().Counters
	fmt.Printf("  standby A: %d batches, %d applied, %d dups, %d gaps, %d installs mirrored\n",
		stA["ship.batches"], stA["ship.applied_ops"], stA["ship.dups"], stA["ship.gaps"], stA["ship.installs_mirrored"])
	if sbB != nil {
		fmt.Printf("  standby B: applied %d (bootstrapped mid-run)\n", sbB.Applied())
	}

	hist := eng.History()
	fmt.Printf("crashing the primary...\n")
	eng.Crash()

	for _, cand := range []struct {
		name string
		sb   *ship.Standby
	}{{"A", sbA}, {"B", sbB}} {
		name, sb := cand.name, cand.sb
		if sb == nil {
			continue
		}
		horizon := sb.Applied()
		start := time.Now()
		promoted, res, err := sb.Promote()
		if err != nil {
			fatal(fmt.Errorf("promote %s: %w", name, err))
		}
		fmt.Printf("promoted standby %s in %s: scanned %d ops, redone %d, skipped %d installed / %d unexposed\n",
			name, time.Since(start).Round(time.Microsecond), res.ScannedOps, res.Redone,
			res.SkippedInstalled, res.SkippedUnexposed)
		if err := sim.VerifyHistory(promoted.Registry(), hist, promoted, horizon); err != nil {
			fatal(fmt.Errorf("standby %s verification FAILED: %w", name, err))
		}
		fmt.Printf("  verification: %s matches the primary's durable history through LSN %d\n", name, horizon)
		if *metrics && name == "A" {
			fmt.Println("-- metrics (standby A)")
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(promoted.Metrics()); err != nil {
				fatal(err)
			}
			obs.RenderTimeline(os.Stdout, tracer.Events())
		}
	}
}

func senders(a, b *ship.Sender) []*ship.Sender {
	out := []*ship.Sender{a}
	if b != nil {
		out = append(out, b)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "llship: %v\n", err)
	os.Exit(1)
}
