package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/recovery"
	"logicallog/internal/server"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
)

// redoWorkers fixes the background redo pool at the two CPUs the benchmark
// is sized for, so the redo work does not depend on GOMAXPROCS.
const redoWorkers = 2

// maxMismatches bounds the output-check failures kept for the report.
const maxMismatches = 8

// roundResult is everything one round measured.
type roundResult struct {
	setup time.Duration
	load  loadResult // the timed load

	walBytes int64 // log bytes appended during the timed loads
	heapMB   float64

	ackedWritten, ackedLost int

	probe     loadResult // the Get loads served during the restarts
	firstResp []time.Duration
	drain     []time.Duration
	fullRedo  []time.Duration

	checks []string // restarted-state and redo-decision divergences

	layer map[string]float64 // traced rounds only
}

// loadResult is one closed-loop load over all connections.
type loadResult struct {
	lat        [numKinds][]time.Duration // client-seen latency
	self       [numKinds][]time.Duration // latency minus backend time (traced)
	ops        int
	failed     int
	userBytes  int64
	elapsed    time.Duration
	firstReply time.Duration // from the phase start to the first reply
	mismatches []string
}

func (r *loadResult) merge(o *loadResult) {
	for k := range numKinds {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		r.self[k] = append(r.self[k], o.self[k]...)
	}
	r.ops += o.ops
	r.failed += o.failed
	r.userBytes += o.userBytes
	if len(r.mismatches) < maxMismatches {
		r.mismatches = append(r.mismatches, o.mismatches...)
	}
}

func engineOptions(dev wal.Device, reg *obs.Registry, tr *obs.Tracer) core.Options {
	opts := core.DefaultOptions()
	opts.LogDevice = dev
	opts.RedoWorkers = redoWorkers
	opts.Obs = reg
	opts.Tracer = tr
	return opts
}

// tracing bundles a traced round's probes; a nil tr traces nothing.
type tracing struct {
	tr   *obs.Tracer
	reg  *obs.Registry
	dev  *timedDevice
	reqs [conns]atomic.Int64
}

func (t *tracing) on() bool { return t.tr != nil }

// domain returns a backend decorator for one phase's servers.
func (t *tracing) domain(phase string) *timedDomain {
	return &timedDomain{lane: t.tr.Lane(phase + "/backend"), reqs: &t.reqs}
}

// runRound sets up a fresh engine, runs the timed load through the server,
// then crashes and restarts the engine under Get load.  A traced round (tr
// non-nil) also fills res.layer.
func runRound(w spec, im *image, seed int64, tr *obs.Tracer) (*roundResult, error) {
	res := &roundResult{layer: make(map[string]float64)}
	t := &tracing{tr: tr}
	mem := wal.NewMemDevice()
	var dev wal.Device = mem
	if t.on() {
		t.reg = obs.NewRegistry()
		t.dev = &timedDevice{Device: mem, lane: tr.Lane("wal-device")}
		dev = t.dev
	}

	// Set-up: fresh engine, preload, install; a restart workload then
	// writes a durable suffix after a checkpoint and crashes.
	start := time.Now()
	eng, err := core.New(engineOptions(dev, t.reg, tr))
	if err != nil {
		return nil, err
	}
	dom, err := server.OpenBackend(eng, w.backend, true)
	if err != nil {
		return nil, err
	}
	for c := range conns {
		for i, v := range im.preload[c] {
			if err := dom.Put([]byte(key(c, i)), v); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
	}
	m0 := eng.Metrics()
	installStart := time.Now()
	if err := eng.FlushAll(); err != nil {
		return nil, fmt.Errorf("install: %w", err)
	}
	res.layer["setup.install_s"] = time.Since(installStart).Seconds()
	m1 := eng.Metrics()
	res.layer["cache.installs"] = counterDelta(m0, m1, "cache.installs")
	res.layer["cache.identity_writes"] = counterDelta(m0, m1, "cache.identity_writes")
	if w.suffix > 0 {
		if err := eng.CheckpointOnly(); err != nil {
			return nil, err
		}
		for _, s := range im.suffix {
			if err := dom.Put([]byte(key(s.c, s.i)), s.val); err != nil {
				return nil, fmt.Errorf("suffix: %w", err)
			}
		}
		if err := eng.Log().Force(); err != nil {
			return nil, err
		}
		eng.Crash()
	}
	res.setup = time.Since(start)

	// Timed load.  A restart workload repeats it w.loads times, crashing
	// in between: the crash drops the previous load's unforced writes, so
	// every load starts from the same durable image.
	var (
		models     [conns]*model
		bRes       *recovery.Result
		d          = newDeltas()
		devAppends int64
		devNs      int64
	)
	var td *timedDomain
	if t.on() {
		devAppends, devNs = t.dev.appends.Load(), t.dev.ns.Load()
		td = t.domain("load")
	}
	for i := range max(w.loads, 1) {
		if i > 0 {
			eng.Crash()
		}
		models = im.freshModels()
		var gens [conns]*generator
		for c := range conns {
			gens[c] = newGenerator(w, seed, c)
		}
		start := time.Now()
		var od *recovery.OnDemand
		if w.suffix > 0 {
			if od, err = eng.RecoverOnDemand(); err != nil {
				return nil, err
			}
			if dom, err = server.OpenBackend(eng, w.backend, false); err != nil {
				return nil, err
			}
		}
		before := eng.Metrics()
		ld := &loop{gens: gens, models: models, perConn: w.ops / conns, t: t, td: td, phase: "load"}
		if err := ld.serve(dom, od, start, &res.load); err != nil {
			return nil, err
		}
		res.load.elapsed += time.Since(start)
		if od != nil {
			done, _ := awaitDrain(od, start)
			<-done
			if bRes, err = od.Wait(); err != nil {
				return nil, fmt.Errorf("on-demand drain: %w", err)
			}
		}
		d.add(before, eng.Metrics())
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / 1e6
	res.walBytes = d.counters["wal.bytes_appended"]
	if t.on() {
		layerLoad(res, td, eng, d)
		appends := t.dev.appends.Load() - devAppends
		res.layer["wal.device_appends"] = float64(appends)
		res.layer["wal.device_append_us"] = 0
		if appends > 0 {
			res.layer["wal.device_append_us"] = float64(t.dev.ns.Load()-devNs) / float64(appends) / 1e3
		}
	}

	// Restart probe: crash, recover a twin fully, restart the engine on
	// demand under Get load, and hold both to the same state.
	if err := restartProbe(w, eng, mem, seed, models, bRes, t, res); err != nil {
		return nil, err
	}
	return res, nil
}

// layerLoad records the timed load's per-layer numbers.
func layerLoad(res *roundResult, td *timedDomain, eng *core.Engine, d *deltas) {
	l := res.layer
	for k := range numKinds {
		l["server.self_"+k.String()+"_us"] = meanUs(res.load.self[k])
		if n := td.calls[k].Load(); n > 0 {
			l["backend."+k.String()+"_us"] = float64(td.callNs[k].Load()) / float64(n) / 1e3
		} else {
			l["backend."+k.String()+"_us"] = 0
		}
	}
	l["backend.busy_frac"] = float64(td.busyNs.Load()) / float64(res.load.elapsed.Nanoseconds())
	nodes := eng.Cache().WriteGraph().Len()
	l["writegraph.nodes_end"] = float64(nodes)
	l["writegraph.nodes_per_op"] = float64(nodes) / float64(res.load.ops)
	l["wal.forces"] = float64(d.counters["wal.forces"])
	l["wal.append_us"] = d.mean("wal.append.ns") / 1e3
	l["cache.ops_per_request"] = float64(d.counters["cache.ops_executed"]) / float64(res.load.ops)
	l["stable.reads_per_get"] = 0
	if gets := len(res.load.lat[opGet]); gets > 0 {
		l["stable.reads_per_get"] = float64(d.counters["stable.object_reads"]) / float64(gets)
	}
	l["recovery.demand_chains"] = float64(d.counters["recovery.ondemand.demand_chains"])
	l["recovery.background_chains"] = float64(d.counters["recovery.ondemand.background_chains"])
	l["recovery.demand_wait_us"] = d.mean("recovery.ondemand.demand_wait_ns") / 1e3
}

// drainTimeout bounds the wait for an on-demand drain that never ends
// cleanly; Wait then reports why.
const drainTimeout = time.Minute

// awaitDrain returns a channel closed once od's background workers have
// drained every chain, and where the time that took is stored before the
// close.  It polls od.Done every millisecond rather than calling od.Wait,
// which would also replay chains on its own goroutine: a serving process
// leaves the drain to the background workers and calls Wait only after it
// stops serving.
func awaitDrain(od *recovery.OnDemand, start time.Time) (<-chan struct{}, *time.Duration) {
	done := make(chan struct{})
	took := new(time.Duration)
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for !od.Done() && time.Since(start) < drainTimeout {
			<-tick.C
		}
		*took = time.Since(start)
	}()
	return done, took
}

func sameDecisions(a, b *recovery.Result) bool {
	return a.ScannedOps == b.ScannedOps && a.Redone == b.Redone &&
		a.SkippedInstalled == b.SkippedInstalled && a.SkippedUnexposed == b.SkippedUnexposed &&
		a.Voided == b.Voided
}

func decisions(r *recovery.Result) string {
	return fmt.Sprintf("{scanned %d redone %d skipped-installed %d skipped-unexposed %d voided %d}",
		r.ScannedOps, r.Redone, r.SkippedInstalled, r.SkippedUnexposed, r.Voided)
}

// domainState reads a domain's whole contents.
func domainState(d workload.Domain) (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := d.Range(nil, nil, func(k, v []byte) bool {
		out[string(k)] = append([]byte(nil), v...)
		return true
	})
	return out, err
}

// stateDiff describes the first difference between two states ("" if equal).
func stateDiff(got, want map[string][]byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			return "key " + k
		}
	}
	return ""
}

// loop is a closed-loop load: each connection sends its next request only
// after the previous reply arrives.  It stops after perConn requests per
// connection, or, when perConn is 0, at the first request boundary after
// done closes (every connection sends at least one request).
type loop struct {
	gens    [conns]*generator
	models  [conns]*model
	perConn int
	done    <-chan struct{}
	t       *tracing
	td      *timedDomain // traced rounds: decorates the backend
	phase   string
}

// serve opens the server over dom on loopback, runs the loop from one
// client per connection, and shuts the server down.
func (l *loop) serve(dom workload.Domain, od *recovery.OnDemand, phaseStart time.Time, out *loadResult) error {
	backend := dom
	if l.td != nil {
		l.td.Domain = dom
		backend = l.td
	}
	srv, err := server.New(server.Config{Backend: backend, Obs: l.t.reg, Drain: od})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var first atomic.Int64
	results := make([]loadResult, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := range conns {
		cl, err := server.Dial(ln.Addr().String())
		if err != nil {
			errs[c] = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close()
			l.run(c, cl, phaseStart, &first, &results[c])
		}()
	}
	wg.Wait()
	srv.Shutdown(5 * time.Second)
	if err := <-serveErr; err != nil {
		return err
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for c := range conns {
		out.merge(&results[c])
	}
	out.firstReply = time.Duration(first.Load())
	return nil
}

func (l *loop) stop(n int) bool {
	if l.perConn > 0 {
		return n >= l.perConn
	}
	if n == 0 {
		return false
	}
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// run drives connection c and checks every reply against its model.
func (l *loop) run(c int, cl *server.Client, phaseStart time.Time, first *atomic.Int64, out *loadResult) {
	var lane *obs.Lane
	if l.t.on() {
		lane = l.t.tr.Lane(fmt.Sprintf("%s/client-c%d", l.phase, c))
	}
	g, m := l.gens[c], l.models[c]
	for n := 0; !l.stop(n); n++ {
		r := g.next()
		l.t.reqs[c].Store(int64(n))
		sp := lane.Begin("client." + r.kind.String())
		start := time.Now()
		bad := l.do(cl, m, r, out)
		d := time.Since(start)
		if lane != nil {
			sp.Arg("req", reqName(c, int64(n))).Arg("key", r.key).End()
		}
		first.CompareAndSwap(0, int64(time.Since(phaseStart)))
		out.ops++
		out.lat[r.kind] = append(out.lat[r.kind], d)
		if l.td != nil {
			out.self[r.kind] = append(out.self[r.kind], d-time.Duration(l.td.last[c].Load()))
		}
		if bad != "" {
			out.failed++
			if len(out.mismatches) < maxMismatches {
				out.mismatches = append(out.mismatches, fmt.Sprintf("%s c%d req %d %s %s: %s", l.phase, c, n, r.kind, r.key, bad))
			}
		}
	}
}

// do sends one request and checks its reply; it returns "" when the reply
// is correct and a description otherwise.
func (l *loop) do(cl *server.Client, m *model, r request, out *loadResult) string {
	switch r.kind {
	case opGet:
		v, found, err := cl.Get([]byte(r.key))
		if err != nil {
			return err.Error()
		}
		want, ok := m.vals[r.key]
		if found != ok || !bytes.Equal(v, want) {
			return "value differs from the last acknowledged write"
		}
	case opPut:
		if err := cl.Put([]byte(r.key), r.val); err != nil {
			return err.Error()
		}
		m.set(r.key, r.val)
		m.written[r.key] = true
		out.userBytes += int64(len(r.key) + len(r.val))
	case opScan:
		want := m.span(r.key, r.hi)
		i := 0
		bad := ""
		err := cl.Range([]byte(r.key), []byte(r.hi), func(k, v []byte) bool {
			if i >= len(want) || string(k) != want[i] || !bytes.Equal(v, m.vals[want[i]]) {
				bad = "pair " + string(k) + " differs from the model"
				return false
			}
			i++
			return true
		})
		if err != nil {
			return err.Error()
		}
		if bad != "" {
			return bad
		}
		if i != len(want) {
			return fmt.Sprintf("%d pairs, want %d", i, len(want))
		}
	}
	return ""
}

func counterDelta(a, b obs.Snapshot, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

// deltas sums counter and histogram growth over several intervals; a
// crash replaces the cache manager, so its counters restart at each load.
type deltas struct {
	counters map[string]int64
	histSum  map[string]int64
	histN    map[string]int64
}

func newDeltas() *deltas {
	return &deltas{counters: map[string]int64{}, histSum: map[string]int64{}, histN: map[string]int64{}}
}

func (d *deltas) add(a, b obs.Snapshot) {
	for n, v := range b.Counters {
		d.counters[n] += v - a.Counters[n]
	}
	for n, h := range b.Histograms {
		d.histSum[n] += h.Sum - a.Histograms[n].Sum
		d.histN[n] += h.Count - a.Histograms[n].Count
	}
}

// mean is a histogram's mean over the summed intervals (0 when empty).
func (d *deltas) mean(name string) float64 {
	if d.histN[name] == 0 {
		return 0
	}
	return float64(d.histSum[name]) / float64(d.histN[name])
}

func meanUs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum.Microseconds()) / float64(len(ds))
}
