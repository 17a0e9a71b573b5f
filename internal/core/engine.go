// Package core wires the recovery system together: the write-ahead log, the
// stable store, the cache manager with its write graph, and crash recovery.
// It is the engine beneath the public logicallog API and the harness the
// experiments and simulations drive.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"logicallog/internal/cache"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

// Options configures an Engine.
type Options struct {
	// Policy selects the write graph: writegraph.PolicyRW (the paper) or
	// writegraph.PolicyW (the [8] baseline).
	Policy writegraph.Policy
	// Strategy selects the multi-object flush mechanism.
	Strategy cache.FlushStrategy
	// RedoTest selects the REDO predicate used by Recover.
	RedoTest recovery.RedoTest
	// LogInstalls enables installation/flush records (Section 5); on by
	// default in DefaultOptions.
	LogInstalls bool
	// Physiological, when set, converts every executed operation into
	// physical/physiological form before logging: data values read from
	// other objects are materialized into the log record, exactly the
	// transformation of Figure 1(b).  This is the paper's comparison
	// baseline.
	Physiological bool
	// Registry resolves transformation functions; defaults to a fresh
	// registry with builtins.
	Registry *op.Registry
	// LogDevice backs the write-ahead log; defaults to an in-memory device.
	LogDevice wal.Device
	// InstallTrace, when non-nil, observes every write-graph node install
	// (debug and inspection use only).
	InstallTrace func(view *writegraph.NodeView)
	// RedoWorkers bounds the parallel redo pass's worker pool during
	// Recover.  0 defaults to runtime.GOMAXPROCS(0); 1 forces serial redo.
	RedoWorkers int
	// TransientRetries bounds retries of log forces and stable flushes
	// that fail with a transient (retryable) I/O error, with capped
	// exponential backoff.  0 defaults to 3; negative disables retry.
	TransientRetries int
	// LogStreams sets the WAL's per-lane append stream count (the commit
	// fast lane): appenders contend per stream and the group-commit leader
	// merges streams into LSN order at force time.  0 or 1 selects the
	// single-stream path; the durable byte stream is identical at every
	// stream count.
	LogStreams int
	// AbsorbWrites enables WAL log absorption: a blind full-object write
	// superseded by a later blind write to the same object before either is
	// forced is replaced by a tombstone in the durable log.  Off by default.
	AbsorbWrites bool
	// Obs is the registry every layer counts into (wal.*, stable.*,
	// cache.*, recovery.*, and the latency histograms and write-graph
	// gauges); Engine.Metrics() is its snapshot.  Nil gives the engine a
	// private registry: counting is always on.  Share one registry between
	// components (a server, a sender) to read them in one snapshot.
	Obs *obs.Registry
	// Tracer, when non-nil, records phase spans of the recovery pipeline
	// for Chrome/Perfetto trace export and timeline rendering.
	Tracer *obs.Tracer
	// Flight, when non-nil, is the decision flight recorder: every redo
	// decision, absorption supersession/cancel, stream merge, ship batch
	// outcome, and checkpoint/truncation horizon move is recorded (and
	// optionally spilled to a crash-tolerant file) for post-hoc forensics
	// with llinspect -explain / -forensics.  Nil disables it at ~0 cost.
	Flight *flight.Recorder
	// RecordHistory makes the engine keep every executed operation for
	// History, which test oracles replay.  Off by default: the history
	// grows by one entry per operation and carries no recovery duty.
	RecordHistory bool
}

// defaultTransientRetries is the retry budget when Options leaves
// TransientRetries zero.
const defaultTransientRetries = 3

// DefaultOptions returns the paper's recommended configuration: refined
// write graph, identity-write flush breakup, generalized rSI REDO test, and
// installation logging.
func DefaultOptions() Options {
	return Options{
		Policy:      writegraph.PolicyRW,
		Strategy:    cache.StrategyIdentityWrite,
		RedoTest:    recovery.TestRSI,
		LogInstalls: true,
	}
}

// Engine is a recoverable object store with logical logging.  Its exported
// methods are safe for concurrent use: a single mutex serializes them, which
// matches the paper's model (recovery ordering, not latching, is the
// subject).  Concurrency inside Recover is managed by the redo scheduler.
type Engine struct {
	mu    sync.Mutex
	opts  Options
	reg   *op.Registry
	log   *wal.Log
	store *stable.Store
	mgr   *cache.Manager

	// gate, when non-nil, is an on-demand redo drain still in progress
	// (RecoverOnDemand).  Every access path drains the chains it needs
	// before touching the cache; global operations (installs, checkpoints)
	// wait for the full drain.  Cleared once the drain completes cleanly.
	gate *recovery.OnDemand

	// history keeps every executed operation when Options.RecordHistory
	// is set; it is volatile and carries no recovery responsibility.
	history []*op.Operation
}

// New builds an engine from options.
func New(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.LogDevice == nil {
		opts.LogDevice = wal.NewMemDevice()
	}
	log, err := wal.New(opts.LogDevice)
	if err != nil {
		return nil, err
	}
	e := newEngine(opts, log, stable.NewStore())
	e.mgr, err = cache.NewManager(e.cacheConfig(), log, e.store)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Adopt builds an engine over an existing log and stable store by running
// full crash recovery on them — the failover path of a warm standby (see
// internal/ship): the standby's mirrored log and store are exactly a crashed
// primary's, so promotion is ordinary recovery followed by normal operation.
// The options' Registry must resolve every operation kind in the log.  The
// recovery result is returned alongside the engine; the engine's history
// starts empty (it never saw the operations execute).
func Adopt(opts Options, log *wal.Log, store *stable.Store) (*Engine, *recovery.Result, error) {
	e := newEngine(opts.withDefaults(), log, store)
	res, err := recovery.Recover(log, store, e.recoveryOptions())
	if err != nil {
		return nil, nil, err
	}
	e.mgr = res.Manager
	return e, res, nil
}

// withDefaults fills the options New and Adopt leave to the engine.
func (opts Options) withDefaults() Options {
	if opts.Registry == nil {
		opts.Registry = op.NewRegistry()
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	switch {
	case opts.TransientRetries == 0:
		opts.TransientRetries = defaultTransientRetries
	case opts.TransientRetries < 0:
		opts.TransientRetries = 0
	}
	return opts
}

// newEngine configures log and store per opts and wraps them, without a
// cache manager.
func newEngine(opts Options, log *wal.Log, store *stable.Store) *Engine {
	log.SetRetryPolicy(opts.TransientRetries, 20*time.Microsecond, 500*time.Microsecond)
	log.SetObs(opts.Obs)
	log.SetFlight(opts.Flight)
	log.SetStreams(opts.LogStreams, opts.AbsorbWrites)
	store.SetObs(opts.Obs)
	return &Engine{opts: opts, reg: opts.Registry, log: log, store: store}
}

func (e *Engine) recoveryOptions() recovery.Options {
	return recovery.Options{
		Test:        e.opts.RedoTest,
		Cache:       e.cacheConfig(),
		RedoWorkers: e.opts.RedoWorkers,
		Tracer:      e.opts.Tracer,
		Obs:         e.opts.Obs,
		Flight:      e.opts.Flight,
	}
}

func (e *Engine) cacheConfig() cache.Config {
	return cache.Config{
		Policy:           e.opts.Policy,
		Strategy:         e.opts.Strategy,
		LogInstalls:      e.opts.LogInstalls,
		Registry:         e.reg,
		InstallTrace:     e.opts.InstallTrace,
		TransientRetries: e.opts.TransientRetries,
		Obs:              e.opts.Obs,
	}
}

// Registry returns the engine's function registry (substrates register
// their transformations on it).
func (e *Engine) Registry() *op.Registry { return e.reg }

// Log exposes the write-ahead log (statistics, inspection).
func (e *Engine) Log() *wal.Log { return e.log }

// Store exposes the stable store (statistics, snapshots).
func (e *Engine) Store() *stable.Store { return e.store }

// Cache exposes the cache manager.
func (e *Engine) Cache() *cache.Manager { return e.mgr }

// History returns the operations executed since engine creation (volatile;
// survives nothing — test oracle only).  It panics unless the engine was
// built with Options.RecordHistory: an oracle replaying a history that was
// never recorded would check nothing.
func (e *Engine) History() []*op.Operation {
	if !e.opts.RecordHistory {
		panic("core: History needs Options.RecordHistory")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.history
}

// gateFor returns the active on-demand drain, or nil when none is running.
// Callers hold e.mu.  A cleanly completed drain is retired here so the
// fast path (Done) is consulted at most once after completion.
func (e *Engine) gateFor() *recovery.OnDemand {
	if e.gate == nil {
		return nil
	}
	if e.gate.Done() {
		e.gate = nil
		return nil
	}
	return e.gate
}

// gateRead drains the chains a read of ids needs (no-op when no on-demand
// drain is running).  Callers hold e.mu; the drain's background workers
// never take it, so blocking here cannot deadlock.
func (e *Engine) gateRead(ids ...op.ObjectID) error {
	if g := e.gateFor(); g != nil {
		return g.RequireRead(ids...)
	}
	return nil
}

// gateOp drains the chains executing o needs.
func (e *Engine) gateOp(o *op.Operation) error {
	if g := e.gateFor(); g != nil {
		return g.RequireOp(o)
	}
	return nil
}

// gateRange drains every chain writing an object id in [lo, hi).
func (e *Engine) gateRange(lo, hi op.ObjectID) error {
	if g := e.gateFor(); g != nil {
		return g.RequireRange(lo, hi)
	}
	return nil
}

// drainGate completes the on-demand drain, if one is running.  Operations
// with whole-cache footprints (installs, checkpoints, horizon computations)
// call this: they are only correct against fully recovered state.
func (e *Engine) drainGate() error {
	g := e.gateFor()
	if g == nil {
		return nil
	}
	_, err := g.Wait()
	if err == nil {
		e.gate = nil
	}
	return err
}

// Execute runs one operation through the engine.  Under the Physiological
// option the operation is first lowered to the Figure 1(b) form.
func (e *Engine) Execute(o *op.Operation) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Gate before lowering: lowering reads the operation's read set from
	// the cache, which must already hold recovered values.
	if err := e.gateOp(o); err != nil {
		return err
	}
	if e.opts.Physiological {
		lowered, err := e.lowerPhysiological(o)
		if err != nil {
			return err
		}
		o = lowered
	}
	if err := e.mgr.Execute(o); err != nil {
		return err
	}
	if e.opts.RecordHistory {
		e.history = append(e.history, o)
	}
	return nil
}

// lowerPhysiological converts a logical operation into physical form by
// materializing its outputs: the engine computes the operation's writes now
// and logs them as values.  Physiological single-object self-transforms
// (Ex, W_PL) pass through unchanged — they are already Figure 1(b) legal.
func (e *Engine) lowerPhysiological(o *op.Operation) (*op.Operation, error) {
	switch o.Kind {
	case op.KindExecute, op.KindPhysioWrite, op.KindPhysicalWrite,
		op.KindIdentityWrite, op.KindCreate, op.KindDelete:
		return o, nil
	}
	// Compute the writes against current state and log them physically.
	reads := make(map[op.ObjectID][]byte, len(o.ReadSet))
	for _, x := range o.ReadSet {
		v, err := e.mgr.Get(x)
		if err != nil {
			return nil, fmt.Errorf("core: lowering %s: %w", o, err)
		}
		reads[x] = v
	}
	writes, err := e.reg.Apply(o, reads)
	if err != nil {
		return nil, err
	}
	lowered := &op.Operation{
		Kind:     op.KindPhysicalWrite,
		WriteSet: append([]op.ObjectID(nil), o.WriteSet...),
		Values:   writes,
	}
	return lowered, nil
}

// Get returns the current value of x.
func (e *Engine) Get(x op.ObjectID) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.gateRead(x); err != nil {
		return nil, err
	}
	return e.mgr.Get(x)
}

// Objects returns, sorted, the ids of every live object with id in [lo, hi)
// (hi == "" means unbounded): the stable store's population overlaid with
// the cache — a cached creation appears, a cached deletion disappears.
// During an on-demand drain the range's writer chains are drained first, so
// the enumeration matches what a full-redo restart would list.
func (e *Engine) Objects(lo, hi op.ObjectID) ([]op.ObjectID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.gateRange(lo, hi); err != nil {
		return nil, err
	}
	live := make(map[op.ObjectID]bool)
	for _, x := range e.store.IDsIn(lo, hi) {
		live[x] = true
	}
	e.mgr.RangeLive(lo, hi, func(x op.ObjectID, exists bool) bool {
		live[x] = exists
		return true
	})
	ids := make([]op.ObjectID, 0, len(live))
	for x, ok := range live {
		if ok {
			ids = append(ids, x)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// InstallOne installs one minimal write-graph node (cache pressure).
func (e *Engine) InstallOne() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.drainGate(); err != nil {
		return err
	}
	_, err := e.mgr.InstallMinimal()
	if err == cache.ErrNothingToInstall {
		return nil
	}
	return err
}

// FlushAll installs every uninstalled operation (full purge).
func (e *Engine) FlushAll() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.drainGate(); err != nil {
		return err
	}
	return e.mgr.PurgeAll()
}

// Checkpoint writes a checkpoint record and truncates the log.  The same
// steps as cache.CheckpointAndTruncate, inlined so the flight recorder
// sees both horizon moves: the checkpoint landing and the truncation
// point the dirty table then justifies.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.drainGate(); err != nil {
		return err
	}
	lsn, err := e.mgr.Checkpoint()
	if err != nil {
		return err
	}
	if e.opts.Flight != nil {
		e.opts.Flight.Checkpoint(lsn, int64(len(e.mgr.DirtyTable())))
	}
	tp := e.mgr.TruncationPoint(lsn)
	if err := e.log.Truncate(tp); err != nil {
		return err
	}
	e.opts.Flight.Truncate(tp)
	return nil
}

// CheckpointOnly writes (and forces) a checkpoint record without truncating
// the log.  The crash-schedule explorer uses it so its oracle can still
// replay the full durable history from the run's initial snapshot.
func (e *Engine) CheckpointOnly() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.drainGate(); err != nil {
		return err
	}
	lsn, err := e.mgr.Checkpoint()
	if err != nil {
		return err
	}
	if e.opts.Flight != nil {
		e.opts.Flight.Checkpoint(lsn, int64(len(e.mgr.DirtyTable())))
	}
	return nil
}

// Crash simulates a crash: the unforced log tail, the cache, and the write
// graph are lost; the stable log and stable store survive.
func (e *Engine) Crash() {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Stop any on-demand drain first: its background workers mutate the
	// cache manager being discarded, and the volatile state is lost anyway.
	if e.gate != nil {
		e.gate.Abort()
		e.gate = nil
	}
	e.log.Crash()
	e.mgr.Crash()
}

// Recover runs crash recovery and resumes normal operation on the recovered
// volatile state.  It returns the recovery statistics.
func (e *Engine) Recover() (*recovery.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gate != nil {
		e.gate.Abort()
		e.gate = nil
	}
	res, err := recovery.Recover(e.log, e.store, e.recoveryOptions())
	if err != nil {
		return nil, err
	}
	e.mgr = res.Manager
	return res, nil
}

// RecoverOnDemand starts instant recovery: analysis runs now, the redo
// suffix is partitioned into dependency chains, background workers begin
// draining them, and the engine resumes serving immediately — every access
// path first drains exactly the chains its objects need (Require* gating),
// so each request observes the same state a completed full redo would have
// produced.  The returned scheduler exposes drain progress (ChainCounts,
// Done) and completion (Wait); the engine clears the gate itself once the
// drain finishes cleanly.
func (e *Engine) RecoverOnDemand() (*recovery.OnDemand, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gate != nil {
		e.gate.Abort()
		e.gate = nil
	}
	od, err := recovery.StartOnDemand(e.log, e.store, e.recoveryOptions())
	if err != nil {
		return nil, err
	}
	e.mgr = od.Manager()
	e.gate = od
	return od, nil
}

// RecoveryHorizon returns the earliest log LSN a recovery of the engine's
// current stable state could need: the minimum rSI over dirty objects,
// bounded by the first unforced LSN.  A backup image or freshly bootstrapped
// standby that starts replay here misses nothing (internal/backup,
// internal/ship use this as their replay origin).
func (e *Engine) RecoveryHorizon() (op.SI, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.drainGate(); err != nil {
		return 0, err
	}
	return e.mgr.TruncationPoint(e.log.StableLSN() + 1), nil
}

// Metrics returns the engine's counters, gauges, and histograms: the obs
// registry's snapshot (see Options.Obs) plus the flight recorder's
// counters.  The snapshot is taken under e.mu, and every engine mutator
// holds e.mu, so the layers' counters are read at one quiescent point with
// no torn cross-layer reads.
func (e *Engine) Metrics() obs.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.opts.Obs.Snapshot()
	if e.opts.Flight != nil {
		events, drops, spilled := e.opts.Flight.Counters()
		s.Counters["flight.events"] = events
		s.Counters["flight.ring_drops"] = drops
		s.Counters["flight.spill_bytes"] = spilled
	}
	return s
}

// ResetStats zeroes the engine's registry under the engine mutex, so
// benchmark phases start from a consistent all-zero cut with no mutator
// racing the reset.
func (e *Engine) ResetStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.opts.Obs.Reset()
}
