package ship

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"logicallog/internal/backup"
	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// StandbyConfig parameterizes a Standby.
type StandbyConfig struct {
	// Opts is the engine configuration the standby mirrors and, at
	// promotion, comes up as.  It must match the primary's policy, strategy,
	// and REDO test; Registry must resolve every shipped operation kind.
	// Obs/Tracer instrument the apply pipeline and the promoted engine;
	// like an engine, a standby with no Obs counts into a private registry.
	Opts core.Options
	// TruncateOnCheckpoint makes the standby truncate its own log at each
	// shipped checkpoint's redo horizon, as the primary did.  Off, the
	// standby keeps its full log prefix (the crash explorer needs that for
	// its explainability oracle).
	TruncateOnCheckpoint bool
	// InstallTrace, when non-nil, receives the operation LSNs installed by
	// every mirrored install/flush record (the ship explorer's Theorem 3
	// recorder).
	InstallTrace func(lsns []op.SI)
}

// Standby is the receiving side of log shipping: a warm replica that applies
// the primary's records as they arrive — continuous redo — so that at any
// moment its log and stable store are exactly those of a crashed primary,
// and promotion is ordinary recovery.
type Standby struct {
	cfg StandbyConfig

	mu       sync.Mutex
	log      *wal.Log
	store    *stable.Store
	mgr      *cache.Manager
	dot      map[op.ObjectID]op.SI
	origin   op.SI // first LSN ever shipped here (backup StartLSN, or 1)
	want     op.SI // next LSN to apply
	applied  op.SI // highest LSN applied
	down     bool  // crashed, awaiting Restart
	promoted bool

	lane        *obs.Lane
	applyNs     *obs.Histogram
	promotionNs *obs.Histogram
	// batchesC counts delivered batches (probes included); appliedC,
	// skippedInstalledC, skippedUnexposedC, and voidedC count operation
	// records by redo decision; dupsC counts records discarded as already
	// applied, gapsC deliveries that stopped short at a missing LSN, and
	// installsC mirrored install/flush records.
	batchesC          *obs.Counter
	appliedC          *obs.Counter
	skippedInstalledC *obs.Counter
	skippedUnexposedC *obs.Counter
	voidedC           *obs.Counter
	dupsC             *obs.Counter
	gapsC             *obs.Counter
	installsC         *obs.Counter
	promotionsC       *obs.Counter
}

// NewStandby builds an empty standby that expects the stream from LSN 1.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	return newStandby(cfg, 1, nil)
}

// Bootstrap builds a standby from a fuzzy backup image: the image becomes
// its stable store and the stream is expected from the backup's StartLSN.
// Each imaged object's vSI makes the replay skip exactly the operations the
// image already reflects (the vSI witness in recovery.DecideRedo) — the same
// mechanism backup.MediaRecover uses.
func Bootstrap(cfg StandbyConfig, b *backup.Backup) (*Standby, error) {
	if b.StartLSN < 1 {
		return nil, fmt.Errorf("ship: backup has no StartLSN")
	}
	return newStandby(cfg, b.StartLSN, b.Objects)
}

func newStandby(cfg StandbyConfig, origin op.SI, image map[op.ObjectID]stable.Versioned) (*Standby, error) {
	if cfg.TruncateOnCheckpoint && !cfg.Opts.LogInstalls {
		// Without install records the standby never mirrors the primary's
		// installs, so its stable store lags arbitrarily behind the shipped
		// checkpoints' redo horizons — truncating to them would discard
		// records the standby still needs.
		return nil, fmt.Errorf("ship: TruncateOnCheckpoint requires LogInstalls")
	}
	if cfg.Opts.Registry == nil {
		cfg.Opts.Registry = op.NewRegistry()
	}
	if cfg.Opts.LogDevice == nil {
		cfg.Opts.LogDevice = wal.NewMemDevice()
	}
	if cfg.Opts.Obs == nil {
		cfg.Opts.Obs = obs.NewRegistry()
	}
	switch {
	case cfg.Opts.TransientRetries == 0:
		cfg.Opts.TransientRetries = 3
	case cfg.Opts.TransientRetries < 0:
		cfg.Opts.TransientRetries = 0
	}
	log, err := wal.New(cfg.Opts.LogDevice)
	if err != nil {
		return nil, err
	}
	s := &Standby{
		cfg:     cfg,
		log:     log,
		store:   stable.NewStore(),
		dot:     make(map[op.ObjectID]op.SI),
		origin:  origin,
		want:    origin,
		applied: origin - 1,
	}
	s.tuneLog()
	s.store.SetObs(cfg.Opts.Obs)
	if image != nil {
		s.store.Restore(image)
	}
	s.mgr, err = cache.NewManager(s.cacheConfig(), s.log, s.store)
	if err != nil {
		return nil, err
	}
	r := cfg.Opts.Obs
	s.applyNs = r.Histogram("ship.apply.ns")
	s.promotionNs = r.Histogram("ship.promotion.ns")
	s.batchesC = r.Counter("ship.batches")
	s.appliedC = r.Counter("ship.applied_ops")
	s.skippedInstalledC = r.Counter("ship.skipped_installed")
	s.skippedUnexposedC = r.Counter("ship.skipped_unexposed")
	s.voidedC = r.Counter("ship.voided")
	s.dupsC = r.Counter("ship.dups")
	s.gapsC = r.Counter("ship.gaps")
	s.installsC = r.Counter("ship.installs_mirrored")
	s.promotionsC = r.Counter("ship.promotions")
	s.lane = cfg.Opts.Tracer.Lane("ship-standby")
	return s, nil
}

func (s *Standby) tuneLog() {
	s.log.SetRetryPolicy(s.cfg.Opts.TransientRetries, 20*time.Microsecond, 500*time.Microsecond)
	s.log.SetObs(s.cfg.Opts.Obs)
	s.log.SetFlight(s.cfg.Opts.Flight)
}

// flight is the standby's decision flight recorder handle (nil-safe).
func (s *Standby) flight() *flight.Recorder { return s.cfg.Opts.Flight }

func (s *Standby) cacheConfig() cache.Config {
	return cache.Config{
		Policy:           s.cfg.Opts.Policy,
		Strategy:         s.cfg.Opts.Strategy,
		LogInstalls:      s.cfg.Opts.LogInstalls,
		Registry:         s.cfg.Opts.Registry,
		TransientRetries: s.cfg.Opts.TransientRetries,
		Obs:              s.cfg.Opts.Obs,
	}
}

// Log exposes the standby's write-ahead log (a prefix copy of the primary's).
func (s *Standby) Log() *wal.Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log
}

// Store exposes the standby's stable store.
func (s *Standby) Store() *stable.Store { return s.store }

// Want returns the next LSN the standby needs.
func (s *Standby) Want() op.SI {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.want
}

// Applied returns the highest LSN the standby has applied.
func (s *Standby) Applied() op.SI {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Metrics returns a snapshot of the standby's registry (Opts.Obs): its
// ship.* apply counters and its log, store, and cache counters.
func (s *Standby) Metrics() obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Opts.Obs.Snapshot()
}

// Deliver applies one batch: records below the apply horizon are discarded
// as duplicates, a record above it stops the delivery (a gap the ack's Want
// reports), and in-order records run the continuous-redo pipeline.  The
// returned ack always carries the standby's current horizons, so even an
// empty probe batch elicits a useful ack.
func (s *Standby) Deliver(b *Batch) (Ack, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return Ack{Lost: true}, fmt.Errorf("ship: standby is down (crashed; Restart first)")
	}
	if s.promoted {
		return Ack{Lost: true}, fmt.Errorf("ship: standby was promoted; it is a primary now")
	}
	sp := s.lane.Begin("apply-batch").
		Arg("seq", int64(b.Seq)).Arg("count", b.Count).Arg("first", int64(b.FirstLSN))
	defer sp.End()
	s.batchesC.Inc()
	data := b.Frames
	for len(data) > 0 {
		payload, n, err := wal.Unframe(data)
		if err != nil {
			return s.ackLocked(), fmt.Errorf("ship: corrupt frame in batch %d: %w", b.Seq, err)
		}
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			return s.ackLocked(), fmt.Errorf("ship: corrupt record in batch %d: %w", b.Seq, err)
		}
		data = data[n:]
		if rec.LSN < s.want {
			s.dupsC.Inc()
			s.flight().ShipApply(flight.DecDup, rec.LSN, s.want)
			continue
		}
		if rec.LSN > s.want {
			s.gapsC.Inc()
			s.flight().ShipApply(flight.DecGap, rec.LSN, s.want)
			break
		}
		if err := s.applyLocked(rec); err != nil {
			return s.ackLocked(), err
		}
		s.flight().ShipApply(flight.DecAccept, rec.LSN, s.want)
		s.applied = rec.LSN
		s.want = rec.LSN + 1
	}
	return s.ackLocked(), nil
}

func (s *Standby) ackLocked() Ack {
	return Ack{Applied: s.applied, Durable: s.log.StableLSN(), Want: s.want}
}

// applyLocked runs one record through the continuous-redo pipeline: append
// it to the standby's own log (keeping the log a byte-equivalent prefix copy
// of the primary's), fold it into the incremental dirty object table, then
// act by type — operations run the REDO test and trial execution exactly as
// crash recovery would; install/flush records mirror the primary's
// installation schedule against cached standby state; checkpoints force (and
// optionally truncate) the standby log.
func (s *Standby) applyLocked(rec *wal.Record) error {
	var start time.Time
	if s.applyNs.Enabled() {
		start = time.Now()
	}
	if err := s.log.AppendShipped(rec); err != nil {
		return err
	}
	test := s.cfg.Opts.RedoTest
	recovery.UpdateDirtyTable(s.dot, rec, test)
	switch rec.Type {
	case wal.RecOperation:
		ex := recovery.DecideRedoExplain(test, s.mgr, s.dot, rec.Op)
		if !ex.Redo {
			if ex.InstalledWitness {
				s.skippedInstalledC.Inc()
				s.flight().RedoDecision("standby", rec.LSN, flight.DecSkipInstalled, ex.WitnessObject, ex.WitnessVSI)
			} else {
				s.skippedUnexposedC.Inc()
				s.flight().RedoDecision("standby", rec.LSN, flight.DecSkipUnexposed, "", op.NilSI)
			}
			break
		}
		voided, err := s.mgr.TryApplyLogged(rec.Op.Clone())
		if err != nil {
			return fmt.Errorf("ship: apply of %s: %w", rec.Op, err)
		}
		if voided {
			s.voidedC.Inc()
			s.flight().RedoDecision("standby", rec.LSN, flight.DecVoided, ex.DirtyObject, ex.DirtyRSI)
		} else {
			s.appliedC.Inc()
			s.flight().RedoDecision("standby", rec.LSN, flight.DecRedo, ex.DirtyObject, ex.DirtyRSI)
		}
	case wal.RecInstall:
		// WAL protocol: the flush must not outrun the standby's own
		// durable log (the primary forced through these ops' LSNs too).
		if err := s.log.ForceThrough(rec.LSN); err != nil {
			return err
		}
		lsns, err := s.mgr.MirrorInstall(rec.Install)
		if err != nil {
			return err
		}
		s.noteInstall(lsns)
	case wal.RecFlush:
		if err := s.log.ForceThrough(rec.LSN); err != nil {
			return err
		}
		lsns, err := s.mgr.MirrorFlush(rec.Flush)
		if err != nil {
			return err
		}
		s.noteInstall(lsns)
	case wal.RecCheckpoint:
		if err := s.log.ForceThrough(rec.LSN); err != nil {
			return err
		}
		if s.cfg.TruncateOnCheckpoint {
			if err := s.log.Truncate(rec.Checkpoint.RedoStart(rec.LSN)); err != nil {
				return err
			}
		}
	}
	if s.applyNs.Enabled() {
		s.applyNs.Since(start)
	}
	return nil
}

func (s *Standby) noteInstall(lsns []op.SI) {
	s.installsC.Inc()
	if s.cfg.InstallTrace != nil {
		s.cfg.InstallTrace(lsns)
	}
}

// Crash simulates a standby crash: the unforced log tail and all volatile
// apply state are lost; the standby rejects deliveries until Restart.
func (s *Standby) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.Crash()
	s.mgr.Crash()
	s.down = true
}

// Restart recovers a crashed standby over its own log and store — with the
// normal crash-recovery machinery when install records are shipped, or by
// replaying the continuous-apply loop when they are not (see
// replayLogLocked) — rebuilds the incremental dirty table, and re-arms the
// apply horizon at the durable log's end; the sender's next ack-driven
// rewind resends whatever the crash lost.
func (s *Standby) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down {
		return fmt.Errorf("ship: Restart of a standby that is not down")
	}
	// Re-derive the log horizon purely from the device, as a process
	// restart would.  In particular a bootstrapped standby that crashed
	// before forcing anything comes back with an empty, fresh log whose
	// first shipped record re-adopts the stream origin.
	log, err := wal.New(s.cfg.Opts.LogDevice)
	if err != nil {
		return err
	}
	s.log = log
	s.tuneLog()
	if err := s.replayLogLocked(); err != nil {
		return err
	}
	s.want = s.log.StableLSN() + 1
	if s.want < s.origin {
		s.want = s.origin
	}
	s.applied = s.want - 1
	s.down = false
	return nil
}

// replayLogLocked recovers the standby by deterministically re-running the
// continuous-apply loop over the durable log — not by recovery.Recover.  The
// distinction matters for two reasons.  First, a restarted standby must keep
// mirroring the primary's install records, which requires its write graph to
// regrow with exactly the node groupings continuous apply had; an
// analysis/redo pass rebuilds a fresh graph whose groupings can differ.
// Replaying the same record sequence through the same per-record logic is
// deterministic, so the rebuilt state is precisely what the apply loop had
// produced for the durable prefix.  Second, when no install records are
// shipped the standby's store lags the shipped checkpoints' dirty tables
// (they describe the *primary's* stable state), so those checkpoints cannot
// seed an analysis pass — the same reason backup.MediaRecover distrusts
// them.  The vSI witness in DecideRedo makes the replay skip exactly the
// operations the store already reflects, and MirrorInstall/MirrorFlush treat
// the witnessed-away operations as bootstrap skips.
func (s *Standby) replayLogLocked() error {
	mgr, err := cache.NewManager(s.cacheConfig(), s.log, s.store)
	if err != nil {
		return err
	}
	s.mgr = mgr
	s.dot = make(map[op.ObjectID]op.SI)
	sc, err := s.log.Scan(s.log.FirstLSN())
	if err != nil {
		return err
	}
	test := s.cfg.Opts.RedoTest
	for {
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		recovery.UpdateDirtyTable(s.dot, rec, test)
		switch rec.Type {
		case wal.RecOperation:
			if redo, _ := recovery.DecideRedo(test, s.mgr, s.dot, rec.Op); !redo {
				continue
			}
			if _, err := s.mgr.TryApplyLogged(rec.Op.Clone()); err != nil {
				return fmt.Errorf("ship: restart replay of %s: %w", rec.Op, err)
			}
		case wal.RecInstall:
			// Re-flushing is idempotent: a mirrored install flushes the
			// replayed cached value, which replay determinism makes equal to
			// what was flushed before the crash.
			//lint:ignore walorder replaying the standby's own durable log: every record here was forced before it became scannable, so the write-ahead obligation is already discharged
			if _, err := s.mgr.MirrorInstall(rec.Install); err != nil {
				return fmt.Errorf("ship: restart replay of install %d: %w", rec.LSN, err)
			}
		case wal.RecFlush:
			//lint:ignore walorder replaying the standby's own durable log: the flush record is durable, hence so is everything at or below its LSN
			if _, err := s.mgr.MirrorFlush(rec.Flush); err != nil {
				return fmt.Errorf("ship: restart replay of flush %d: %w", rec.LSN, err)
			}
		}
	}
}

// Promote fails the standby over to primary: it forces the applied tail
// durable (the queue has been drained — deliveries are synchronous), runs
// the normal analysis/redo recovery over its own log and store, and returns
// the engine that comes up, ready for normal operation.  The standby stops
// accepting deliveries.
func (s *Standby) Promote() (*core.Engine, *recovery.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, nil, fmt.Errorf("ship: cannot promote a crashed standby; Restart first")
	}
	if s.promoted {
		return nil, nil, fmt.Errorf("ship: standby already promoted")
	}
	lane := s.cfg.Opts.Tracer.Lane("promotion")
	var start time.Time
	if s.promotionNs.Enabled() {
		start = time.Now()
	}
	sp := lane.Begin("force-tail")
	if err := s.log.Force(); err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.End()
	if !s.cfg.Opts.LogInstalls {
		// No install records were shipped, so the shipped checkpoints' redo
		// horizons describe the primary's stable state, not this store.
		// Flushing all cached state first stamps every object's vSI at its
		// last writer, and the recovery redo pass's vSI witness then skips
		// exactly what is flushed — the checkpoint horizon becomes harmless.
		sp = lane.Begin("purge-cache")
		err := s.mgr.PurgeAll()
		sp.End()
		if err != nil {
			return nil, nil, err
		}
	}
	sp = lane.Begin("recover")
	eng, res, err := core.Adopt(s.cfg.Opts, s.log, s.store)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.Arg("redo_start", int64(res.RedoStart)).
		Arg("scanned", res.ScannedOps).Arg("redone", res.Redone).
		Arg("skipped_installed", res.SkippedInstalled).End()
	if s.promotionNs.Enabled() {
		s.promotionNs.Since(start)
	}
	s.promotionsC.Inc()
	s.promoted = true
	return eng, res, nil
}
