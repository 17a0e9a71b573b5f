package wal

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
)

// Log is the write-ahead log.  Appended records first land in volatile
// per-lane stream buffers (the commit fast lane; see stream.go); Force (or
// ForceThrough) merges the streams into global LSN order and makes the
// records durable on the Device.  A crash loses everything volatile.  LSNs
// are assigned densely starting at 1 and double as state identifiers (SIs)
// throughout the system.
//
// Log is safe for concurrent use.  Appenders contend only on their stream's
// mutex plus one atomic LSN claim, not on the log mutex.  Concurrent forcers
// group-commit: while one caller (the leader) is writing the merged batch to
// the device, later callers whose records are covered by that in-flight
// write wait on it instead of issuing their own device write
// (leader/follower coalescing).  The device write itself happens outside the
// log mutex, so appenders keep running while a force is in flight.
type Log struct {
	mu        sync.Mutex
	forceDone *sync.Cond // broadcast when an in-flight force completes
	forcing   bool       // a leader is writing to the device
	// pendingForce accumulates the highest LSN requested by forcers that
	// arrived while a leader's write was in flight; the next leader
	// absorbs all of them in one device write.
	pendingForce op.SI
	dev          Device

	// nextLSN is the next LSN to assign.  Claims happen while a stream
	// mutex is held, which is what makes the merged prefix provably dense
	// (see stream.go).
	nextLSN atomic.Uint64

	stableLSN op.SI
	firstLSN  op.SI // first LSN still on the device (post truncation)

	// lanes is the active stream configuration; Append reads it without
	// locks, SetStreams swaps it under l.mu.
	lanes atomic.Pointer[streamSet]

	// shipped buffers records appended via AppendShipped.  Shipped records
	// bypass the streams (and with them the absorption index): a standby's
	// log must stay a byte-exact prefix copy of its primary's.
	shipped []streamRec

	// absorbIdx is the cross-stream absorption index, sharded by object so
	// concurrent appenders contend only when they touch objects hashing to
	// the same shard (see stream.go).
	absorbIdx [absorbShardCount]absorbShard

	// Merged staging: records collected out of the streams in LSN order,
	// framed, not yet acknowledged by the device.  Kept across a failed
	// device write so a retrying leader re-sends the same bytes; dropped by
	// Crash (mergedGen tells an in-flight leader its batch was crashed away).
	mergedBuf   []byte
	mergedCount int
	mergedLast  op.SI
	mergedGen   uint64
	mergeRuns   [][]streamRec

	// mergeProbe, when set, is consulted by the group-commit leader each
	// time it is about to write a freshly merged non-empty batch — the
	// stream-merge fault boundary (see SetMergeProbe).
	mergeProbe func() error

	// Transient-fault retry policy for device appends (see SetRetryPolicy).
	retryMax  int
	retryBase time.Duration
	retryCap  time.Duration

	obs logObs

	// flight is the optional decision flight recorder (see SetFlight).
	// Held as an atomic pointer because absorption-index updates read it
	// under stream/shard mutexes without l.mu.
	flight atomic.Pointer[flight.Recorder]

	// Retention hooks, under their own mutex so hook queries never nest
	// inside l.mu (see RegisterRetention).
	retainMu  sync.Mutex
	retainSeq int
	retain    map[int]retentionHook
}

// retentionHook is one registered truncation horizon (see RegisterRetention).
type retentionHook struct {
	name string
	fn   func() op.SI
}

// numRecordTypes bounds the RecordType values: every valid type is below it.
const numRecordTypes = int(RecAbsorbed) + 1

// logObs holds the log's metric handles (see SetObs).  All handles are nil
// when no registry is attached; every update below is nil-safe and clock
// reads are guarded, so the detached overhead is a pointer test.
type logObs struct {
	// appendNs is the Append latency (encode + stream buffering), in ns.
	appendNs *obs.Histogram
	// forceDeviceNs is the per-force device write latency, in ns.
	forceDeviceNs *obs.Histogram
	// forceBatchRecords is the group-commit batch size distribution: log
	// records made durable per device write.
	forceBatchRecords *obs.Histogram
	// forceBatchBytes is the framed bytes per device write.
	forceBatchBytes *obs.Histogram
	// retryBackoffNs is the transient-retry backoff slept per attempt.
	retryBackoffNs *obs.Histogram
	// mergeNs is the stream-merge latency per force, in ns.
	mergeNs *obs.Histogram
	// mergeRecords is the records merged per stream merge.
	mergeRecords *obs.Histogram
	// absorbHits counts records elided by log absorption (replaced by a
	// RecAbsorbed tombstone in the durable log).
	absorbHits *obs.Counter
	// absorbBytesElided is the durable bytes saved by absorption: original
	// frame size minus tombstone frame size, summed over absorbed records.
	absorbBytesElided *obs.Counter

	// records and payloadBytes count appended records and their payload
	// bytes (framing excluded) by record type; opPayloadBytes counts
	// operation payload bytes by operation kind — the logical-vs-physical
	// logging cost (Figure 1 / E1).
	records        [numRecordTypes]*obs.Counter
	payloadBytes   [numRecordTypes]*obs.Counter
	opPayloadBytes [op.NumKinds]*obs.Counter
	// bytesAppended is the total framed bytes appended (pre-absorption:
	// absorbed records count at their original size).
	bytesAppended *obs.Counter
	// valueBytes counts bytes of logged data values (the part logical
	// operations avoid).
	valueBytes *obs.Counter
	// forces counts forces that actually wrote to the device;
	// forcesCoalesced counts Force/ForceThrough calls satisfied by another
	// caller's in-flight device write (group commit followers).
	forces          *obs.Counter
	forcesCoalesced *obs.Counter
	// transientRetries counts device appends retried after a transient
	// (retryable) error.
	transientRetries *obs.Counter
	// truncationsClamped counts Truncate calls whose cut point was raised
	// less far than requested because a registered retention horizon
	// (backup image, lagging standby) still needed earlier records.
	truncationsClamped *obs.Counter
	// merges counts stream merges that moved at least one record.
	merges *obs.Counter
}

func newLogObs(r *obs.Registry) logObs {
	o := logObs{
		appendNs:           r.Histogram("wal.append.ns"),
		forceDeviceNs:      r.Histogram("wal.force.device_ns"),
		forceBatchRecords:  r.Histogram("wal.force.batch_records"),
		forceBatchBytes:    r.Histogram("wal.force.batch_bytes"),
		retryBackoffNs:     r.Histogram("wal.retry.backoff_ns"),
		mergeNs:            r.Histogram("wal.merge.ns"),
		mergeRecords:       r.Histogram("wal.merge.records"),
		absorbHits:         r.Counter("wal.absorb.hits"),
		absorbBytesElided:  r.Counter("wal.absorb.bytes_elided"),
		bytesAppended:      r.Counter("wal.bytes_appended"),
		valueBytes:         r.Counter("wal.value_bytes"),
		forces:             r.Counter("wal.forces"),
		forcesCoalesced:    r.Counter("wal.forces_coalesced"),
		transientRetries:   r.Counter("wal.transient_retries"),
		truncationsClamped: r.Counter("wal.truncations_clamped"),
		merges:             r.Counter("wal.merges"),
	}
	for t := RecOperation; int(t) < numRecordTypes; t++ {
		o.records[t] = r.Counter("wal.records." + t.String())
		o.payloadBytes[t] = r.Counter("wal.payload_bytes." + t.String())
	}
	for k := op.KindInvalid + 1; k.Valid(); k++ {
		o.opPayloadBytes[k] = r.Counter("wal.op_payload_bytes." + k.String())
	}
	return o
}

// countAppend records one appended record's accounting.
func (o *logObs) countAppend(rec *Record, frameLen int) {
	payloadLen := int64(frameLen - frameOverhead)
	o.records[rec.Type].Inc()
	o.payloadBytes[rec.Type].Add(payloadLen)
	o.bytesAppended.Add(int64(frameLen))
	if rec.Type == RecOperation {
		o.opPayloadBytes[rec.Op.Kind].Add(payloadLen)
		var values int64
		for _, v := range rec.Op.Values {
			values += int64(len(v))
		}
		o.valueBytes.Add(values)
	}
}

// SetObs makes the log count into r, under the wal.* names; nil detaches
// it (nothing is counted).
func (l *Log) SetObs(r *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.obs = newLogObs(r)
	ss := l.lockAllStreams()
	for _, s := range ss {
		s.obs = l.obs
	}
	l.unlockAllStreams(ss)
}

// SetFlight wires the decision flight recorder; nil disables it.  The
// log records absorption decisions (record/cancel/commit) and stream
// merges; all emission is nil-safe and observational only.
func (l *Log) SetFlight(r *flight.Recorder) {
	l.flight.Store(r)
}

// transient matches errors that mark themselves retryable, such as the
// fault layer's injected EIOs.  Declared locally so wal does not import the
// fault package (which imports wal).
type transient interface {
	Transient() bool
}

// IsTransient reports whether err is a retryable I/O error.
func IsTransient(err error) bool {
	var t transient
	return errors.As(err, &t) && t.Transient()
}

// Backoff is a capped exponential backoff sequence: base, 2·base, 4·base,
// ..., clamped to max.  Unlike recomputing the delay from the attempt number
// each iteration (the old TransientBackoff call pattern), the state is
// advanced incrementally, so a retry loop does O(1) work per attempt.
type Backoff struct {
	next time.Duration
	max  time.Duration
}

// NewBackoff returns a backoff sequence starting at base and doubling per
// Next call, clamped to max (max <= 0 means uncapped).
func NewBackoff(base, max time.Duration) Backoff {
	return Backoff{next: base, max: max}
}

// Next returns the next delay in the sequence and advances it.
func (b *Backoff) Next() time.Duration {
	d := b.next
	if d <= 0 {
		return 0
	}
	if b.max > 0 && d >= b.max {
		b.next = b.max
		return b.max
	}
	b.next = d * 2
	return d
}

// TransientBackoff returns the capped exponential delay before the given
// 1-based retry attempt.  Retry loops should prefer a Backoff value hoisted
// out of the loop; this closed form is kept for one-shot queries.
func TransientBackoff(attempt int, base, max time.Duration) time.Duration {
	b := NewBackoff(base, max)
	d := time.Duration(0)
	for i := 0; i < attempt; i++ {
		d = b.Next()
	}
	return d
}

// New creates a Log over dev.  If dev already holds records (restart after
// crash), the log resumes LSN assignment after the highest durable record.
// The log starts with a single stream and absorption off; see SetStreams.
func New(dev Device) (*Log, error) {
	l := &Log{dev: dev, firstLSN: 1}
	l.nextLSN.Store(1)
	l.forceDone = sync.NewCond(&l.mu)
	l.lanes.Store(&streamSet{streams: []*logStream{{}}})
	for i := range l.absorbIdx {
		l.absorbIdx[i].reset()
	}
	// Recover LSN horizon from existing contents.
	data, err := dev.ReadAll()
	if err != nil {
		return nil, err
	}
	first := true
	for len(data) > 0 {
		payload, n, err := Unframe(data)
		if err != nil {
			break // torn tail: ignore, as recovery would
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			break
		}
		if first {
			l.firstLSN = rec.LSN
			first = false
		} else if rec.LSN != l.stableLSN+1 {
			break // LSN gap: a lost write; the log ends at the gap
		}
		l.stableLSN = rec.LSN
		l.nextLSN.Store(uint64(rec.LSN) + 1)
		data = data[n:]
	}
	return l, nil
}

// SetStreams configures the commit fast lane: n per-lane append streams
// (clamped to [1, 64]) and whether log absorption is enabled.  Any records
// already buffered are re-homed, so reconfiguration is safe at any quiesced
// point; the durable byte stream is identical at every stream count.
func (l *Log) SetStreams(n int, absorb bool) {
	if n < 1 {
		n = 1
	}
	if n > maxLogStreams {
		n = maxLogStreams
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.lockAllStreams()
	var carry []streamRec
	for _, s := range old {
		carry = append(carry, s.recs...)
		s.recs = nil
	}
	sort.Slice(carry, func(i, j int) bool { return carry[i].lsn < carry[j].lsn })
	streams := make([]*logStream, n)
	for i := range streams {
		streams[i] = &logStream{obs: l.obs}
	}
	streams[0].recs = carry
	l.lanes.Store(&streamSet{streams: streams, absorb: absorb})
	l.unlockAllStreams(old)
}

// SetMergeProbe installs a hook the group-commit leader calls each time it
// has merged a non-empty batch and is about to write it to the device — the
// stream-merge fault boundary.  A non-nil error aborts the force before the
// device write; the merged records stay volatile.  nil removes the hook.
func (l *Log) SetMergeProbe(fn func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mergeProbe = fn
}

// SetRetryPolicy configures transient-fault retry for device appends in
// Force/ForceThrough: an append failing with a retryable error (see
// IsTransient) is retried up to maxRetries times with capped exponential
// backoff.  maxRetries <= 0 disables retry (the default).
func (l *Log) SetRetryPolicy(maxRetries int, base, cap time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retryMax = maxRetries
	l.retryBase = base
	l.retryCap = cap
}

// Append assigns the next LSN to rec, encodes it into a volatile stream, and
// returns the LSN.  For operation records the operation's LSN field is set,
// binding the operation's lSI.  Append does NOT force; the WAL protocol's
// forcing happens before installation (see ForceThrough).
func (l *Log) Append(rec *Record) (op.SI, error) {
	if err := rec.Validate(); err != nil {
		return 0, err
	}
	set := l.lanes.Load()
	var obj op.ObjectID
	if set.absorb {
		obj, _ = absorbTarget(rec)
	}
	s := set.pick()
	s.mu.Lock()
	var appendStart time.Time
	if s.obs.appendNs.Enabled() {
		appendStart = time.Now()
	}
	// The claim happens inside the stream critical section: that is the
	// density invariant the merge relies on (see stream.go).
	lsn := op.SI(l.nextLSN.Add(1) - 1)
	rec.LSN = lsn
	if rec.Op != nil {
		rec.Op.LSN = lsn
	}
	sr := s.append(rec, lsn, obj)
	if set.absorb {
		l.noteAbsorb(rec, sr)
	}
	if s.obs.appendNs.Enabled() {
		s.obs.appendNs.Since(appendStart)
	}
	s.mu.Unlock()
	return lsn, nil
}

// AppendOp is shorthand for Append(NewOpRecord(o)).
func (l *Log) AppendOp(o *op.Operation) (op.SI, error) { return l.Append(NewOpRecord(o)) }

// AppendShipped appends a record that already owns its LSN — a record
// received from a primary's log stream.  The standby's log must be a
// gap-free prefix copy of the primary's, so the record has to land exactly
// at the next LSN; the one exception is a completely fresh log (bootstrap
// from a backup image), which adopts the stream's first LSN as its origin.
// Shipped records bypass the streams and the absorption index entirely:
// they are buffered in arrival (= LSN) order and are never elided, keeping
// the standby log byte-identical to the primary's.  Like Append,
// AppendShipped does not force.
func (l *Log) AppendShipped(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.LSN == 0 {
		return fmt.Errorf("wal: shipped record has no LSN")
	}
	if l.stableLSN == 0 {
		// Fresh log: adopt the stream origin (backup StartLSN).  nextLSN
		// still at 1 means nothing was ever appended or merged, so no
		// volatile record can exist either.
		if l.nextLSN.CompareAndSwap(1, uint64(rec.LSN)) {
			l.firstLSN = rec.LSN
		}
	}
	if !l.nextLSN.CompareAndSwap(uint64(rec.LSN), uint64(rec.LSN)+1) {
		return fmt.Errorf("wal: shipped record LSN %d, want %d", rec.LSN, l.nextLSN.Load())
	}
	payload, err := EncodeRecord(rec)
	if err != nil {
		// Give the claimed LSN back; the caller's record never landed.  CAS,
		// not Store: nothing stops a caller from mixing local Appends with
		// shipped records, and a concurrent Append may have claimed the next
		// LSN already — rewinding over it would reissue a claimed LSN.  If
		// the CAS loses, the claimed LSN is simply left as a gap at the
		// durable tail, which Scan and recovery already treat as end-of-log.
		l.nextLSN.CompareAndSwap(uint64(rec.LSN)+1, uint64(rec.LSN))
		return err
	}
	frame := Frame(payload)
	l.shipped = append(l.shipped, streamRec{lsn: rec.LSN, frame: frame})
	l.obs.countAppend(rec, len(frame))
	return nil
}

// Force makes every appended record durable.
func (l *Log) Force() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forceLocked(op.SI(l.nextLSN.Load()) - 1)
}

// ForceThrough makes records up to and including lsn durable (WAL protocol:
// called before installing an operation's effects).
func (l *Log) ForceThrough(lsn op.SI) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forceLocked(lsn)
}

// forceLocked implements group commit.  The caller holds l.mu; the device
// write happens with the mutex released.
//
// A caller whose lsn is already durable returns immediately.  Otherwise, if
// a leader's device write is in flight, the caller records its target in
// pendingForce and waits as a follower: when the leader finishes, a
// follower whose lsn the write covered returns without touching the device
// (counted in wal.forces_coalesced).  A caller that finds no force in flight
// becomes the leader: it merges every stream's records covering its own
// target and every target accumulated in pendingForce into the staging
// buffer (absorption tombstones are substituted here; see mergeThrough) and
// writes the staged batch in one device append — coalescing concurrent
// committers without forcing records nobody asked for (the unforced suffix
// stays crash-losable, which the simulator's crash model depends on).
func (l *Log) forceLocked(lsn op.SI) error {
	joined := false
	for {
		if lsn <= l.stableLSN {
			if joined {
				l.obs.forcesCoalesced.Inc()
			}
			return nil
		}
		if !l.forcing {
			break
		}
		joined = true
		if lsn > l.pendingForce {
			l.pendingForce = lsn
		}
		l.forceDone.Wait()
	}
	// Leader: claim every pending target in one write.
	target := lsn
	if l.pendingForce > target {
		target = l.pendingForce
	}
	l.pendingForce = 0
	l.mergeThrough(target)
	if l.mergedCount == 0 {
		return nil
	}
	if l.mergeProbe != nil {
		if err := l.mergeProbe(); err != nil {
			return fmt.Errorf("wal: force: %w", err)
		}
	}
	buf := l.mergedBuf
	n := l.mergedCount
	last := l.mergedLast
	gen := l.mergedGen
	l.forcing = true
	retryMax, retryBase, retryCap := l.retryMax, l.retryBase, l.retryCap
	hooks := l.obs
	l.mu.Unlock()
	var deviceStart time.Time
	if hooks.forceDeviceNs.Enabled() {
		deviceStart = time.Now()
	}
	err := l.dev.Append(buf)
	var retries int64
	backoff := NewBackoff(retryBase, retryCap)
	for attempt := 1; err != nil && attempt <= retryMax && IsTransient(err); attempt++ {
		d := backoff.Next()
		hooks.retryBackoffNs.ObserveDuration(d)
		time.Sleep(d)
		retries++
		err = l.dev.Append(buf)
	}
	if hooks.forceDeviceNs.Enabled() {
		hooks.forceDeviceNs.Since(deviceStart)
		hooks.forceBatchRecords.Observe(int64(n))
		hooks.forceBatchBytes.Observe(int64(len(buf)))
	}
	l.mu.Lock()
	l.forcing = false
	hooks.transientRetries.Add(retries)
	if err == nil {
		if last > l.stableLSN {
			l.stableLSN = last
		}
		// Drop exactly the staged batch written.  Crash may have reset the
		// staging buffer meanwhile (mergedGen moved); the device write still
		// happened, so stableLSN stands either way.
		if l.mergedGen == gen {
			l.mergedBuf = nil
			l.mergedCount = 0
		}
		hooks.forces.Inc()
	}
	l.forceDone.Broadcast()
	if err != nil {
		return fmt.Errorf("wal: force: %w", err)
	}
	return nil
}

// StableLSN returns the highest durable LSN.
func (l *Log) StableLSN() op.SI {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stableLSN
}

// NextLSN returns the LSN the next Append will assign.
func (l *Log) NextLSN() op.SI {
	return op.SI(l.nextLSN.Load())
}

// FirstLSN returns the earliest LSN still on the device.
func (l *Log) FirstLSN() op.SI {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLSN
}

// volatileCountLocked counts buffered records not yet acknowledged by the
// device.  Caller holds l.mu and every stream mutex.
func (l *Log) volatileCountLocked(ss []*logStream) int {
	n := l.mergedCount + len(l.shipped)
	for _, s := range ss {
		n += s.volatileCount()
	}
	return n
}

// Crash drops every volatile record (stream buffers, shipped tail, and the
// merged staging buffer), simulating a crash; it returns the number of
// records lost.  The device (stable log) is untouched.
func (l *Log) Crash() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	ss := l.lockAllStreams()
	n := l.mergedCount + len(l.shipped)
	for _, s := range ss {
		n += s.drop()
	}
	l.shipped = nil
	l.mergedBuf = nil
	l.mergedCount = 0
	l.mergedLast = 0
	l.mergedGen++
	for i := range l.absorbIdx {
		sh := &l.absorbIdx[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
	l.unlockAllStreams(ss)
	// LSN assignment continues monotonically after recovery; recovery
	// itself may log fresh records.
	return n
}

// TrimTornTail rewrites the device down to its trustworthy prefix and
// returns the bytes discarded.  A record is trustworthy when it frames and
// decodes cleanly, extends the previous record's LSN by one, and — if it
// lies beyond the acked horizon (stableLSN) with nothing acked before it —
// starts exactly where the log would have appended.  Everything from the
// first violation on is the debris of a torn, bit-flipped, or reordered
// final append.
func (l *Log) TrimTornTail() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.forcing {
		l.forceDone.Wait()
	}
	return l.trimTornTailLocked()
}

func (l *Log) trimTornTailLocked() (int, error) {
	data, err := l.dev.ReadAll()
	if err != nil {
		return 0, err
	}
	good := 0
	last := op.SI(0)
	rest := data
	for len(rest) > 0 {
		payload, n, err := Unframe(rest)
		if err != nil {
			break
		}
		rec, err := decodeRecordAliased(payload)
		if err != nil {
			break
		}
		if last != 0 && rec.LSN != last+1 {
			break // interior gap: a dropped frame in a reordered batch
		}
		if last == 0 && rec.LSN > l.stableLSN {
			// The device's very first record was never acked, so nothing
			// vouches for it unless it sits exactly where the next append
			// would have landed: after the acked horizon, or at the log's
			// first LSN when nothing was ever acked.  A later LSN means
			// the append's leading frames were lost.
			want := l.stableLSN + 1
			if l.stableLSN == 0 {
				want = l.firstLSN
			}
			if rec.LSN != want {
				break
			}
		}
		last = rec.LSN
		good += n
		rest = rest[n:]
	}
	if good == len(data) {
		return 0, nil
	}
	if err := l.dev.Rewrite(data[:good]); err != nil {
		return 0, err
	}
	if last < l.stableLSN {
		// Only possible outside the crash model (acked data lost); keep
		// the horizon consistent with the device regardless.
		l.stableLSN = last
	}
	return len(data) - good, nil
}

// Restart re-synchronizes the log with its device at recovery time, as a
// process restart's New would: it waits out any in-flight force, trims the
// untrustworthy tail a mid-append crash left behind (see TrimTornTail), and
// — when the volatile buffers are empty, i.e. the caller crashed first —
// rewinds the LSN horizon to the durable log so the LSNs of lost records
// are reused and the durable log stays gap-free.  With volatile records
// still buffered (recovery without a crash) the horizon is left alone: the
// buffers still own their LSNs.  An empty device also leaves the horizon
// alone, because checkpoint truncation legitimately erases records whose
// LSNs must not be reassigned.
func (l *Log) Restart() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.forcing {
		l.forceDone.Wait()
	}
	if _, err := l.trimTornTailLocked(); err != nil {
		return fmt.Errorf("wal: restart: %w", err)
	}
	ss := l.lockAllStreams()
	defer l.unlockAllStreams(ss)
	if l.volatileCountLocked(ss) != 0 {
		return nil
	}
	data, err := l.dev.ReadAll()
	if err != nil {
		return fmt.Errorf("wal: restart: %w", err)
	}
	first := op.SI(0)
	last := op.SI(0)
	for len(data) > 0 {
		payload, n, err := Unframe(data)
		if err != nil {
			return fmt.Errorf("wal: restart: device still torn after trim")
		}
		rec, err := decodeRecordAliased(payload)
		if err != nil {
			return fmt.Errorf("wal: restart: device still torn after trim")
		}
		if first == 0 {
			first = rec.LSN
		}
		last = rec.LSN
		data = data[n:]
	}
	if last == 0 {
		return nil // empty device: keep the horizon (see doc comment)
	}
	l.firstLSN = first
	if last > l.stableLSN {
		// A torn append can land every frame and lose only the ack; the
		// records are durable, so the horizon advances over them.
		l.stableLSN = last
	}
	l.nextLSN.Store(uint64(l.stableLSN) + 1)
	return nil
}

// RegisterRetention registers a truncation horizon: Truncate will never
// discard records with LSN >= the hook's returned value, no matter what cut
// point the caller asks for.  A hook returning NilSI (0) abstains for that
// truncation.  Hooks are consulted outside the log mutex and must not call
// back into the Log.  The returned release function unregisters the hook;
// name appears in no output today but keeps hooks identifiable under a
// debugger.
func (l *Log) RegisterRetention(name string, fn func() op.SI) (release func()) {
	l.retainMu.Lock()
	defer l.retainMu.Unlock()
	if l.retain == nil {
		l.retain = make(map[int]retentionHook)
	}
	id := l.retainSeq
	l.retainSeq++
	l.retain[id] = retentionHook{name: name, fn: fn}
	return func() {
		l.retainMu.Lock()
		defer l.retainMu.Unlock()
		delete(l.retain, id)
	}
}

// retentionFloor queries every registered hook and returns the lowest
// non-zero horizon, or 0 when no hook constrains truncation.
func (l *Log) retentionFloor() op.SI {
	l.retainMu.Lock()
	hooks := make([]retentionHook, 0, len(l.retain))
	//lint:ignore replaydeterminism commutative min-fold over hooks
	for _, h := range l.retain {
		hooks = append(hooks, h)
	}
	l.retainMu.Unlock()
	floor := op.SI(0)
	for _, h := range hooks {
		if lsn := h.fn(); lsn != 0 && (floor == 0 || lsn < floor) {
			floor = lsn
		}
	}
	return floor
}

// Truncate discards all durable records with LSN < before.  Only installed
// operations may be truncated away; the checkpointing caller guarantees
// that for the local engine, and registered retention hooks (backup images,
// lagging standbys) clamp the cut point further so no dependent replica is
// stranded.  Truncation rewrites the device.
func (l *Log) Truncate(before op.SI) error {
	clamped := false
	if floor := l.retentionFloor(); floor != 0 && floor < before {
		before = floor
		clamped = true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if clamped {
		l.obs.truncationsClamped.Inc()
	}
	// Truncation rewrites the device from a full read; an in-flight force
	// appending concurrently would be lost by the rewrite.  Wait it out.
	for l.forcing {
		l.forceDone.Wait()
	}
	data, err := l.dev.ReadAll()
	if err != nil {
		return err
	}
	var keep []byte
	newFirst := op.SI(0)
	last := op.SI(0)
	for len(data) > 0 {
		payload, n, err := Unframe(data)
		if err != nil {
			break
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			break
		}
		if last != 0 && rec.LSN != last+1 {
			break // LSN gap: the durable log ends here
		}
		last = rec.LSN
		if rec.LSN >= before {
			if newFirst == 0 {
				newFirst = rec.LSN
			}
			keep = append(keep, data[:n]...)
		}
		data = data[n:]
	}
	if err := l.dev.Rewrite(keep); err != nil {
		return err
	}
	if newFirst == 0 {
		newFirst = before
	}
	l.firstLSN = newFirst
	return nil
}

// Scanner iterates durable records in LSN order.
//
// Returned records' byte fields (operation params and values) alias the
// scanner's private snapshot of the device, which is immutable; callers must
// treat them as read-only (recovery clones operations before applying them).
// This keeps the redo scan free of per-record payload copies.
type Scanner struct {
	data []byte
	from op.SI
	last op.SI // LSN of the last record decoded, for gap detection
}

// Scan returns a Scanner positioned at the first durable record with
// LSN >= from.  The scanner reads a snapshot; records appended afterwards
// are not visible.
func (l *Log) Scan(from op.SI) (*Scanner, error) {
	data, err := l.dev.ReadAll()
	if err != nil {
		return nil, err
	}
	return &Scanner{data: data, from: from}, nil
}

// Next returns the next record, or io.EOF at end of log (including at a
// torn tail, which terminates the log exactly as after a crash, and at an
// LSN gap, which marks a lost write inside a reordered batch).
func (s *Scanner) Next() (*Record, error) {
	for len(s.data) > 0 {
		payload, n, err := Unframe(s.data)
		if err != nil {
			return nil, io.EOF
		}
		rec, err := decodeRecordAliased(payload)
		if err != nil {
			return nil, io.EOF
		}
		if s.last != 0 && rec.LSN != s.last+1 {
			return nil, io.EOF
		}
		s.last = rec.LSN
		s.data = s.data[n:]
		if rec.LSN >= s.from {
			return rec, nil
		}
	}
	return nil, io.EOF
}

// All drains the scanner into a slice.
func (s *Scanner) All() ([]*Record, error) {
	var out []*Record
	for {
		rec, err := s.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// LastCheckpoint scans the durable log and returns the most recent
// checkpoint record, or nil if none exists.
func (l *Log) LastCheckpoint() (*Record, error) {
	sc, err := l.Scan(0)
	if err != nil {
		return nil, err
	}
	var last *Record
	for {
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return last, nil
		}
		if err != nil {
			return nil, err
		}
		if rec.Type == RecCheckpoint {
			last = rec
		}
	}
}
