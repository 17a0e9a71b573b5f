package wal

import (
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/op"
)

// Per-core log streams (the commit fast lane).  Append no longer serializes
// every caller on the log mutex: each append claims the next LSN and encodes
// its frame inside one stream's private critical section, so concurrent
// committers contend only when they land on the same stream.  Streams hold
// records out of global order; the group-commit leader merges them back into
// dense LSN order at force time, which keeps the durable byte stream
// identical to single-stream operation — recovery, the ship Sender cursor,
// retention horizons, and Scan never see a difference.
//
// The density argument: an LSN is claimed from the shared counter while its
// stream's mutex is held, and the record is buffered before that mutex is
// released.  The merging leader acquires every stream mutex, so no claim can
// be in flight while it looks: every LSN below the counter is present in
// some stream (or already merged), and the merged prefix is gap-free.

// maxLogStreams clamps the configured stream count.
const maxLogStreams = 64

// logStream is one private append lane.
type logStream struct {
	mu    sync.Mutex
	recs  []streamRec // volatile records, LSN-ascending (claims happen under mu)
	arena arena
	obs   logObs
}

// streamRec is one volatile record buffered in a stream.
type streamRec struct {
	lsn   op.SI
	frame []byte
	chunk *chunk // arena chunk backing frame; nil when heap-backed
	// obj is set when the record is an absorption candidate (a blind
	// single-object physical write); empty otherwise.
	obj op.ObjectID
}

// streamSet is the immutable lane configuration Append reads without locks;
// SetStreams swaps in a new one atomically.
type streamSet struct {
	streams []*logStream
	absorb  bool
	// hintPool hands out per-P lane hints (see pick).  hintCtr assigns a
	// fresh hint the next lane, round-robin.
	hintPool sync.Pool
	hintCtr  atomic.Uint64
}

// pick selects the lane for one append.  With a single stream there is no
// choice; otherwise the lane comes from a sync.Pool-cached hint.  Pool
// storage is per-P, so a committer that stays on one core keeps hitting the
// same lane — the "per-core" in per-core log streams — without any shared
// counter bouncing between cache lines on every append.  Hints are handed
// out round-robin, so cores spread evenly across lanes; a pool-evicted hint
// just means a fresh round-robin assignment.
func (ss *streamSet) pick() *logStream {
	if len(ss.streams) == 1 {
		return ss.streams[0]
	}
	h, _ := ss.hintPool.Get().(*uint64)
	if h == nil {
		n := ss.hintCtr.Add(1) - 1
		h = &n
	}
	s := ss.streams[*h%uint64(len(ss.streams))]
	ss.hintPool.Put(h)
	return s
}

// append encodes rec (already validated, LSN assigned) into the stream.
func (s *logStream) append(rec *Record, lsn op.SI, obj op.ObjectID) streamRec {
	frame, ch := s.arena.appendFrame(rec)
	sr := streamRec{lsn: lsn, frame: frame, chunk: ch, obj: obj}
	s.recs = append(s.recs, sr)
	s.obs.countAppend(rec, len(frame))
	return sr
}

// volatileCount returns the number of buffered records.  Caller holds s.mu.
func (s *logStream) volatileCount() int { return len(s.recs) }

// drop discards every buffered record (crash).  Caller holds s.mu.
func (s *logStream) drop() int {
	n := len(s.recs)
	s.recs = nil
	s.arena = arena{}
	return n
}

// Log absorption.  Within the volatile window, a later blind full-object
// write to the same object supersedes an earlier one: replaying both or only
// the later one yields the same state, provided no logged record in between
// reads the object and the earlier write is not yet durable.  The absorption
// index tracks, per object, the latest volatile candidate write; when a new
// candidate arrives the previous one is marked absorbed.  The elision itself
// happens at merge time: the absorbed record's frame is replaced by a tiny
// RecAbsorbed tombstone at the same LSN — but only when its absorber is
// merged in the same batch.  If the force horizon covers the absorbed record
// and not its absorber, the absorption is cancelled and the record merges in
// full, because a crash after the force must still recover its value.
//
// Ordering.  LSN claims are atomic, but each record's index update runs
// under its own stream's mutex, so updates for records on different streams
// can reach a shard in either order.  Every index decision is therefore
// guarded by explicit LSN comparisons rather than arrival order:
//
//   - The candidate for an object is always its highest-LSN volatile blind
//     write; a write that arrives at the shard after a higher-LSN write is
//     itself the superseded record, never the absorber.
//   - Record a may be elided by record b only when a < b and no observer —
//     a record reading, deleting, or non-blindly writing the object — has
//     an LSN inside (a, b).  Each shard tracks maxObs, the per-object
//     maximum observer LSN; registration and absorption refuse whenever
//     maxObs could put an observer inside the elision interval (maxObs is
//     only a maximum, so the checks are conservative).
//   - An observer whose index update arrives after an absorption was
//     already recorded cancels any pair whose interval contains it.
//
// The cancellation in the last point cannot lose to the merge: an observer
// updates the index while still holding its stream mutex, the merging
// leader takes every stream mutex, and no pair with by > observer can exist
// before the observer's LSN was claimed (LSNs are monotone) — so a
// tombstone is never written for an interval containing a claimed-but-
// unregistered observer.

// candInfo is the absorption index entry for an object's latest volatile
// candidate write.
type candInfo struct {
	lsn op.SI
	// payload is the candidate's encoded payload length, recorded in the
	// tombstone if the candidate is absorbed.
	payload int64
}

// absorbedPair marks one absorbed record awaiting tombstone substitution.
type absorbedPair struct {
	obj op.ObjectID
	// payload is the absorbed record's payload length (tombstone Elided).
	payload int64
	// by is the LSN of the absorbing write; the substitution is valid only
	// for force horizons that cover it.
	by op.SI
}

// absorbTarget reports whether rec is an absorption candidate: a blind
// physical write of exactly one object, carrying its value, with no reads
// and no deletes.  Identity writes (W_IP), creates, deletes, physiological
// and logical kinds, and every non-operation record are excluded.
func absorbTarget(rec *Record) (op.ObjectID, bool) {
	if rec.Type != RecOperation {
		return "", false
	}
	o := rec.Op
	if o.Kind != op.KindPhysicalWrite {
		return "", false
	}
	if len(o.WriteSet) != 1 || len(o.ReadSet) != 0 || len(o.Deletes) != 0 {
		return "", false
	}
	if _, ok := o.Values[o.WriteSet[0]]; !ok {
		return "", false
	}
	return o.WriteSet[0], true
}

// absorbShardCount shards the absorption index by object; a power of two so
// the hash reduces with a mask.
const absorbShardCount = 16

// absorbShard is one lock-striped slice of the absorption index.  Candidates
// and absorbers may live in different log streams, but every index operation
// is per-object, so striping by object keeps the semantics of a single
// global index while letting appenders on different objects proceed in
// parallel.
type absorbShard struct {
	mu       sync.Mutex
	cands    map[op.ObjectID]candInfo
	absorbed map[op.SI]absorbedPair
	// maxObs is, per object, the highest LSN of any volatile record that
	// observed the object (read it, deleted it, or wrote it non-blindly).
	// Candidate registration and absorption consult it so that no record
	// observed by a later operation is ever elided, even when index updates
	// arrive out of LSN order across streams.  Entries at or below the merge
	// horizon are pruned at merge time.
	maxObs map[op.ObjectID]op.SI
}

// reset empties the shard (init and crash).  Caller holds sh.mu (or is the
// constructor, before the log is shared).
func (sh *absorbShard) reset() {
	sh.cands = make(map[op.ObjectID]candInfo)
	sh.absorbed = make(map[op.SI]absorbedPair)
	sh.maxObs = make(map[op.ObjectID]op.SI)
}

// absorbShardFor returns the shard owning obj's index entries (FNV-1a).
func (l *Log) absorbShardFor(obj op.ObjectID) *absorbShard {
	h := uint32(2166136261)
	for i := 0; i < len(obj); i++ {
		h ^= uint32(obj[i])
		h *= 16777619
	}
	return &l.absorbIdx[h&(absorbShardCount-1)]
}

// observe records that the record at lsn observed obj (read it, deleted it,
// or wrote it non-blindly): it raises the object's observer horizon, drops
// any candidate the observer pins (one with a lower LSN — a higher-LSN
// candidate postdates the observer and stays absorbable), and cancels any
// already-recorded absorption whose elision interval contains the observer.
// That last case arises only from out-of-LSN-order index updates: the
// absorption was decided before the observer's update reached the shard.
func (l *Log) observe(obj op.ObjectID, lsn op.SI) {
	sh := l.absorbShardFor(obj)
	sh.mu.Lock()
	if sh.maxObs[obj] < lsn {
		sh.maxObs[obj] = lsn
	}
	if c, ok := sh.cands[obj]; ok && c.lsn < lsn {
		delete(sh.cands, obj)
	}
	for alsn, pair := range sh.absorbed {
		if pair.obj == obj && alsn < lsn && lsn < pair.by {
			delete(sh.absorbed, alsn)
			l.flight.Load().AbsorbCancel(obj, alsn, lsn)
		}
	}
	sh.mu.Unlock()
}

// noteCandidate registers a blind single-object write in the absorption
// index.  Updates from different streams can arrive out of LSN order, so
// every decision is LSN-guarded (see the ordering notes above): the
// highest-LSN write stays the candidate, only an older record is ever
// marked absorbed by a newer one, and nothing is registered or absorbed
// across a recorded observer.
func (l *Log) noteCandidate(sr streamRec) {
	sh := l.absorbShardFor(sr.obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obsLSN := sh.maxObs[sr.obj]
	payload := int64(len(sr.frame) - frameOverhead)
	prev, ok := sh.cands[sr.obj]
	switch {
	case !ok:
		// First volatile write; a candidate must postdate every recorded
		// observer, or a future absorber could elide it across a read.
		if obsLSN < sr.lsn {
			sh.cands[sr.obj] = candInfo{lsn: sr.lsn, payload: payload}
		}
	case prev.lsn < sr.lsn:
		// Normal order: sr supersedes prev.  maxObs < prev.lsn proves the
		// interval (prev.lsn, sr.lsn) is observer-free.
		if obsLSN < prev.lsn {
			sh.absorbed[prev.lsn] = absorbedPair{obj: sr.obj, payload: prev.payload, by: sr.lsn}
			l.flight.Load().AbsorbRecord(sr.obj, prev.lsn, sr.lsn)
		}
		if obsLSN < sr.lsn {
			sh.cands[sr.obj] = candInfo{lsn: sr.lsn, payload: payload}
		} else {
			delete(sh.cands, sr.obj)
		}
	default:
		// Inverted arrival: the registered candidate already has the higher
		// LSN, so sr is the superseded record — absorb it, keep prev.
		// Registering sr instead would tombstone the later write and replay
		// to the older value.
		if obsLSN < sr.lsn {
			sh.absorbed[sr.lsn] = absorbedPair{obj: sr.obj, payload: payload, by: prev.lsn}
			l.flight.Load().AbsorbRecord(sr.obj, sr.lsn, prev.lsn)
		}
	}
}

// noteAbsorb updates the absorption index for one appended record.  The
// caller holds the record's stream mutex.  Reads pin: any record reading (or
// deleting, or non-blindly writing) an object raises its observer horizon,
// so no record observed by a later operation is ever elided.  Every index
// update is per-object, so a multi-object record touches its shards one at a
// time — there is no invariant spanning two objects.
func (l *Log) noteAbsorb(rec *Record, sr streamRec) {
	if rec.Type != RecOperation {
		return
	}
	o := rec.Op
	for _, x := range o.ReadSet {
		l.observe(x, sr.lsn)
	}
	for _, x := range o.Deletes {
		l.observe(x, sr.lsn)
	}
	if sr.obj != "" {
		l.noteCandidate(sr)
		return
	}
	for _, x := range o.WriteSet {
		l.observe(x, sr.lsn)
	}
}

// lockAllStreams acquires every stream mutex in index order.  Combined with
// LSN claims happening under a stream mutex, holding all of them gives the
// merging leader a gap-free view of every claimed LSN.  Caller holds l.mu.
func (l *Log) lockAllStreams() []*logStream {
	ss := l.lanes.Load().streams
	for i := range ss {
		ss[i].mu.Lock()
	}
	return ss
}

// unlockAllStreams releases the mutexes lockAllStreams acquired.
func (l *Log) unlockAllStreams(ss []*logStream) {
	for i := range ss {
		ss[i].mu.Unlock()
	}
}

// mergeThrough moves every buffered record with LSN <= target out of the
// streams (and the shipped tail) into the merged staging buffer, in LSN
// order, substituting tombstones for absorbed records whose absorber is also
// covered.  Caller holds l.mu; the staging buffer survives a failed device
// write so a retrying leader re-sends the same bytes.
func (l *Log) mergeThrough(target op.SI) {
	var mergeStart time.Time
	if l.obs.mergeNs.Enabled() {
		mergeStart = time.Now()
	}
	ss := l.lockAllStreams()
	runs := l.mergeRuns[:0]
	counts := make([]int, len(ss))
	for i, s := range ss {
		n := 0
		for _, r := range s.recs {
			if r.lsn > target {
				break
			}
			n++
		}
		counts[i] = n
		if n > 0 {
			runs = append(runs, s.recs[:n])
		}
	}
	nShip := 0
	for _, r := range l.shipped {
		if r.lsn > target {
			break
		}
		nShip++
	}
	if nShip > 0 {
		runs = append(runs, l.shipped[:nShip])
	}
	l.mergeRuns = runs[:0]

	// K-way merge: every run is already LSN-ascending (claims happen under
	// the stream mutex; shipped records arrive in LSN order), so repeatedly
	// taking the smallest head yields global LSN order without a sort.
	merged := 0
	for len(runs) > 0 {
		min := 0
		for i := 1; i < len(runs); i++ {
			if runs[i][0].lsn < runs[min][0].lsn {
				min = i
			}
		}
		r := runs[min][0]
		if len(runs[min]) == 1 {
			runs[min] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		} else {
			runs[min] = runs[min][1:]
		}
		l.mergeRecord(r, target)
		merged++
	}

	for i, s := range ss {
		for _, r := range s.recs[:counts[i]] {
			s.arena.release(r.chunk)
		}
		s.recs = s.recs[counts[i]:]
	}
	l.shipped = l.shipped[nShip:]
	l.pruneObservers(target)
	if merged > 0 {
		l.obs.merges.Inc()
		if l.obs.mergeNs.Enabled() {
			l.obs.mergeNs.Since(mergeStart)
			l.obs.mergeRecords.Observe(int64(merged))
		}
		l.flight.Load().Merge(target, int64(merged))
	}
	l.unlockAllStreams(ss)
}

// pruneObservers drops per-object observer horizons at or below target:
// every record covered by this merge is durable (or staged), so no future
// elision interval can start below it and the entries can never matter
// again.  Caller holds l.mu and every stream mutex, so no index update runs
// concurrently.
func (l *Log) pruneObservers(target op.SI) {
	for i := range l.absorbIdx {
		sh := &l.absorbIdx[i]
		sh.mu.Lock()
		for obj, lsn := range sh.maxObs {
			if lsn <= target {
				delete(sh.maxObs, obj)
			}
		}
		sh.mu.Unlock()
	}
}

// mergeRecord appends one record — or, when its absorber is covered by the
// same batch, its RecAbsorbed tombstone — to the merged staging buffer.
// Caller holds l.mu and every stream mutex, so no noteAbsorb runs
// concurrently; only absorption candidates (r.obj set) can appear in the
// absorbed index, so every other record skips the shard entirely.
func (l *Log) mergeRecord(r streamRec, target op.SI) {
	if r.obj != "" {
		sh := l.absorbShardFor(r.obj)
		sh.mu.Lock()
		pair, hit := sh.absorbed[r.lsn]
		if hit {
			delete(sh.absorbed, r.lsn)
		}
		if c, ok := sh.cands[r.obj]; ok && c.lsn == r.lsn {
			delete(sh.cands, r.obj) // merged: no longer absorbable
		}
		sh.mu.Unlock()
		if hit && pair.by <= target {
			// The absorber is merged in this same batch: elide.
			marker := NewAbsorbedRecord(pair.obj, pair.payload, pair.by)
			marker.LSN = r.lsn
			before := len(l.mergedBuf)
			l.mergedBuf = AppendFrame(l.mergedBuf, marker)
			elided := int64(len(r.frame)) - int64(len(l.mergedBuf)-before)
			l.obs.absorbHits.Inc()
			l.obs.absorbBytesElided.Add(elided)
			l.flight.Load().AbsorbCommit(pair.obj, r.lsn, pair.by, elided)
			l.mergedLast = r.lsn
			l.mergedCount++
			return
		}
		// Either never absorbed, or the force horizon covers the record but
		// not its absorber: the record must survive a crash in full.
	}
	l.mergedBuf = append(l.mergedBuf, r.frame...)
	l.mergedLast = r.lsn
	l.mergedCount++
}
