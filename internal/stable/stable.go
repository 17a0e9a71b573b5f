// Package stable simulates the stable database: the disk-resident versioned
// object store beneath the cache manager.
//
// The store models exactly what the paper's arguments depend on:
//
//   - per-object values with their state identifiers (vSI, the pageLSN
//     analogue stored with each object);
//   - multi-object batch writes under the atomicity mechanisms Section 4
//     compares — shadowing (System R style: write copies, then one atomic
//     pointer swing) and flush transactions (log the values, commit, then
//     update in place) — plus the unsafe in-place mode that demonstrates why
//     a mechanism is needed at all;
//   - I/O and byte accounting (object writes, pointer swings, flush-
//     transaction log traffic) that experiments E4/E5 report;
//   - crash injection in the middle of a batch, leaving old state (shadow),
//     recoverable state (committed flush transaction), or torn state
//     (unsafe), matching each mechanism's real behaviour.
//
// The store itself survives Crash; it is the cache and log tail that a crash
// destroys.  Failure injection here models crashes *during* a flush.
package stable

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/obs"
	"logicallog/internal/op"
	"logicallog/internal/ordset"
)

// BatchMode selects the multi-object atomicity mechanism for a batch write.
type BatchMode uint8

const (
	// ModeSingle writes exactly one object in place; single-object writes
	// are atomic in the disk model (as a page write is).
	ModeSingle BatchMode = iota
	// ModeShadow writes all objects to shadow locations and then installs
	// them with one atomic pointer swing (System R [3]).  A crash before
	// the swing leaves the old state intact.
	ModeShadow
	// ModeFlushTxn wraps the batch in a flush transaction: the values are
	// written to the flush-transaction log, a commit record is forced, and
	// the objects are then updated in place.  A crash after commit is
	// repaired by RecoverPending; before commit the old state survives.
	ModeFlushTxn
	// ModeUnsafe writes the objects in place sequentially with no
	// atomicity mechanism.  A crash mid-batch leaves a torn multi-object
	// state — the failure the write-graph discipline exists to prevent.
	ModeUnsafe
)

func (m BatchMode) String() string {
	switch m {
	case ModeSingle:
		return "single"
	case ModeShadow:
		return "shadow"
	case ModeFlushTxn:
		return "flushtxn"
	case ModeUnsafe:
		return "unsafe"
	}
	return fmt.Sprintf("BatchMode(%d)", uint8(m))
}

// Entry is one object write (or delete) in a batch.
type Entry struct {
	ID op.ObjectID
	// Val is the new value; ignored when Delete is set.
	Val []byte
	// VSI is the state identifier stored with the object (the lSI of the
	// last installed operation that wrote it).
	VSI op.SI
	// Delete terminates the object.
	Delete bool
}

// Versioned is a stored object value with its state identifier.
type Versioned struct {
	Val []byte
	VSI op.SI
}

// numBatchModes bounds the BatchMode values.
const numBatchModes = int(ModeUnsafe) + 1

// storeObs holds the store's I/O counters (see SetObs); all nil, and hence
// no-ops, when no registry is attached.  All byte counts are value bytes
// (the simulator has no sector geometry).
type storeObs struct {
	// objectReads counts object fetches.
	objectReads *obs.Counter
	// objectWrites counts in-place or shadow object writes (each entry of
	// a batch counts once; a flush transaction's in-place phase counts
	// again because the mechanism really writes the data twice), and
	// objectWriteBytes totals their bytes.
	objectWrites     *obs.Counter
	objectWriteBytes *obs.Counter
	// pointerSwings counts shadow-mechanism atomic installs.
	pointerSwings *obs.Counter
	// flushTxnLogWrites counts flush-transaction log appends (one per
	// value plus one commit per batch), and flushTxnLogBytes their bytes.
	flushTxnLogWrites *obs.Counter
	flushTxnLogBytes  *obs.Counter
	// batches counts batch operations by mode.
	batches [numBatchModes]*obs.Counter
}

// ErrNotFound is returned by Read for absent objects.
var ErrNotFound = errors.New("stable: object not found")

// storeShards stripes the object map so concurrent readers (parallel redo
// workers faulting objects in) never contend on one mutex.  Power of two.
const storeShards = 32

var shardSeed = maphash.MakeSeed()

type storeShard struct {
	mu      sync.RWMutex
	objects map[op.ObjectID]Versioned
}

// Store is the simulated stable database.  Safe for concurrent use: reads
// take only the owning shard's read lock plus atomic counters, so parallel
// redo scales; batch writes (and their crash-injection state) serialize on
// batchMu, preserving the single-writer atomicity semantics each flush
// mechanism models.
type Store struct {
	shards [storeShards]storeShard

	// batchMu serializes WriteBatch, failure injection, and the pending
	// flush transaction.
	batchMu sync.Mutex

	// ids holds every stored object id in order, so a range enumeration
	// reads only the ids it returns.  Mutated only under batchMu (every
	// object creation and deletion happens there); idsMu lets readers
	// enumerate without taking batchMu.
	idsMu sync.RWMutex
	ids   *ordset.Set[op.ObjectID]

	// obs counts I/O; its handles update atomically, so reads count
	// outside any global lock.
	obs storeObs

	// readDelayNS, when > 0, adds that much simulated device latency to
	// every Read — the disk-resident-store regime parallel redo overlaps.
	// Benchmarks only; nanoseconds, accessed atomically.
	readDelayNS atomic.Int64

	// probe, when non-nil, is consulted before every simulated device
	// write a batch performs; a non-nil error injects a failure at exactly
	// that write boundary (see SetWriteProbe).  Guarded by batchMu.
	probe WriteProbe

	// pending is a committed-but-unapplied flush transaction, repaired by
	// RecoverPending (a real system replays it from the log at restart).
	// Guarded by batchMu.
	pending []Entry
}

// NewStore returns an empty stable store.
func NewStore() *Store {
	s := &Store{ids: &ordset.Set[op.ObjectID]{}}
	for i := range s.shards {
		s.shards[i].objects = make(map[op.ObjectID]Versioned)
	}
	return s
}

func (s *Store) shard(x op.ObjectID) *storeShard {
	return &s.shards[maphash.String(shardSeed, string(x))&(storeShards-1)]
}

// SetObs makes the store count its I/O into r, under the stable.* names;
// nil detaches it.  Call it before the store is shared: the handles are
// read without synchronization.
func (s *Store) SetObs(r *obs.Registry) {
	s.obs = storeObs{
		objectReads:       r.Counter("stable.object_reads"),
		objectWrites:      r.Counter("stable.object_writes"),
		objectWriteBytes:  r.Counter("stable.object_write_bytes"),
		pointerSwings:     r.Counter("stable.pointer_swings"),
		flushTxnLogWrites: r.Counter("stable.flushtxn_log_writes"),
		flushTxnLogBytes:  r.Counter("stable.flushtxn_log_bytes"),
	}
	for m := ModeSingle; int(m) < numBatchModes; m++ {
		s.obs.batches[m] = r.Counter("stable.batches." + m.String())
	}
}

// SetReadDelay models per-read device latency (a disk-backed store) for
// benchmarks; zero (the default) reads at memory speed.
func (s *Store) SetReadDelay(d time.Duration) {
	s.readDelayNS.Store(int64(d))
}

// Read fetches an object.  The returned value aliases nothing.
func (s *Store) Read(x op.ObjectID) (Versioned, error) {
	if d := s.readDelayNS.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	sh := s.shard(x)
	sh.mu.RLock()
	v, ok := sh.objects[x]
	var val []byte
	if ok {
		val = append([]byte(nil), v.Val...)
	}
	sh.mu.RUnlock()
	if !ok {
		return Versioned{}, fmt.Errorf("%w: %q", ErrNotFound, x)
	}
	s.obs.objectReads.Add(1)
	return Versioned{Val: val, VSI: v.VSI}, nil
}

// Contains reports whether x exists without counting an I/O.
func (s *Store) Contains(x op.ObjectID) bool {
	sh := s.shard(x)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.objects[x]
	return ok
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.objects)
		sh.mu.RUnlock()
	}
	return n
}

// IDs returns all object ids in ascending order (no I/O accounting; this is
// a catalog operation).
func (s *Store) IDs() []op.ObjectID {
	s.idsMu.RLock()
	defer s.idsMu.RUnlock()
	return s.ids.Keys()
}

// IDsIn returns the object ids in [lo, hi) in ascending order (hi == ""
// means unbounded).  It costs a logarithmic lookup plus the ids returned.
func (s *Store) IDsIn(lo, hi op.ObjectID) []op.ObjectID {
	s.idsMu.RLock()
	defer s.idsMu.RUnlock()
	var out []op.ObjectID
	s.ids.AscendFrom(lo, func(x op.ObjectID) bool {
		if hi != "" && x >= hi {
			return false
		}
		out = append(out, x)
		return true
	})
	return out
}

// WriteProbe is consulted before each simulated device write inside
// WriteBatch — one consult per in-place write, shadow write, pointer swing,
// and flush-transaction log write, in batch order.  Returning a non-nil
// error injects a failure at exactly that I/O boundary, leaving the store
// in the state the real mechanism would leave there.  The fault layer's
// Plan.StableProbe produces deterministic, replayable probes.
type WriteProbe func() error

// SetWriteProbe installs the fault probe; nil removes it.
func (s *Store) SetWriteProbe(p WriteProbe) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	s.probe = p
}

// probeErr consults the write probe, if any.  Caller holds batchMu.
func (s *Store) probeErr() error {
	if s.probe == nil {
		return nil
	}
	return s.probe()
}

// WriteBatch writes entries under the given atomicity mode.
//
// ModeSingle requires exactly one entry.  Under injected failure the store
// is left in the state the real mechanism would leave: unchanged (shadow
// before swing, flush transaction before commit), torn (unsafe), or fully
// old with a pending repair (flush transaction after commit — see
// RecoverPending).
func (s *Store) WriteBatch(entries []Entry, mode BatchMode) error {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if len(entries) == 0 {
		return nil
	}
	if mode == ModeSingle && len(entries) != 1 {
		return fmt.Errorf("stable: ModeSingle batch has %d entries", len(entries))
	}
	if int(mode) < numBatchModes {
		s.obs.batches[mode].Inc()
	}
	switch mode {
	case ModeSingle:
		if err := s.probeErr(); err != nil {
			return fmt.Errorf("stable: single write: %w", err)
		}
		s.applyEntry(entries[0])
		return nil

	case ModeUnsafe:
		for i, e := range entries {
			if err := s.probeErr(); err != nil {
				// Torn: the first i entries are already applied.
				return fmt.Errorf("stable: unsafe write %d: %w", i, err)
			}
			s.applyEntry(e)
		}
		return nil

	case ModeShadow:
		// Phase 1: write shadow copies (costed as object writes).
		for i, e := range entries {
			if err := s.probeErr(); err != nil {
				// Old state intact: the swing never happened.
				return fmt.Errorf("stable: shadow write %d: %w", i, err)
			}
			s.obs.objectWrites.Add(1)
			if !e.Delete {
				s.obs.objectWriteBytes.Add(int64(len(e.Val)))
			}
		}
		// Phase 2: atomic pointer swing installs every entry at once.
		if err := s.probeErr(); err != nil {
			return fmt.Errorf("stable: shadow swing: %w", err)
		}
		s.obs.pointerSwings.Add(1)
		for _, e := range entries {
			s.installEntry(e)
		}
		return nil

	case ModeFlushTxn:
		// Phase 1: log each value to the flush-transaction log.
		for i, e := range entries {
			if err := s.probeErr(); err != nil {
				// Before commit: old state intact.
				return fmt.Errorf("stable: flush-txn log write %d: %w", i, err)
			}
			s.obs.flushTxnLogWrites.Add(1)
			if !e.Delete {
				s.obs.flushTxnLogBytes.Add(int64(len(e.Val)))
			}
		}
		// Commit record (forced).
		s.obs.flushTxnLogWrites.Add(1)
		s.pending = cloneEntries(entries)
		// Phase 2: in-place writes; a crash here leaves pending set, and
		// RecoverPending finishes the job (idempotently).
		for i, e := range entries {
			if err := s.probeErr(); err != nil {
				return fmt.Errorf("stable: flush-txn in-place write %d: %w", i, err)
			}
			s.applyEntry(e)
		}
		s.pending = nil
		return nil
	}
	return fmt.Errorf("stable: unknown batch mode %v", mode)
}

// applyEntry performs and costs one in-place object write.
func (s *Store) applyEntry(e Entry) {
	s.obs.objectWrites.Add(1)
	if !e.Delete {
		s.obs.objectWriteBytes.Add(int64(len(e.Val)))
	}
	s.installEntry(e)
}

// installEntry mutates state without I/O accounting (shadow swing phase).
// Caller holds batchMu, so the id index update below cannot interleave with
// another change to the same id.
func (s *Store) installEntry(e Entry) {
	sh := s.shard(e.ID)
	sh.mu.Lock()
	_, existed := sh.objects[e.ID]
	if e.Delete {
		delete(sh.objects, e.ID)
	} else {
		sh.objects[e.ID] = Versioned{Val: append([]byte(nil), e.Val...), VSI: e.VSI}
	}
	sh.mu.Unlock()
	if existed == e.Delete {
		s.idsMu.Lock()
		if e.Delete {
			s.ids.Delete(e.ID)
		} else {
			s.ids.Insert(e.ID)
		}
		s.idsMu.Unlock()
	}
}

// HasPending reports whether a committed flush transaction awaits repair.
func (s *Store) HasPending() bool {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	return s.pending != nil
}

// RecoverPending applies a committed-but-interrupted flush transaction, as
// restart processing would replay it from the flush-transaction log.  It is
// idempotent and returns the number of entries applied.
func (s *Store) RecoverPending() int {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if s.pending == nil {
		return 0
	}
	n := len(s.pending)
	for _, e := range s.pending {
		s.applyEntry(e)
	}
	s.pending = nil
	return n
}

// Snapshot returns a deep copy of the stored state (test oracle use).
func (s *Store) Snapshot() map[op.ObjectID]Versioned {
	out := make(map[op.ObjectID]Versioned)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for x, v := range sh.objects {
			out[x] = Versioned{Val: append([]byte(nil), v.Val...), VSI: v.VSI}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Restore replaces the stored state with a snapshot (media-recovery /
// backup support and test use).
func (s *Store) Restore(snap map[op.ObjectID]Versioned) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.objects = make(map[op.ObjectID]Versioned)
		sh.mu.Unlock()
	}
	ids := make([]op.ObjectID, 0, len(snap))
	for x, v := range snap {
		sh := s.shard(x)
		sh.mu.Lock()
		sh.objects[x] = Versioned{Val: append([]byte(nil), v.Val...), VSI: v.VSI}
		sh.mu.Unlock()
		ids = append(ids, x)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s.idsMu.Lock()
	s.ids = ordset.FromSorted(ids)
	s.idsMu.Unlock()
	s.pending = nil
}

func cloneEntries(entries []Entry) []Entry {
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = Entry{ID: e.ID, VSI: e.VSI, Delete: e.Delete, Val: append([]byte(nil), e.Val...)}
	}
	return out
}
