package wal

import (
	"sync"
	"testing"
	"time"

	"logicallog/internal/obs"
	"logicallog/internal/obs/obstest"
	"logicallog/internal/op"
)

// gatedDevice wraps a MemDevice and blocks the first Append until released,
// so a test can pile followers up behind an in-flight leader force.
type gatedDevice struct {
	*MemDevice
	started chan struct{} // closed when the gated Append begins
	release chan struct{} // Append proceeds once this closes
	once    sync.Once
}

func newGatedDevice() *gatedDevice {
	return &gatedDevice{
		MemDevice: NewMemDevice(),
		started:   make(chan struct{}),
		release:   make(chan struct{}),
	}
}

func (d *gatedDevice) Append(p []byte) error {
	d.once.Do(func() {
		close(d.started)
		<-d.release
	})
	return d.MemDevice.Append(p)
}

// TestGroupCommitCoalesces pins the leader/follower protocol: committers
// that arrive while a leader's device write is in flight must not issue
// their own writes once the leader (or a single successor) covers them.
func TestGroupCommitCoalesces(t *testing.T) {
	dev := newGatedDevice()
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	count := countsOf(t, l)

	// One record the leader will force, blocking inside the device.
	leaderLSN, err := l.AppendOp(op.NewPhysicalWrite("x", []byte("v0")))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := l.ForceThrough(leaderLSN); err != nil {
			t.Error(err)
		}
	}()
	<-dev.started // leader is inside the device write

	// Followers append (their records are NOT in the leader's buffer) and
	// force; they must wait, and at most one of them becomes the next
	// leader while the rest coalesce onto its write.
	const followers = 6
	for i := 0; i < followers; i++ {
		lsn, err := l.AppendOp(op.NewPhysicalWrite("x", []byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(lsn op.SI) {
			defer wg.Done()
			if err := l.ForceThrough(lsn); err != nil {
				t.Error(err)
			}
		}(lsn)
	}
	// Give the followers a moment to block on the in-flight force.
	time.Sleep(50 * time.Millisecond)
	close(dev.release)
	wg.Wait()

	forces, coalesced := count("wal.forces"), count("wal.forces_coalesced")
	if forces >= int64(followers+1) {
		t.Fatalf("wal.forces = %d: no coalescing across %d committers", forces, followers+1)
	}
	if forces+coalesced < 2 {
		t.Fatalf("wal.forces=%d wal.forces_coalesced=%d: follower accounting lost", forces, coalesced)
	}
	if got := l.StableLSN(); got != leaderLSN+followers {
		t.Fatalf("StableLSN = %d, want %d", got, leaderLSN+followers)
	}
	// Everything must actually be on the device, in order.
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != followers+1 {
		t.Fatalf("device holds %d records, want %d", len(recs), followers+1)
	}
	for i, rec := range recs {
		if rec.LSN != op.SI(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
}

// TestStatsSnapshotIsDeepClone pins the snapshot race fix: a counter
// snapshot taken concurrently with appenders must share nothing with the
// live counters.
func TestStatsSnapshotIsDeepClone(t *testing.T) {
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	l.SetObs(r)
	if _, err := l.AppendOp(op.NewPhysicalWrite("x", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	before := obstest.Counter(t, snap, "wal.records.op")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if _, err := l.AppendOp(op.NewPhysicalWrite("x", []byte("v"))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Reading the snapshot while the appender runs must be race-free (the
	// -race build enforces this) and must not observe the appender.
	for i := 0; i < 100; i++ {
		if got := snap.Counters["wal.records.op"]; got != before {
			t.Fatalf("snapshot mutated: %d -> %d", before, got)
		}
		_ = r.Snapshot()
	}
	<-done
	if got := obstest.Counter(t, r.Snapshot(), "wal.records.op"); got != before+500 {
		t.Fatalf("live stats = %d, want %d", got, before+500)
	}
}
