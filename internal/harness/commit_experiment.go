package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"logicallog/internal/obs"
	"logicallog/internal/op"
	"logicallog/internal/wal"
)

// E12 commit fast-lane parameters.  The burst mix models a commit-heavy
// multi-writer: most appends are blind physical writes, a slice of them
// hammer a few hot objects (the absorption window), and every committer
// group-commits its own batch tail.
const (
	e12Committers = 8
	e12OpsPerG    = 400
	e12HotKeys    = 4
	e12ColdKeys   = 256
	e12ValueBytes = 96
	e12ForceEvery = 16
)

// e12Burst drives the write-burst mix against l from e12Committers
// goroutines and returns the total records appended.
func e12Burst(l *wal.Log) (int64, error) {
	var wg sync.WaitGroup
	errs := make(chan error, e12Committers)
	for g := 0; g < e12Committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			val := make([]byte, e12ValueBytes)
			rng.Read(val)
			var last op.SI
			for i := 0; i < e12OpsPerG; i++ {
				var key op.ObjectID
				if i%4 != 3 {
					// Hot writes: repeated blind updates of a small set,
					// the absorbable half of the mix.
					key = op.ObjectID(fmt.Sprintf("hot%d", rng.Intn(e12HotKeys)))
				} else {
					key = op.ObjectID(fmt.Sprintf("g%d-c%d", g, rng.Intn(e12ColdKeys)))
				}
				val[0], val[1] = byte(i), byte(g)
				lsn, err := l.AppendOp(op.NewPhysicalWrite(key, val))
				if err != nil {
					errs <- err
					return
				}
				last = lsn
				if i%e12ForceEvery == e12ForceEvery-1 {
					if err := l.ForceThrough(last); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	if err := l.Force(); err != nil {
		return 0, err
	}
	return int64(e12Committers) * e12OpsPerG, nil
}

// e12SerialHash runs a deterministic single-threaded slice of the mix on a
// fresh log with the given stream count and returns the sha256 of the
// durable bytes — the byte-identity anchor for the stream-merge invariant.
func e12SerialHash(streams int, absorb bool) (string, error) {
	dev := wal.NewMemDevice()
	l, err := wal.New(dev)
	if err != nil {
		return "", err
	}
	l.SetStreams(streams, absorb)
	rng := rand.New(rand.NewSource(42))
	val := make([]byte, e12ValueBytes)
	rng.Read(val)
	var last op.SI
	for i := 0; i < 600; i++ {
		key := op.ObjectID(fmt.Sprintf("hot%d", rng.Intn(e12HotKeys)))
		if i%4 == 3 {
			key = op.ObjectID(fmt.Sprintf("c%d", rng.Intn(e12ColdKeys)))
		}
		val[0] = byte(i)
		lsn, err := l.AppendOp(op.NewPhysicalWrite(key, val))
		if err != nil {
			return "", err
		}
		last = lsn
		if i%e12ForceEvery == e12ForceEvery-1 {
			if err := l.ForceThrough(last); err != nil {
				return "", err
			}
		}
	}
	if err := l.Force(); err != nil {
		return "", err
	}
	data, err := dev.ReadAll()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// E12CommitStreams measures the commit-path fast lane: the same write-burst
// mix appended through 1..8 per-core log streams, with and without log
// absorption, reporting append throughput, records absorbed, bytes elided,
// and device forces.  The experiment also verifies the fast lane's core
// invariant — the durable byte stream of a serial workload is identical at
// every stream count — and fails loudly if the hashes diverge.
func E12CommitStreams() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "commit fast lane: per-core log streams and absorption (write-burst mix)",
		Paper:   "Section 6 outlook (logging as the whole commit path)",
		Columns: []string{"streams", "absorb", "appends", "appends/ms", "absorbed", "bytes elided", "device forces"},
	}
	configs := []struct {
		streams int
		absorb  bool
	}{
		{1, false}, {1, true}, {2, true}, {4, true}, {8, true},
	}
	var totalAppends, totalForces, totalAbsorbed, totalElided int64
	for _, cfg := range configs {
		l, err := wal.New(wal.NewMemDevice())
		if err != nil {
			return nil, err
		}
		reg := DefaultObs
		if reg == nil {
			reg = obs.NewRegistry()
		}
		l.SetObs(reg)
		l.SetStreams(cfg.streams, cfg.absorb)
		before := reg.Snapshot()
		start := time.Now()
		n, err := e12Burst(l)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		after := reg.Snapshot()
		absorbed := delta(before, after, "wal.absorb.hits")
		elided := delta(before, after, "wal.absorb.bytes_elided")
		forces := delta(before, after, "wal.forces")
		perMS := float64(n) / (float64(wall.Microseconds()) / 1000)
		t.AddRow(cfg.streams, fmt.Sprint(cfg.absorb), n, perMS, absorbed, elided, forces)
		totalAppends += n
		totalForces += forces
		totalAbsorbed += absorbed
		totalElided += elided
	}
	if DefaultObs != nil {
		// The commit metric family, validated by the llbench/v1 schema.
		DefaultObs.Counter("commit.appends").Add(totalAppends)
		DefaultObs.Counter("commit.forces").Add(totalForces)
		DefaultObs.Counter("commit.absorbed").Add(totalAbsorbed)
		DefaultObs.Counter("commit.bytes_elided").Add(totalElided)
	}

	base, err := e12SerialHash(1, true)
	if err != nil {
		return nil, err
	}
	for _, streams := range []int{2, 4, 8} {
		h, err := e12SerialHash(streams, true)
		if err != nil {
			return nil, err
		}
		if h != base {
			return nil, fmt.Errorf("harness: E12: durable log diverges at %d streams: %s vs %s",
				streams, h, base)
		}
	}
	t.Notes = append(t.Notes,
		"absorption elides superseded hot-key writes; the cold slice and read-pinned records always merge in full",
		"serial-workload durable logs are byte-identical at 1/2/4/8 streams (sha256 "+base[:12]+"…): merged order equals single-stream order",
		"appends/ms is machine-dependent; the shape to expect is throughput rising with streams on multi-core hosts",
	)
	return t, nil
}
