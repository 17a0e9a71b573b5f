package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"logicallog/internal/op"
)

// benchLog builds a log with n operation records carrying valSize-byte
// values (the worst case for decoder allocation).
func benchLog(b *testing.B, n, valSize int) *Log {
	b.Helper()
	l, err := New(NewMemDevice())
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, valSize)
	for i := 0; i < n; i++ {
		x := op.ObjectID(fmt.Sprintf("obj%04d", i%64))
		if _, err := l.AppendOp(op.NewPhysicalWrite(x, val)); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkWALScan measures the redo scan's decode path.  Run with -benchmem:
// the aliased decoder keeps per-record allocations flat in the value size.
func BenchmarkWALScan(b *testing.B) {
	for _, valSize := range []int{64, 4 << 10} {
		b.Run(fmt.Sprintf("val=%dB", valSize), func(b *testing.B) {
			l := benchLog(b, 2048, valSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc, err := l.Scan(0)
				if err != nil {
					b.Fatal(err)
				}
				records := 0
				for {
					rec, err := sc.Next()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					if rec.Type == RecOperation {
						records++
					}
				}
				if records != 2048 {
					b.Fatalf("scanned %d records, want 2048", records)
				}
			}
		})
	}
}

// slowDevice models a device with fsync-like append latency, the regime
// group commit exists for.
type slowDevice struct {
	*MemDevice
	delay time.Duration
}

func (d *slowDevice) Append(p []byte) error {
	time.Sleep(d.delay)
	return d.MemDevice.Append(p)
}

// BenchmarkWALGroupCommit measures concurrent committers forcing a log on a
// device with 20µs append latency.  Each iteration appends one record per
// committer and forces it; group commit coalesces the device writes, which
// the wal.forces/wal.forces_coalesced counters expose.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, committers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			l, err := New(&slowDevice{MemDevice: NewMemDevice(), delay: 20 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			count := countsOf(b, l)
			val := make([]byte, 128)
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					x := op.ObjectID(fmt.Sprintf("c%02d", c))
					for i := 0; i < b.N; i++ {
						lsn, err := l.AppendOp(op.NewPhysicalWrite(x, val))
						if err != nil {
							b.Error(err)
							return
						}
						if err := l.ForceThrough(lsn); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			forces, coalesced := count("wal.forces"), count("wal.forces_coalesced")
			if total := forces + coalesced; total > 0 {
				b.ReportMetric(float64(coalesced)/float64(total), "coalesced-frac")
			}
			b.ReportMetric(float64(forces), "device-forces")
		})
	}
}
