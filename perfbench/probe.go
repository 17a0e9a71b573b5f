package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/obs"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
)

// timedDomain decorates the server's backend in traced rounds.  The server
// calls it under its backendMu, so calls never overlap.  Each span carries
// the request id of the connection that owns the key: a connection keeps one
// request outstanding, so the backend call for one of its keys belongs to
// that connection's current request.
type timedDomain struct {
	workload.Domain
	lane *obs.Lane
	reqs *[conns]atomic.Int64 // current request id per connection

	busyNs atomic.Int64
	last   [conns]atomic.Int64 // ns of each connection's latest call
	callNs [numKinds]atomic.Int64
	calls  [numKinds]atomic.Int64
}

// owner returns the connection owning key k ("c<n>/...").
func owner(k []byte) int {
	if len(k) > 1 && k[0] == 'c' && k[1] >= '0' && int(k[1]-'0') < conns {
		return int(k[1] - '0')
	}
	return -1
}

func (d *timedDomain) observe(kind opKind, k []byte, start time.Time, sp *obs.Span) {
	ns := time.Since(start).Nanoseconds()
	d.busyNs.Add(ns)
	d.callNs[kind].Add(ns)
	d.calls[kind].Add(1)
	if c := owner(k); c >= 0 {
		d.last[c].Store(ns)
		sp.Arg("req", reqName(c, d.reqs[c].Load()))
	}
	sp.Arg("key", string(k)).End()
}

func (d *timedDomain) Get(k []byte) ([]byte, bool, error) {
	sp := d.lane.Begin("backend.get")
	start := time.Now()
	v, ok, err := d.Domain.Get(k)
	d.observe(opGet, k, start, sp)
	return v, ok, err
}

func (d *timedDomain) Put(k, v []byte) error {
	sp := d.lane.Begin("backend.put")
	start := time.Now()
	err := d.Domain.Put(k, v)
	d.observe(opPut, k, start, sp)
	return err
}

func (d *timedDomain) Range(lo, hi []byte, fn func(k, v []byte) bool) error {
	sp := d.lane.Begin("backend.scan")
	start := time.Now()
	err := d.Domain.Range(lo, hi, fn)
	d.observe(opScan, lo, start, sp)
	return err
}

// timedDevice decorates the WAL device in traced rounds: every device
// append is counted, timed, and recorded as a span.
type timedDevice struct {
	wal.Device
	mu      sync.Mutex // guards lane: appends may come from several forcers
	lane    *obs.Lane
	appends atomic.Int64
	ns      atomic.Int64
}

func (d *timedDevice) Append(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	sp := d.lane.Begin("wal.device_append")
	start := time.Now()
	err := d.Device.Append(p)
	d.ns.Add(time.Since(start).Nanoseconds())
	d.appends.Add(1)
	sp.Arg("bytes", len(p)).End()
	return err
}

func reqName(c int, n int64) string {
	return "c" + strconv.Itoa(c) + "-" + strconv.FormatInt(n, 10)
}
