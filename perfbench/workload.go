package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// conns is the number of client connections.  Each is a closed loop (one
// request outstanding) over its own key set, so every reply is checkable
// against that connection's model alone.
const conns = 2

// valSize is the value size of every Put and preloaded key.
const valSize = 100

// scanKeys is how many consecutive preloaded keys a Scan's range covers.
const scanKeys = 16

// zipfS is the Zipf exponent of key popularity.
const zipfS = 1.1

// spec is one workload: a traffic mix over one backend.  Every workload runs the
// same round (see round.go): set up, a timed closed-loop load through the
// server, then a crash and a restart under Get load with a full-redo twin.
type spec struct {
	name    string
	backend string // server.OpenBackend name
	preload int    // keys written and installed before the timed load
	// suffix > 0 makes the timed load a restart: after the preload a
	// checkpoint, suffix durable overwrites, and a crash; the load starts
	// with on-demand recovery and ends when both it and the drain are done.
	suffix int
	ops    int // the timed load's requests over all connections
	// loads is how many times a restart workload runs its timed load per
	// round, each on a fresh restart of the same crashed image.
	loads int
	// restarts is how many crash-and-restart probes follow the timed load;
	// more where a restart is short, so its timings have company.
	restarts int
	getPct   int
	scanPct  int  // the rest are Puts
	fresh    bool // Puts insert new keys between preloaded ones instead of overwriting
}

func workloads() []spec {
	return []spec{
		// The write path: nearly every request is core.Execute -> cache ->
		// writegraph.AddOp -> wal append, where per-op cost grows with the
		// uninstalled write graph.  Nothing is forced, so the restart has
		// nothing to redo.
		{
			name:    "kv-update",
			backend: "kv", preload: 2048, ops: 12000, restarts: 10,
			getPct: 10, scanPct: 5,
		},
		// The read path: server framing and backendMu around multi-op btree
		// traversals.  Fresh-key Puts split leaves, but the write graph
		// stays small, so a write-path change should not move it.
		{
			name:    "btree-read-scan",
			backend: "btree", preload: 2048, ops: 30000, restarts: 10,
			getPct: 80, scanPct: 10, fresh: true,
		},
		// Serving during redo: the load starts on a crashed image with a
		// long durable suffix, so recovery and cold stable reads do the
		// work that the other workloads never reach.
		{
			name:    "kv-restart",
			backend: "kv", preload: 2048, suffix: 8192, ops: 1000, loads: 3, restarts: 1,
			getPct: 70, scanPct: 15,
		},
	}
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// key names connection c's i-th preloaded key.  Connections own disjoint
// key ranges, so a scan inside one range sees only its owner's keys.
func key(c, i int) string { return fmt.Sprintf("c%d/%06d", c, i) }

// freshKey sorts between key(c, i) and key(c, i+1).
func freshKey(c, i, seq int) string { return fmt.Sprintf("c%d/%06d.%06d", c, i, seq) }

// value draws a deterministic value.
func value(rng *rand.Rand) []byte {
	v := make([]byte, valSize)
	rng.Read(v)
	return v
}

// model is one connection's expected state: every key it owns and the last
// value acknowledged for it.
type model struct {
	keys    []string // sorted
	vals    map[string][]byte
	written map[string]bool // keys Put during the timed load
}

func newModel() *model {
	return &model{vals: make(map[string][]byte), written: make(map[string]bool)}
}

func (m *model) set(k string, v []byte) {
	if _, ok := m.vals[k]; !ok {
		i := sort.SearchStrings(m.keys, k)
		m.keys = append(m.keys, "")
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = k
	}
	m.vals[k] = v
}

// span returns the expected pairs of a scan over [lo, hi).
func (m *model) span(lo, hi string) []string {
	i := sort.SearchStrings(m.keys, lo)
	j := sort.SearchStrings(m.keys, hi)
	return m.keys[i:j]
}

// opKind is a request type; the values index per-type latency arrays.
type opKind int

const (
	opGet opKind = iota
	opPut
	opScan
	numKinds
)

func (k opKind) String() string { return [...]string{"get", "put", "scan"}[k] }

// request is one generated client operation.
type request struct {
	kind opKind
	key  string // Get/Put key, Scan lower bound
	hi   string // Scan upper bound
	val  []byte
}

// generator draws one connection's request stream.  It depends only on the
// seed and the connection, never on timing, so a seed fixes the inputs.
type generator struct {
	w    spec
	c    int
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int // popularity rank -> key index, so hot keys are scattered
	seq  int
}

func newGenerator(w spec, seed int64, c int) *generator {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
	n := w.preload / conns
	return &generator{
		w:    w,
		c:    c,
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)),
		perm: rng.Perm(n),
	}
}

func (g *generator) next() request {
	i := g.perm[g.zipf.Uint64()]
	r := g.rng.Intn(100)
	switch {
	case r < g.w.getPct:
		return request{kind: opGet, key: key(g.c, i)}
	case r < g.w.getPct+g.w.scanPct:
		i = min(i, g.w.preload/conns-scanKeys)
		return request{kind: opScan, key: key(g.c, i), hi: key(g.c, i+scanKeys)}
	}
	k := key(g.c, i)
	if g.w.fresh {
		g.seq++
		k = freshKey(g.c, i, g.seq)
	}
	return request{kind: opPut, key: k, val: value(g.rng)}
}

// image is the deterministic pre-load content: every connection's model
// after the preload (and, for a restart workload, the durable suffix).
type image struct {
	preload [conns][][]byte // preload[c][i]: value of key(c, i)
	suffix  []suffixWrite   // overwrites after the checkpoint
	models  [conns]*model   // state after preload + suffix
}

type suffixWrite struct {
	c, i int
	val  []byte
}

func newImage(w spec, seed int64) *image {
	rng := rand.New(rand.NewSource(seed))
	im := &image{}
	n := w.preload / conns
	for c := range conns {
		im.models[c] = newModel()
		im.preload[c] = make([][]byte, n)
		for i := range n {
			v := value(rng)
			im.preload[c][i] = v
			im.models[c].set(key(c, i), v)
		}
	}
	// The suffix overwrites every key equally often, in shuffled passes, so
	// every key's redo chain has the same length whatever the seed; the
	// seed only orders the writes.
	for len(im.suffix) < w.suffix {
		for _, j := range rng.Perm(n * conns) {
			if len(im.suffix) == w.suffix {
				break
			}
			c, i := j%conns, j/conns
			v := value(rng)
			im.suffix = append(im.suffix, suffixWrite{c: c, i: i, val: v})
			im.models[c].set(key(c, i), v)
		}
	}
	return im
}

// freshModels copies the image's models for one round's load to mutate.
func (im *image) freshModels() [conns]*model {
	var out [conns]*model
	for c, m := range im.models {
		cp := newModel()
		cp.keys = append([]string(nil), m.keys...)
		for k, v := range m.vals {
			cp.vals[k] = v
		}
		out[c] = cp
	}
	return out
}
