package writegraph

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"logicallog/internal/graph"
	"logicallog/internal/op"
)

var seedFlag = flag.Int64("seed", 0, "pin TestIndexesMatchScans to this single seed (0 = the full range)")

// The functions below are the full-scan implementations the indexes
// replaced.  They are the reference the differential test holds the
// indexed code to.

// nodeIDs returns every node id, ascending.
func nodeIDs(wg *Graph) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(wg.nodes))
	//lint:ignore replaydeterminism key collection is order-independent; sorted below
	for id := range wg.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func scanReadWritePredecessors(wg *Graph, o *op.Operation) []graph.NodeID {
	var out []graph.NodeID
	seen := map[graph.NodeID]struct{}{}
	for _, x := range o.WriteSet {
		for _, id := range nodeIDs(wg) {
			if _, ok := wg.nodes[id].reads[x]; ok {
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					out = append(out, id)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scanMergeSet is the set of nodes o merges with: under W every node whose
// Writes meet writeset(o), under rW every node whose vars meet exp(o).
func scanMergeSet(wg *Graph, o *op.Operation) []graph.NodeID {
	var out []graph.NodeID
	for _, id := range nodeIDs(wg) {
		nd := wg.nodes[id]
		set, objs := nd.writes, o.WriteSet
		if wg.policy == PolicyRW {
			set, objs = nd.vars, o.Exp()
		}
		for _, x := range objs {
			if _, ok := set[x]; ok {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func scanMinMinimal(wg *Graph) (graph.NodeID, bool) {
	var best graph.NodeID
	found := false
	for _, id := range nodeIDs(wg) {
		if wg.g.InDegree(id) == 0 && (!found || id < best) {
			best, found = id, true
		}
	}
	return best, found
}

func scanOpCount(wg *Graph) int {
	n := 0
	for _, id := range nodeIDs(wg) {
		n += len(wg.nodes[id].ops)
	}
	return n
}

func scanNodeOfOp(wg *Graph, lsn op.SI) (graph.NodeID, bool) {
	for _, id := range nodeIDs(wg) {
		for _, o := range wg.nodes[id].ops {
			if o.LSN == lsn {
				return id, true
			}
		}
	}
	return 0, false
}

// mergeSetOf is what the indexed AddOp merges o with.
func mergeSetOf(wg *Graph, o *op.Operation) []graph.NodeID {
	if wg.policy == PolicyRW {
		return sortedUnique(wg.varHolders(o.Exp()))
	}
	return sortedUnique(wg.varHolders(o.WriteSet))
}

// checkAgainstScans compares every index-backed answer with its scan.
func checkAgainstScans(t *testing.T, wg *Graph, maxLSN op.SI, where string) {
	t.Helper()
	if err := wg.Validate(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	gotMin, gotOK := wg.MinMinimal()
	wantMin, wantOK := scanMinMinimal(wg)
	if gotMin != wantMin || gotOK != wantOK {
		t.Fatalf("%s: MinMinimal = %d,%v, scan says %d,%v", where, gotMin, gotOK, wantMin, wantOK)
	}
	if mins := wg.Minimal(); wantOK && (len(mins) == 0 || mins[0] != wantMin) {
		t.Fatalf("%s: Minimal = %v, scan minimum %d", where, mins, wantMin)
	}
	if got, want := wg.OpCount(), scanOpCount(wg); got != want {
		t.Fatalf("%s: OpCount = %d, scan says %d", where, got, want)
	}
	for lsn := op.SI(1); lsn <= maxLSN; lsn++ {
		gotID, gotOK := wg.NodeOfOp(lsn)
		wantID, wantOK := scanNodeOfOp(wg, lsn)
		if gotID != wantID || gotOK != wantOK {
			t.Fatalf("%s: NodeOfOp(%d) = %d,%v, scan says %d,%v", where, lsn, gotID, gotOK, wantID, wantOK)
		}
	}
}

// TestIndexesMatchScans drives W and rW graphs through random operation
// streams with identity-write breakups, cycle collapses, and removals, and
// after every step holds the reader index, merge-set lookup, root set, op
// counter, and op index to the full scans they replaced.
func TestIndexesMatchScans(t *testing.T) {
	lo, hi := int64(1), int64(61)
	if *seedFlag != 0 {
		lo, hi = *seedFlag, *seedFlag+1
	}
	var collapses, breakups, removes int
	for seed := lo; seed < hi; seed++ {
		for _, policy := range []Policy{PolicyW, PolicyRW} {
			c, b, r := runIndexScenario(t, seed, policy)
			collapses += c
			breakups += b
			removes += r
		}
	}
	t.Logf("%d cycle collapses, %d identity-write breakups, %d removes", collapses, breakups, removes)
	if *seedFlag == 0 && (collapses == 0 || breakups == 0 || removes == 0) {
		t.Errorf("scenarios too tame: %d cycle collapses, %d breakups, %d removes", collapses, breakups, removes)
	}
}

func runIndexScenario(t *testing.T, seed int64, policy Policy) (collapses, breakups, removes int) {
	rng := rand.New(rand.NewSource(seed))
	objects := []op.ObjectID{"a", "b", "c", "d", "e", "f"}
	wg := New(policy)
	var lsn op.SI
	add := func(o *op.Operation, what string) {
		t.Helper()
		lsn++
		o.LSN = lsn
		if got, want := wg.readWritePredecessors(o), scanReadWritePredecessors(wg, o); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d %v lsn %d: predecessors %v, scan says %v", seed, policy, lsn, got, want)
		}
		if got, want := mergeSetOf(wg, o), scanMergeSet(wg, o); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d %v lsn %d: merge set %v, scan says %v", seed, policy, lsn, got, want)
		}
		if _, err := wg.AddOp(o); err != nil {
			t.Fatalf("seed %d %v: %s: %v", seed, policy, what, err)
		}
	}
	for step := 0; step < 80; step++ {
		switch r := rng.Intn(10); {
		case r < 2 && wg.Len() > 0:
			id, _ := wg.MinMinimal()
			if mins := wg.Minimal(); rng.Intn(2) == 0 {
				id = mins[rng.Intn(len(mins))]
			}
			if _, err := wg.Remove(id); err != nil {
				t.Fatalf("seed %d %v: Remove(%d): %v", seed, policy, id, err)
			}
			removes++
		case r < 4 && policy == PolicyRW:
			// Identity-write breakup of some multi-object flush set.
			for _, nv := range wg.Nodes() {
				if len(nv.Vars) < 2 {
					continue
				}
				plan, err := wg.IdentityBreakupPlan(nv.ID)
				if err != nil {
					t.Fatal(err)
				}
				add(op.NewIdentityWrite(plan[0], nil), "identity write")
				breakups++
				break
			}
		default:
			before := wg.CycleCollapses()
			add(randomSetOp(rng, objects, 0), "random op")
			collapses += wg.CycleCollapses() - before
		}
		checkAgainstScans(t, wg, lsn, "after step")
	}
	for wg.Len() > 0 {
		id, ok := wg.MinMinimal()
		if !ok {
			t.Fatalf("seed %d %v: %d nodes but none minimal", seed, policy, wg.Len())
		}
		if _, err := wg.Remove(id); err != nil {
			t.Fatal(err)
		}
		checkAgainstScans(t, wg, lsn, "draining")
	}
	if len(wg.readers) != 0 || len(wg.readersOfLast) != 0 || len(wg.lastWriter) != 0 || len(wg.opNode) != 0 || len(wg.byVar) != 0 {
		t.Errorf("seed %d %v: drained graph keeps index entries: readers %d, readersOfLast %d, lastWriter %d, opNode %d, byVar %d",
			seed, policy, len(wg.readers), len(wg.readersOfLast), len(wg.lastWriter), len(wg.opNode), len(wg.byVar))
	}
	return collapses, breakups, removes
}

// TestValidateCatchesIndexCorruption checks that Validate notices a stale or
// missing entry in each index.
func TestValidateCatchesIndexCorruption(t *testing.T) {
	build := func() *Graph {
		wg := New(PolicyRW)
		addAll(t, wg,
			mkop(1, []op.ObjectID{"X"}, []op.ObjectID{"Y"}),
			mkop(2, []op.ObjectID{"Y"}, []op.ObjectID{"Z"}),
		)
		return wg
	}
	n1, _ := build().NodeOfOp(1)
	for _, tc := range []struct {
		name    string
		corrupt func(wg *Graph)
	}{
		{"reader missing", func(wg *Graph) { delete(wg.readers, "X") }},
		{"reader stale", func(wg *Graph) { wg.readers["Q"] = map[graph.NodeID]struct{}{n1: {}} }},
		{"op count", func(wg *Graph) { wg.opCount++ }},
		{"op index stale", func(wg *Graph) { wg.opNode[99] = n1 }},
		{"op index wrong", func(wg *Graph) { wg.opNode[2] = n1 }},
		{"last reader stale", func(wg *Graph) { wg.readersOfLast["Z"] = map[graph.NodeID]struct{}{n1: {}} }},
		{"last writer stale", func(wg *Graph) { wg.lastWriter["X"] = n1 }},
	} {
		wg := build()
		if err := wg.Validate(); err != nil {
			t.Fatalf("%s: clean graph fails Validate: %v", tc.name, err)
		}
		tc.corrupt(wg)
		if err := wg.Validate(); err == nil {
			t.Errorf("%s: Validate missed the corruption", tc.name)
		}
	}
}

// evolutionDigest drives a seeded stream of additions, identity-write
// breakups, and removals through a graph and hashes the complete graph state
// (every node's ops, vars, Notx, reads, writes, Lastw, and every edge) after
// each step.  It uses only the exported API, so the same digest can be taken
// from any version of the package.
func evolutionDigest(t *testing.T, policy Policy, seeds int64) string {
	h := sha256.New()
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		objects := []op.ObjectID{"a", "b", "c", "d", "e", "f"}
		wg := New(policy)
		var lsn op.SI
		for step := 0; step < 60; step++ {
			switch r := rng.Intn(10); {
			case r < 2 && wg.Len() > 0:
				mins := wg.Minimal()
				if _, err := wg.Remove(mins[rng.Intn(len(mins))]); err != nil {
					t.Fatal(err)
				}
			case r < 4 && policy == PolicyRW:
				for _, nv := range wg.Nodes() {
					if len(nv.Vars) < 2 {
						continue
					}
					plan, err := wg.IdentityBreakupPlan(nv.ID)
					if err != nil {
						t.Fatal(err)
					}
					lsn++
					o := op.NewIdentityWrite(plan[0], nil)
					o.LSN = lsn
					if _, err := wg.AddOp(o); err != nil {
						t.Fatal(err)
					}
					break
				}
			default:
				lsn++
				if _, err := wg.AddOp(randomSetOp(rng, objects, lsn)); err != nil {
					t.Fatal(err)
				}
			}
			nodes := wg.Nodes()
			fmt.Fprintf(h, "seed %d step %d merges %d collapses %d\n", seed, step, wg.Merges(), wg.CycleCollapses())
			for _, nv := range nodes {
				var lsns []op.SI
				for _, o := range nv.Ops {
					lsns = append(lsns, o.LSN)
				}
				var lastw []string
				for _, x := range nv.Writes {
					lastw = append(lastw, fmt.Sprintf("%s=%d", x, nv.Lastw[x]))
				}
				fmt.Fprintf(h, "node %d ops %v vars %v notx %v reads %v writes %v lastw %v\n",
					nv.ID, lsns, nv.Vars, nv.Notx, nv.Reads, nv.Writes, lastw)
				for _, to := range nodes {
					if wg.HasEdge(nv.ID, to.ID) {
						fmt.Fprintf(h, "edge %d %d\n", nv.ID, to.ID)
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGraphEvolutionUnchanged pins the complete evolution of W and rW graphs
// over seeded streams to digests taken from the full-scan implementation
// that the indexes replaced: the same nodes, with the same ops, flush sets,
// and edges, after every step.
func TestGraphEvolutionUnchanged(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		want   string
	}{
		{PolicyW, "5d587d789bd47b8383fb82d2821fde8103dd3832f09a08d36a7d85005b2e19d0"},
		{PolicyRW, "260a297139108c43ccddde71fb8e84f7c331eac54d1884aadba508858c3cfa74"},
	} {
		if got := evolutionDigest(t, tc.policy, 40); got != tc.want {
			t.Errorf("%v: graph evolution digest %s, want %s", tc.policy, got, tc.want)
		}
	}
}
