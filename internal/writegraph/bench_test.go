package writegraph

import (
	"fmt"
	"testing"

	"logicallog/internal/op"
)

// BenchmarkWriteGraphAddOp measures AddOp on a graph holding n to 2n
// uninstalled nodes, for blind writes (each adds a node and peels its object
// out of the previous writer's flush set under rW) and read-modify-writes
// (each merges into the node holding its object).  Every n operations the
// graph is rebuilt off the clock, so the size stays in [n, 2n).  A per-op
// cost that does not grow from n=1k to n=32k is the point.
func BenchmarkWriteGraphAddOp(b *testing.B) {
	for _, policy := range []Policy{PolicyW, PolicyRW} {
		for _, kind := range []string{"blind", "rmw"} {
			for _, n := range []int{1 << 10, 1 << 15} {
				b.Run(fmt.Sprintf("%v/%s/nodes=%dk", policy, kind, n>>10), func(b *testing.B) {
					benchAddOp(b, policy, kind == "rmw", n)
				})
			}
		}
	}
}

func benchAddOp(b *testing.B, policy Policy, rmw bool, n int) {
	objects := make([]op.ObjectID, n)
	for i := range objects {
		objects[i] = op.ObjectID(fmt.Sprintf("k%06d", i))
	}
	var wg *Graph
	var lsn op.SI
	next := func(x op.ObjectID) *op.Operation {
		lsn++
		if rmw {
			return mkop(lsn, []op.ObjectID{x}, []op.ObjectID{x})
		}
		return mkop(lsn, nil, []op.ObjectID{x})
	}
	// prefill builds a graph of n single-object blind-write nodes.
	prefill := func() {
		wg, lsn = New(policy), 0
		for _, x := range objects {
			if _, err := wg.AddOp(next(x)); err != nil {
				b.Fatal(err)
			}
		}
	}
	ops := make([]*op.Operation, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		if j == 0 {
			b.StopTimer()
			prefill()
			for k, x := range objects {
				ops[k] = next(x)
			}
			b.StartTimer()
		}
		if _, err := wg.AddOp(ops[j]); err != nil {
			b.Fatal(err)
		}
	}
}
