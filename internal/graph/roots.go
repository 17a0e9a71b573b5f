package graph

import "container/heap"

// rootSet is the set of predecessor-free nodes, kept as an indexed min-heap:
// membership changes cost O(log n) and the smallest root is at ids[0].  The
// Digraph updates it on every edge or node change that can flip a node's
// in-degree between zero and non-zero.
type rootSet struct {
	ids []NodeID
	pos map[NodeID]int // index of each member in ids
}

func newRootSet() rootSet { return rootSet{pos: make(map[NodeID]int)} }

func (r *rootSet) add(n NodeID) {
	if _, ok := r.pos[n]; !ok {
		heap.Push(r, n)
	}
}

func (r *rootSet) drop(n NodeID) {
	if i, ok := r.pos[n]; ok {
		heap.Remove(r, i)
	}
}

func (r *rootSet) has(n NodeID) bool {
	_, ok := r.pos[n]
	return ok
}

// heap.Interface; only the methods above call these.

func (r *rootSet) Len() int           { return len(r.ids) }
func (r *rootSet) Less(i, j int) bool { return r.ids[i] < r.ids[j] }
func (r *rootSet) Swap(i, j int) {
	r.ids[i], r.ids[j] = r.ids[j], r.ids[i]
	r.pos[r.ids[i]] = i
	r.pos[r.ids[j]] = j
}

func (r *rootSet) Push(x any) {
	n := x.(NodeID)
	r.pos[n] = len(r.ids)
	r.ids = append(r.ids, n)
}

func (r *rootSet) Pop() any {
	n := r.ids[len(r.ids)-1]
	r.ids = r.ids[:len(r.ids)-1]
	delete(r.pos, n)
	return n
}
