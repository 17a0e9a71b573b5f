// Package ordset is an ordered set with logarithmic lookups, for indexes that
// must enumerate a key range without visiting the rest of the keys.
//
// The set is a sorted list of sorted chunks of at most chunkMax keys: a
// lookup binary-searches the chunk list and then the chunk, an insert or
// delete shifts at most one chunk, and a range visit costs one lookup plus
// the keys visited.  The zero value is an empty set.  A Set is not safe for
// concurrent use.
package ordset

import (
	"cmp"
	"slices"
	"sort"
)

// chunkMax bounds a chunk's length; a full chunk splits in two, and a chunk
// that shrinks below chunkMax/4 merges into its successor when both fit.
const chunkMax = 256

// Set is an ordered set of keys.
type Set[K cmp.Ordered] struct {
	chunks [][]K // non-empty, each sorted, in ascending key order
	n      int
}

// FromSorted builds a set from strictly ascending keys (it keeps no
// reference to keys).
func FromSorted[K cmp.Ordered](keys []K) *Set[K] {
	s := &Set[K]{n: len(keys)}
	for len(keys) > 0 {
		c := min(len(keys), chunkMax/2)
		s.chunks = append(s.chunks, slices.Clone(keys[:c]))
		keys = keys[c:]
	}
	return s
}

// Len returns the number of keys.
func (s *Set[K]) Len() int { return s.n }

// chunkFor returns the index of the first chunk whose last key is >= k, or
// len(s.chunks) when k is above every key.
func (s *Set[K]) chunkFor(k K) int {
	return sort.Search(len(s.chunks), func(i int) bool {
		c := s.chunks[i]
		return c[len(c)-1] >= k
	})
}

// Contains reports whether k is in the set.
func (s *Set[K]) Contains(k K) bool {
	ci := s.chunkFor(k)
	if ci == len(s.chunks) {
		return false
	}
	_, found := slices.BinarySearch(s.chunks[ci], k)
	return found
}

// Insert adds k and reports whether it was absent.
func (s *Set[K]) Insert(k K) bool {
	if len(s.chunks) == 0 {
		s.chunks = [][]K{{k}}
		s.n = 1
		return true
	}
	ci := s.chunkFor(k)
	if ci == len(s.chunks) {
		ci-- // above every key: extend the last chunk
	}
	c := s.chunks[ci]
	i, found := slices.BinarySearch(c, k)
	if found {
		return false
	}
	c = slices.Insert(c, i, k)
	if len(c) > chunkMax {
		half := len(c) / 2
		s.chunks = slices.Insert(s.chunks, ci+1, slices.Clone(c[half:]))
		c = c[:half]
	}
	s.chunks[ci] = c
	s.n++
	return true
}

// Delete removes k and reports whether it was present.
func (s *Set[K]) Delete(k K) bool {
	ci := s.chunkFor(k)
	if ci == len(s.chunks) {
		return false
	}
	c := s.chunks[ci]
	i, found := slices.BinarySearch(c, k)
	if !found {
		return false
	}
	c = slices.Delete(c, i, i+1)
	s.n--
	switch {
	case len(c) == 0:
		s.chunks = slices.Delete(s.chunks, ci, ci+1)
		return true
	case len(c) < chunkMax/4 && ci+1 < len(s.chunks) && len(c)+len(s.chunks[ci+1]) <= chunkMax:
		c = append(c, s.chunks[ci+1]...)
		s.chunks = slices.Delete(s.chunks, ci+1, ci+2)
	}
	s.chunks[ci] = c
	return true
}

// AscendFrom calls fn on every key >= lo in ascending order until fn
// returns false.
func (s *Set[K]) AscendFrom(lo K, fn func(K) bool) {
	ci := s.chunkFor(lo)
	if ci == len(s.chunks) {
		return
	}
	i, _ := slices.BinarySearch(s.chunks[ci], lo)
	for ; ci < len(s.chunks); ci, i = ci+1, 0 {
		for _, k := range s.chunks[ci][i:] {
			if !fn(k) {
				return
			}
		}
	}
}

// Keys returns every key in ascending order.
func (s *Set[K]) Keys() []K {
	out := make([]K, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}
