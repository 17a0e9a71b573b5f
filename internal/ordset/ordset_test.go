package ordset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestSetMatchesMap applies random inserts and deletes, dense enough to
// split and merge chunks, and checks the set against a map after each.
func TestSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &Set[int]{}
	ref := map[int]bool{}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(3000)
		if rng.Intn(3) == 0 {
			if got, want := s.Delete(k), ref[k]; got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, got, want)
			}
			delete(ref, k)
		} else {
			if got, want := s.Insert(k), !ref[k]; got != want {
				t.Fatalf("step %d: Insert(%d) = %v, want %v", step, k, got, want)
			}
			ref[k] = true
		}
		if step%97 != 0 {
			continue
		}
		want := make([]int, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Ints(want)
		if got := s.Keys(); s.Len() != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Keys() has %d keys (Len %d), want %d", step, len(got), s.Len(), len(want))
		}
		checkChunks(t, s)
		lo := rng.Intn(3100)
		var from []int
		s.AscendFrom(lo, func(k int) bool {
			from = append(from, k)
			return len(from) < 20
		})
		i := sort.SearchInts(want, lo)
		if wantFrom := want[i:min(i+20, len(want))]; !reflect.DeepEqual(from, wantFrom) && len(from)+len(wantFrom) > 0 {
			t.Fatalf("step %d: AscendFrom(%d) = %v, want %v", step, lo, from, wantFrom)
		}
		if s.Contains(lo) != ref[lo] {
			t.Fatalf("step %d: Contains(%d) = %v", step, lo, s.Contains(lo))
		}
	}
	// Drain in random order: chunks shrink, merge, and empty out.
	keys := s.Keys()
	for i, j := range rng.Perm(len(keys)) {
		if !s.Delete(keys[j]) {
			t.Fatalf("drain: Delete(%d) found nothing", keys[j])
		}
		if i%50 == 0 {
			checkChunks(t, s)
		}
	}
	if s.Len() != 0 || len(s.chunks) != 0 {
		t.Errorf("drained set: Len %d, %d chunks", s.Len(), len(s.chunks))
	}
}

func checkChunks(t *testing.T, s *Set[int]) {
	t.Helper()
	for i, c := range s.chunks {
		if len(c) == 0 || len(c) > chunkMax {
			t.Fatalf("chunk %d has %d keys", i, len(c))
		}
	}
}

func TestFromSorted(t *testing.T) {
	keys := make([]int, 1000)
	for i := range keys {
		keys[i] = 2 * i
	}
	s := FromSorted(keys)
	keys[0] = -1 // the set must not alias its input
	if s.Len() != 1000 || s.Keys()[0] != 0 || !s.Contains(1998) || s.Contains(1) {
		t.Fatalf("FromSorted set: Len %d, first %d", s.Len(), s.Keys()[0])
	}
	checkChunks(t, s)
	if !s.Insert(1) || s.Keys()[1] != 1 {
		t.Error("insert into a built set misplaced the key")
	}
	if empty := FromSorted[int](nil); empty.Len() != 0 || empty.Contains(0) || empty.Delete(0) {
		t.Error("empty FromSorted set is not empty")
	}
}
