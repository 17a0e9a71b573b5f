// Package obstest reads metrics snapshots in tests.
package obstest

import (
	"testing"

	"logicallog/internal/obs"
)

// Counter returns the named counter's value in s.  It fails the test when
// no counter of that name is registered, so a misspelled name cannot
// silently read as zero.
func Counter(tb testing.TB, s obs.Snapshot, name string) int64 {
	tb.Helper()
	v, ok := s.Counters[name]
	if !ok {
		tb.Fatalf("counter %q is not registered", name)
	}
	return v
}
