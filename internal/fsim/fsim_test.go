package fsim

import (
	"bytes"
	"sort"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/obs/obstest"
	"logicallog/internal/op"
)

func newFS(t *testing.T) (*FS, *core.Engine) {
	t.Helper()
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	Register(eng.Registry())
	return New(eng, "fs"), eng
}

func TestCreateReadWriteRemove(t *testing.T) {
	fs, _ := newFS(t)
	if err := fs.Create("a.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := fs.ReadFile("a.txt")
	if err != nil || string(v) != "hello" {
		t.Fatalf("ReadFile = %q, %v", v, err)
	}
	if err := fs.WriteFile("a.txt", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	v, _ = fs.ReadFile("a.txt")
	if string(v) != "rewritten" {
		t.Errorf("after write: %q", v)
	}
	if !fs.Exists("a.txt") || fs.Exists("nope") {
		t.Error("Exists wrong")
	}
	if err := fs.Remove("a.txt"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a.txt") {
		t.Error("file survives Remove")
	}
	if _, err := fs.ReadFile("a.txt"); err == nil {
		t.Error("reading a removed file succeeded")
	}
}

func TestAppendTruncate(t *testing.T) {
	fs, _ := newFS(t)
	fs.Create("f", []byte("abc"))
	if err := fs.Append("f", []byte("def")); err != nil {
		t.Fatal(err)
	}
	v, _ := fs.ReadFile("f")
	if string(v) != "abcdef" {
		t.Errorf("append: %q", v)
	}
	if err := fs.Truncate("f", 2); err != nil {
		t.Fatal(err)
	}
	v, _ = fs.ReadFile("f")
	if string(v) != "ab" {
		t.Errorf("truncate: %q", v)
	}
	// Truncating longer than the file is a no-op.
	if err := fs.Truncate("f", 100); err != nil {
		t.Fatal(err)
	}
	v, _ = fs.ReadFile("f")
	if string(v) != "ab" {
		t.Errorf("over-truncate: %q", v)
	}
}

func TestCopySortConcat(t *testing.T) {
	fs, _ := newFS(t)
	fs.Create("src", []byte("dcba"))
	if err := fs.Copy("dst", "src"); err != nil {
		t.Fatal(err)
	}
	v, _ := fs.ReadFile("dst")
	if string(v) != "dcba" {
		t.Errorf("copy: %q", v)
	}
	if err := fs.Sort("sorted", "src"); err != nil {
		t.Fatal(err)
	}
	v, _ = fs.ReadFile("sorted")
	if string(v) != "abcd" {
		t.Errorf("sort: %q", v)
	}
	if err := fs.Concat("both", "src", "sorted"); err != nil {
		t.Fatal(err)
	}
	v, _ = fs.ReadFile("both")
	if string(v) != "dcbaabcd" {
		t.Errorf("concat: %q", v)
	}
}

func TestLogicalOpsLogOnlyIDs(t *testing.T) {
	fs, eng := newFS(t)
	big := bytes.Repeat([]byte("payload!"), 16*1024) // 128 KiB
	fs.Create("big", big)
	eng.ResetStats()
	if err := fs.Copy("copy", "big"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sort("sorted", "big"); err != nil {
		t.Fatal(err)
	}
	st := eng.Metrics()
	if obstest.Counter(t, st, "wal.value_bytes") != 0 {
		t.Errorf("logical copy/sort logged %d value bytes", obstest.Counter(t, st, "wal.value_bytes"))
	}
	if st.Sum("wal.op_payload_bytes.") > 256 {
		t.Errorf("logical copy/sort payload = %d bytes; want id-sized", st.Sum("wal.op_payload_bytes."))
	}
	// The physiological versions log the whole file.
	eng.ResetStats()
	if err := fs.CopyPhysical("copy2", "big"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SortPhysical("sorted2", "big"); err != nil {
		t.Fatal(err)
	}
	if got := obstest.Counter(t, eng.Metrics(), "wal.value_bytes"); got < int64(2*len(big)) {
		t.Errorf("physical copy/sort logged %d bytes, want >= %d", got, 2*len(big))
	}
	// Both paths produce identical contents.
	a, _ := fs.ReadFile("copy")
	b, _ := fs.ReadFile("copy2")
	if !bytes.Equal(a, b) {
		t.Error("logical and physical copies differ")
	}
	s1, _ := fs.ReadFile("sorted")
	s2, _ := fs.ReadFile("sorted2")
	if !bytes.Equal(s1, s2) {
		t.Error("logical and physical sorts differ")
	}
	if !sort.SliceIsSorted(s1, func(i, j int) bool { return s1[i] < s1[j] }) {
		t.Error("sort output unsorted")
	}
}

func TestFilesSurviveCrash(t *testing.T) {
	fs, eng := newFS(t)
	fs.Create("keep", []byte("zyx"))
	fs.Copy("copy", "keep")
	fs.Sort("sorted", "keep")
	fs.Create("tmp", []byte("scratch"))
	fs.Remove("tmp")
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"keep": "zyx", "copy": "zyx", "sorted": "xyz"} {
		v, err := fs.ReadFile(name)
		if err != nil || string(v) != want {
			t.Errorf("recovered %s = %q, %v", name, v, err)
		}
	}
	if fs.Exists("tmp") {
		t.Error("removed file resurrected")
	}
}

func TestCopyChainSurvivesCrashMidFlush(t *testing.T) {
	// A chain of copies builds real flush dependencies; crash with some of
	// them installed.
	fs, eng := newFS(t)
	fs.Create(fname(0), []byte("root"))
	for i := 1; i <= 5; i++ {
		if err := fs.Copy(fname(i), fname(i-1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.InstallOne(); err != nil {
		t.Fatal(err)
	}
	if err := eng.InstallOne(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 5; i++ {
		v, err := fs.ReadFile(fname(i))
		if err != nil || string(v) != "root" {
			t.Errorf("recovered %s = %q, %v", fname(i), v, err)
		}
	}
}

func fname(i int) string {
	return string(rune('a'+i)) + ".dat"
}

func TestList(t *testing.T) {
	fs, eng := newFS(t)
	fs.Create("b", []byte("2"))
	fs.Create("a", []byte("1"))
	fs.Create("doomed", []byte("3"))
	fs.Remove("doomed")
	// No flush: a created-but-never-installed file must still be listed.
	got, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("List = %v", got)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A deletion that reached the stable store stays hidden too.
	if got, err = fs.List(); err != nil || len(got) != 2 {
		t.Errorf("List after flush = %v, %v", got, err)
	}
	// A second FS namespace is invisible.
	other := New(eng, "other")
	other.Create("c", []byte("x"))
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got, err = fs.List(); err != nil || len(got) != 2 {
		t.Errorf("namespaces leaked: %v, %v", got, err)
	}
	if got, err = other.List(); err != nil || len(got) != 1 {
		t.Errorf("other namespace = %v, %v", got, err)
	}
}

func TestTruncateBadParams(t *testing.T) {
	fs, eng := newFS(t)
	fs.Create("f", []byte("abc"))
	bad := op.NewPhysioWrite(op.ObjectID("fs/f"), FuncTruncate, []byte("junk"))
	if err := eng.Execute(bad); err == nil {
		t.Error("bad truncate params accepted")
	}
}
