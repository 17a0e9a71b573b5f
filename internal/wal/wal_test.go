package wal

import (
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"logicallog/internal/obs"
	"logicallog/internal/obs/obstest"
	"logicallog/internal/op"
)

func mustAppend(t *testing.T, l *Log, rec *Record) op.SI {
	t.Helper()
	lsn, err := l.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return lsn
}

func TestRecordValidate(t *testing.T) {
	good := NewOpRecord(op.NewPhysicalWrite("X", []byte("v")))
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []*Record{
		{Type: RecOperation},                                                       // no payload
		{Type: RecInstall, Flush: &FlushRecord{}},                                  // wrong payload
		{Type: RecInvalid, Flush: &FlushRecord{}},                                  // invalid type
		{Type: RecOperation, Op: &op.Operation{}},                                  // invalid op
		{Type: RecFlush, Flush: &FlushRecord{}, Op: op.NewPhysicalWrite("X", nil)}, // two payloads
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d validated", i)
		}
	}
	if RecOperation.String() != "op" || RecCheckpoint.String() != "checkpoint" ||
		RecInstall.String() != "install" || RecFlush.String() != "flush" || RecordType(77).String() == "" {
		t.Error("RecordType.String wrong")
	}
}

func TestCodecRoundTripAllTypes(t *testing.T) {
	recs := []*Record{
		NewOpRecord(op.NewLogical(op.FuncXor, op.EncodeParams([]byte("Y"), []byte("X")),
			[]op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"})),
		NewOpRecord(op.NewPhysicalWrite("X", []byte{0, 1, 2, 255})),
		NewOpRecord(op.NewIdentityWrite("obj/with/long-name", make([]byte, 1000))),
		NewOpRecord(op.NewDelete("A", "B")),
		NewInstallRecord(
			[]ObjectRSI{{ID: "Y", RSI: 9}},
			[]ObjectRSI{{ID: "X", RSI: 12}},
			[]op.SI{3, 1, 2},
		),
		NewFlushRecord("P", 42),
		NewCheckpointRecord([]DirtyEntry{{ID: "b", RSI: 2}, {ID: "a", RSI: 7}}),
	}
	for i, rec := range recs {
		rec.LSN = op.SI(i + 1)
		if rec.Op != nil {
			rec.Op.LSN = rec.LSN
		}
		payload, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("rec %d decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(rec), normalize(got)) {
			t.Errorf("rec %d round trip:\n want %+v\n got  %+v", i, rec, got)
		}
	}
}

// normalize clears fields the codec legitimately canonicalizes.
func normalize(r *Record) *Record {
	c := *r
	if r.Op != nil {
		o := r.Op.Clone()
		if len(o.Params) == 0 {
			o.Params = nil
		}
		c.Op = o
	}
	return &c
}

func TestInstallRecordCanonicalOrder(t *testing.T) {
	rec := NewInstallRecord(
		[]ObjectRSI{{ID: "z", RSI: 1}, {ID: "a", RSI: 2}},
		nil,
		[]op.SI{5, 3},
	)
	if rec.Install.Flushed[0].ID != "a" || rec.Install.Ops[0] != 3 {
		t.Error("install record not canonicalized")
	}
}

func TestCheckpointRedoStart(t *testing.T) {
	c := &CheckpointRecord{Dirty: []DirtyEntry{{ID: "a", RSI: 9}, {ID: "b", RSI: 4}}}
	if got := c.RedoStart(100); got != 4 {
		t.Errorf("RedoStart = %d", got)
	}
	empty := &CheckpointRecord{}
	if got := empty.RedoStart(100); got != 100 {
		t.Errorf("empty RedoStart = %d", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rec := NewOpRecord(op.NewPhysicalWrite("X", []byte("hello")))
	rec.LSN = 1
	payload, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations must error, not panic.
	for cut := 1; cut < len(payload); cut++ {
		if _, err := DecodeRecord(payload[:cut]); err == nil {
			// Some prefixes can decode to a shorter valid record only if
			// trailing-byte detection fails; that must not happen.
			t.Errorf("truncated payload (len %d) decoded", cut)
		}
	}
	if _, err := DecodeRecord(append(payload, 0x01)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeRecord([]byte{99, 1}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestFrameUnframe(t *testing.T) {
	payload := []byte("some payload")
	frame := Frame(payload)
	got, n, err := Unframe(frame)
	if err != nil || n != len(frame) || string(got) != string(payload) {
		t.Fatalf("Unframe = %q, %d, %v", got, n, err)
	}
	// CRC mismatch.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := Unframe(bad); err == nil {
		t.Error("corrupt frame accepted")
	}
	// Short frame.
	if _, _, err := Unframe(frame[:5]); err == nil {
		t.Error("short frame accepted")
	}
	if _, _, err := Unframe(frame[:len(frame)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestAppendForceScan(t *testing.T) {
	l, err := New(NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	o1 := op.NewPhysicalWrite("X", []byte("1"))
	l1 := mustAppend(t, l, NewOpRecord(o1))
	if l1 != 1 || o1.LSN != 1 {
		t.Errorf("first LSN = %d, op LSN = %d", l1, o1.LSN)
	}
	l2 := mustAppend(t, l, NewFlushRecord("X", l1))
	if l2 != 2 {
		t.Errorf("second LSN = %d", l2)
	}
	if l.StableLSN() != 0 {
		t.Error("records durable before force")
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 2 {
		t.Errorf("StableLSN = %d", l.StableLSN())
	}
	sc, err := l.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sc.All()
	if err != nil || len(recs) != 2 {
		t.Fatalf("scan: %d records, %v", len(recs), err)
	}
	if recs[0].Type != RecOperation || recs[1].Type != RecFlush {
		t.Error("scan order/type wrong")
	}
	// Scan from the middle.
	sc, _ = l.Scan(2)
	recs, _ = sc.All()
	if len(recs) != 1 || recs[0].LSN != 2 {
		t.Errorf("Scan(2) = %v", recs)
	}
}

func TestForceThroughPartial(t *testing.T) {
	l, _ := New(NewMemDevice())
	for i := 0; i < 5; i++ {
		mustAppend(t, l, NewFlushRecord("X", op.SI(i+1)))
	}
	if err := l.ForceThrough(3); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 3 {
		t.Errorf("StableLSN = %d, want 3", l.StableLSN())
	}
	// Idempotent / no-op force.
	if err := l.ForceThrough(2); err != nil {
		t.Fatal(err)
	}
	if l.StableLSN() != 3 {
		t.Error("ForceThrough went backwards")
	}
	lost := l.Crash()
	if lost != 2 {
		t.Errorf("Crash lost %d records, want 2", lost)
	}
	sc, _ := l.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 3 {
		t.Errorf("after crash: %d durable records, want 3", len(recs))
	}
}

func TestCrashLosesTailAndRestartResumes(t *testing.T) {
	dev := NewMemDevice()
	l, _ := New(dev)
	mustAppend(t, l, NewFlushRecord("A", 1))
	mustAppend(t, l, NewFlushRecord("B", 2))
	if err := l.ForceThrough(1); err != nil {
		t.Fatal(err)
	}
	l.Crash()

	// Restart over the same device.
	l2, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if l2.StableLSN() != 1 {
		t.Errorf("restart StableLSN = %d", l2.StableLSN())
	}
	// New appends continue after the durable horizon.
	lsn := mustAppend(t, l2, NewFlushRecord("C", 3))
	if lsn != 2 {
		t.Errorf("restart next LSN = %d, want 2", lsn)
	}
}

// Torn-tail behavior is covered exhaustively in fault_test.go (package
// wal_test), which injects tears through the internal/fault layer instead
// of a device-specific corruption hook.

func TestTruncate(t *testing.T) {
	l, _ := New(NewMemDevice())
	for i := 0; i < 6; i++ {
		mustAppend(t, l, NewFlushRecord("X", op.SI(i)))
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if l.FirstLSN() != 4 {
		t.Errorf("FirstLSN = %d", l.FirstLSN())
	}
	sc, _ := l.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 3 || recs[0].LSN != 4 {
		t.Errorf("after truncate: %v", recs)
	}
	// Appends still work after truncation.
	lsn := mustAppend(t, l, NewFlushRecord("Y", 9))
	if lsn != 7 {
		t.Errorf("post-truncate LSN = %d", lsn)
	}
}

func TestLastCheckpoint(t *testing.T) {
	l, _ := New(NewMemDevice())
	if cp, err := l.LastCheckpoint(); err != nil || cp != nil {
		t.Errorf("empty log checkpoint = %v, %v", cp, err)
	}
	mustAppend(t, l, NewCheckpointRecord([]DirtyEntry{{ID: "a", RSI: 1}}))
	mustAppend(t, l, NewFlushRecord("a", 1))
	second := mustAppend(t, l, NewCheckpointRecord([]DirtyEntry{{ID: "b", RSI: 2}}))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	cp, err := l.LastCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.LSN != second {
		t.Errorf("LastCheckpoint = %+v, want LSN %d", cp, second)
	}
	if cp.Checkpoint.Dirty[0].ID != "b" {
		t.Error("wrong checkpoint returned")
	}
}

func TestStatsAccounting(t *testing.T) {
	l, _ := New(NewMemDevice())
	r := obs.NewRegistry()
	l.SetObs(r)
	big := make([]byte, 4096)
	mustAppend(t, l, NewOpRecord(op.NewPhysicalWrite("X", big)))
	mustAppend(t, l, NewOpRecord(op.NewLogical(op.FuncCopy, []byte("X"), []op.ObjectID{"Y"}, []op.ObjectID{"X"})))
	s := r.Snapshot()
	if n := obstest.Counter(t, s, "wal.records.op"); n != 2 {
		t.Errorf("wal.records.op = %d", n)
	}
	if n := obstest.Counter(t, s, "wal.value_bytes"); n != 4096 {
		t.Errorf("wal.value_bytes = %d", n)
	}
	phys := obstest.Counter(t, s, "wal.op_payload_bytes.W_P")
	logi := obstest.Counter(t, s, "wal.op_payload_bytes.L")
	if phys < 4096 {
		t.Errorf("physical payload = %d, must include the value", phys)
	}
	if logi >= 128 {
		t.Errorf("logical payload = %d, must be id-sized", logi)
	}
	if total := s.Sum("wal.op_payload_bytes."); total != phys+logi {
		t.Errorf("op payload total = %d, want %d", total, phys+logi)
	}
	if obstest.Counter(t, s, "wal.bytes_appended") <= phys+logi {
		t.Error("wal.bytes_appended must include framing")
	}
	r.Reset()
	if n := obstest.Counter(t, r.Snapshot(), "wal.bytes_appended"); n != 0 {
		t.Errorf("wal.bytes_appended = %d after Reset", n)
	}
}

// countsOf attaches a fresh registry to l and returns a reader of l's
// counters that fails the test on an unregistered name.
func countsOf(tb testing.TB, l *Log) func(name string) int64 {
	r := obs.NewRegistry()
	l.SetObs(r)
	return func(name string) int64 {
		tb.Helper()
		return obstest.Counter(tb, r.Snapshot(), name)
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, NewFlushRecord("A", 1))
	mustAppend(t, l, NewFlushRecord("B", 2))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify contents survive.
	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	l2, err := New(dev2)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := l2.Scan(0)
	recs, _ := sc.All()
	if len(recs) != 1 || recs[0].LSN != 2 {
		t.Errorf("file device reopen: %v", recs)
	}
	sz, err := dev2.Size()
	if err != nil || sz == 0 {
		t.Errorf("Size = %d, %v", sz, err)
	}
}

func TestScannerEOFSemantics(t *testing.T) {
	l, _ := New(NewMemDevice())
	sc, _ := l.Scan(0)
	if _, err := sc.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("empty scan err = %v", err)
	}
}

func TestCodecQuickOpRecords(t *testing.T) {
	// Property: arbitrary physical writes round-trip through the codec.
	f := func(name string, value []byte, lsn uint32) bool {
		if name == "" {
			name = "x"
		}
		rec := NewOpRecord(op.NewPhysicalWrite(op.ObjectID(name), value))
		rec.LSN = op.SI(lsn) + 1
		rec.Op.LSN = rec.LSN
		payload, err := EncodeRecord(rec)
		if err != nil {
			return false
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			return false
		}
		return got.LSN == rec.LSN &&
			got.Op.Kind == op.KindPhysicalWrite &&
			got.Op.WriteSet[0] == op.ObjectID(name) &&
			op.Equal(got.Op.Values[op.ObjectID(name)], value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomCrashRestartConsistency(t *testing.T) {
	// Property: after any force/crash interleaving, the durable log is a
	// prefix of what was appended, ends at the last forced LSN, and
	// restarting resumes LSN assignment correctly.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		dev := NewMemDevice()
		l, _ := New(dev)
		appended := 0
		forced := op.SI(0)
		for i := 0; i < 50; i++ {
			switch rng.Intn(5) {
			case 0:
				if err := l.Force(); err != nil {
					t.Fatal(err)
				}
				forced = op.SI(appended)
			case 1:
				if appended > 0 {
					upTo := op.SI(1 + rng.Intn(appended))
					if err := l.ForceThrough(upTo); err != nil {
						t.Fatal(err)
					}
					if upTo > forced {
						forced = upTo
					}
				}
			default:
				mustAppend(t, l, NewFlushRecord("X", op.SI(i)))
				appended++
			}
		}
		l.Crash()
		l2, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		if l2.StableLSN() != forced {
			t.Fatalf("trial %d: StableLSN = %d, want %d", trial, l2.StableLSN(), forced)
		}
		sc, _ := l2.Scan(0)
		recs, _ := sc.All()
		if len(recs) != int(forced) {
			t.Fatalf("trial %d: %d durable records, want %d", trial, len(recs), forced)
		}
		for i, rec := range recs {
			if rec.LSN != op.SI(i+1) {
				t.Fatalf("trial %d: record %d has LSN %d", trial, i, rec.LSN)
			}
		}
	}
}
