package apprec

import (
	"strings"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/obs/obstest"
	"logicallog/internal/op"
	"logicallog/internal/wal"
)

func newAppEngine(t *testing.T) *core.Engine {
	t.Helper()
	opts := core.DefaultOptions()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	Register(eng.Registry())
	return eng
}

func TestStateEncodeDecodeRoundTrip(t *testing.T) {
	s := &State{Input: []byte("in"), Acc: []byte{1, 2}, Output: []byte("out"), Steps: 42}
	got, err := DecodeState(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip: %+v != %+v", got, s)
	}
	if _, err := DecodeState([]byte("garbage")); err == nil {
		t.Error("corrupt state decoded")
	}
	empty, err := DecodeState((&State{}).Encode())
	if err != nil || !empty.Equal(&State{}) {
		t.Errorf("empty state: %+v, %v", empty, err)
	}
}

func TestAppLifecycle(t *testing.T) {
	eng := newAppEngine(t)
	if err := eng.Execute(op.NewCreate("file1", []byte("hello world"))); err != nil {
		t.Fatal(err)
	}
	app, err := Launch(eng, "app/a")
	if err != nil {
		t.Fatal(err)
	}
	if app.ID() != "app/a" {
		t.Error("ID wrong")
	}
	if err := app.Read("file1"); err != nil {
		t.Fatal(err)
	}
	st, err := app.State()
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Input) != "hello world" {
		t.Errorf("input buffer = %q", st.Input)
	}
	if err := app.Step([]byte("salt")); err != nil {
		t.Fatal(err)
	}
	st, _ = app.State()
	if st.Steps != 1 || len(st.Output) == 0 || len(st.Input) != 0 {
		t.Errorf("post-step state = %+v", st)
	}
	if err := app.Write("file2"); err != nil {
		t.Fatal(err)
	}
	v, err := eng.Get("file2")
	if err != nil || !op.Equal(v, st.Output) {
		t.Errorf("file2 = %v, %v (want output %v)", v, err, st.Output)
	}
	if err := app.Exit(); err != nil {
		t.Fatal(err)
	}
	if _, err := app.State(); err == nil {
		t.Error("state readable after exit")
	}
}

func TestLogicalWriteLogsNoValues(t *testing.T) {
	eng := newAppEngine(t)
	big := strings.Repeat("x", 64*1024)
	if err := eng.Execute(op.NewCreate("src", []byte(big))); err != nil {
		t.Fatal(err)
	}
	app, err := Launch(eng, "app")
	if err != nil {
		t.Fatal(err)
	}
	eng.ResetStats()
	if err := app.Read("src"); err != nil {
		t.Fatal(err)
	}
	if err := app.Step(nil); err != nil {
		t.Fatal(err)
	}
	if err := app.Write("dst"); err != nil {
		t.Fatal(err)
	}
	st := eng.Metrics()
	if obstest.Counter(t, st, "wal.value_bytes") != 0 {
		t.Errorf("logical application run logged %d value bytes", obstest.Counter(t, st, "wal.value_bytes"))
	}
	logical := obstest.Counter(t, st, "wal.op_payload_bytes.R") + obstest.Counter(t, st, "wal.op_payload_bytes.W_L") + obstest.Counter(t, st, "wal.op_payload_bytes.Ex")
	if logical > 512 {
		t.Errorf("logical payload = %d bytes; must be id-sized, not data-sized", logical)
	}
	// The physical fallback logs the 64 KiB output.
	if err := app.WritePhysical("dst2"); err != nil {
		t.Fatal(err)
	}
	if obstest.Counter(t, eng.Metrics(), "wal.value_bytes") < 64*1024 {
		t.Error("physical write fallback failed to log the value")
	}
}

func TestAppSurvivesCrash(t *testing.T) {
	eng := newAppEngine(t)
	if err := eng.Execute(op.NewCreate("in", []byte("payload"))); err != nil {
		t.Fatal(err)
	}
	app, err := Launch(eng, "app")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Read("in"); err != nil {
		t.Fatal(err)
	}
	if err := app.Step([]byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := app.Write("out"); err != nil {
		t.Fatal(err)
	}
	want, err := app.State()
	if err != nil {
		t.Fatal(err)
	}
	wantOut, err := eng.Get("out")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	app2 := Attach(eng, "app")
	got, err := app2.State()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("recovered state %+v != %+v", got, want)
	}
	gotOut, err := eng.Get("out")
	if err != nil || !op.Equal(gotOut, wantOut) {
		t.Errorf("recovered out = %v, %v", gotOut, err)
	}
}

func TestTerminatedAppNotRedone(t *testing.T) {
	// Section 5: a terminated application should not be re-executed by the
	// rSI REDO test, even if its state was never flushed.
	eng := newAppEngine(t)
	if err := eng.Execute(op.NewCreate("in", []byte("data"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	app, err := Launch(eng, "app")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := app.Read("in"); err != nil {
			t.Fatal(err)
		}
		if err := app.Step([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Exit(); err != nil {
		t.Fatal(err)
	}
	// Install everything: the app object is dead, its ops installed.
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 0 {
		t.Errorf("Redone = %d: terminated application re-executed", res.Redone)
	}
}

func TestStepsDeterministic(t *testing.T) {
	// The application machine must be deterministic: two engines driven
	// identically produce identical states.
	run := func() *State {
		eng := newAppEngine(t)
		if err := eng.Execute(op.NewCreate("in", []byte("same input"))); err != nil {
			t.Fatal(err)
		}
		app, err := Launch(eng, "app")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := app.Read("in"); err != nil {
				t.Fatal(err)
			}
			if err := app.Step([]byte{byte(i), 0xAB}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := app.State()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := run(), run(); !a.Equal(b) {
		t.Errorf("nondeterministic application: %+v vs %+v", a, b)
	}
}

func TestRegisterOnFreshRegistryOnly(t *testing.T) {
	reg := op.NewRegistry()
	Register(reg)
	defer func() {
		if recover() == nil {
			t.Error("double Register must panic")
		}
	}()
	Register(reg)
}

func TestAppWorksWithFileDevice(t *testing.T) {
	dev, err := wal.OpenFileDevice(t.TempDir() + "/app.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	opts := core.DefaultOptions()
	opts.LogDevice = dev
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	Register(eng.Registry())
	if err := eng.Execute(op.NewCreate("in", []byte("d"))); err != nil {
		t.Fatal(err)
	}
	app, err := Launch(eng, "app")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Read("in"); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
}
