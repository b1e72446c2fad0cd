package diskfaults

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"perspectron/internal/telemetry"
)

func TestNilInjectorPassesThrough(t *testing.T) {
	var in *Injector
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := in.WriteFileAtomic("anything", path, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatalf("nil injector WriteFileAtomic: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read back %q, %v", b, err)
	}
	if k, ok := in.decide("anything", OpWrite); ok {
		t.Fatalf("nil injector decided %v", k)
	}
}

func TestDeterministicNthWriteFault(t *testing.T) {
	series := telemetry.Name("perspectron_diskfault_injected_total",
		"site", "s", "op", "write", "kind", "enospc")
	before := telemetry.Get().CounterValue(series)
	in := New(1)
	in.Arm(Rule{Site: "s", Op: OpWrite, Kind: KindENOSPC, After: 2, Count: 1})

	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := in.File("s", f)
	for i := 0; i < 2; i++ {
		if _, err := w.Write([]byte("x")); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("3rd write error = %v, want ENOSPC", err)
	}
	// Count=1: subsequent writes succeed again.
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatalf("write after exhausted rule: %v", err)
	}
	if got := telemetry.Get().CounterValue(series) - before; got != 1 {
		t.Fatalf("injected counter advanced by %d, want 1", got)
	}
}

func TestTornWriteLeavesPrefix(t *testing.T) {
	in := New(1)
	in.Arm(Rule{Site: "s", Op: OpWrite, Kind: KindTorn, Count: 1})
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := in.File("s", f)
	payload := []byte("0123456789")
	n, werr := w.Write(payload)
	if !errors.Is(werr, syscall.ENOSPC) {
		t.Fatalf("torn write error = %v, want ENOSPC", werr)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write reported %d bytes, want %d", n, len(payload)/2)
	}
	b, _ := os.ReadFile(f.Name())
	if string(b) != "01234" {
		t.Fatalf("file holds %q after torn write, want the prefix", b)
	}
}

func TestSyncAndRenameFaults(t *testing.T) {
	in := New(1)
	in.Arm(Rule{Site: "s", Op: OpSync, Kind: KindSyncFail, Count: 1})
	in.Arm(Rule{Site: "s", Op: OpRename, Kind: KindEIO, Count: 1})
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := in.File("s", f)
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync error = %v, want EIO", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if err := in.Rename("s", f.Name(), f.Name()+".x"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename error = %v, want EIO", err)
	}
	if err := in.Rename("s", f.Name(), f.Name()+".x"); err != nil {
		t.Fatalf("second rename: %v", err)
	}
}

func TestCrashPointInvokesCrashFn(t *testing.T) {
	in := New(1)
	crashed := false
	in.crashFn = func() { crashed = true }
	in.Arm(Rule{Site: "s", Op: OpWrite, Kind: KindCrash, Count: 1})
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := in.File("s", f)
	w.Write([]byte("0123456789"))
	if !crashed {
		t.Fatal("crash fault did not invoke the crash function")
	}
	// The torn prefix reached the file, as a real crash mid-write could leave.
	b, _ := os.ReadFile(f.Name())
	if string(b) != "01234" {
		t.Fatalf("crash left %q, want torn prefix", b)
	}
}

func TestWriteFileAtomicFaultLeavesNoDebris(t *testing.T) {
	in := New(1)
	in.Arm(Rule{Site: "s", Op: OpWrite, Kind: KindENOSPC, Count: 1})
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	err := in.WriteFileAtomic("s", path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("faulted atomic write error = %v, want ENOSPC", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("destination exists after failed atomic write")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("temp debris left behind: %v", ents)
	}
	// The exhausted rule lets the next write through, durably.
	if err := in.WriteFileAtomic("s", path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatalf("clean atomic write: %v", err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "payload" {
		t.Fatalf("read back %q", b)
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("verdictlog:write:enospc:after=20:count=3, *:sync:syncfail:rate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	want0 := Rule{Site: "verdictlog", Op: OpWrite, Kind: KindENOSPC, After: 20, Count: 3}
	if rules[0] != want0 {
		t.Fatalf("rule 0 = %+v, want %+v", rules[0], want0)
	}
	if rules[1].Site != "" || rules[1].Rate != 0.5 || rules[1].Kind != KindSyncFail {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	for _, bad := range []string{"", "x:y", "s:write:nope", "s:frob:eio", "s:write:eio:after=-1", "s:write:eio:rate=2", "s:write:eio:bogus=1",
		"s:write:eio:rate=NaN", "s:write:eio:rate=nan", "s:write:eio:rate=-0.1", "s:write:eio:rate=Inf"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestRateIsSeededDeterministic(t *testing.T) {
	fire := func(seed int64) string {
		in := New(seed)
		in.Arm(Rule{Site: "s", Op: OpWrite, Kind: KindEIO, Rate: 0.5})
		var out strings.Builder
		for i := 0; i < 32; i++ {
			if _, ok := in.decide("s", OpWrite); ok {
				out.WriteByte('1')
			} else {
				out.WriteByte('0')
			}
		}
		return out.String()
	}
	if fire(7) != fire(7) {
		t.Fatal("same seed produced different fault sequences")
	}
	if fire(7) == fire(8) {
		t.Fatal("different seeds produced identical fault sequences (suspicious)")
	}
}
