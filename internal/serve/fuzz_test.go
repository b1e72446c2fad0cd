package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzVerdictScanner feeds arbitrary bytes to the verdict-log reader, the
// way the shadow trainer and `perspectron explain` read a log a crashed or
// live writer left behind. The scanner must never panic, must consume
// exactly the complete lines and no byte of a trailing partial one, and
// must account for every complete non-blank line as either a record or a
// corrupt line. Explain must answer every decoded record with a result or
// an error. The seed corpus in testdata/fuzz/FuzzVerdictScanner holds a real
// attributed record, a shed record, a recovery record, a corrupt line, a
// trailing partial line and a log mixing all five.
//
//	go test -run '^$' -fuzz '^FuzzVerdictScanner$' -fuzztime 20s ./internal/serve
func FuzzVerdictScanner(f *testing.F) {
	det, _ := testModels(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewVerdictScanner(bytes.NewReader(data))
		var recs []VerdictRecord
		for {
			rec, ok := sc.Next()
			if !ok {
				break
			}
			recs = append(recs, rec)
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("reading from memory: %v", err)
		}
		complete := bytes.LastIndexByte(data, '\n') + 1
		if got := sc.Consumed(); got != int64(complete) {
			t.Fatalf("consumed %d bytes of %d, want %d (through the last newline)", got, len(data), complete)
		}
		lines := 0
		for _, line := range bytes.SplitAfter(data[:complete], []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		if got := len(recs) + sc.Corrupt(); got != lines {
			t.Fatalf("%d records + %d corrupt = %d, want %d complete non-blank lines",
				len(recs), sc.Corrupt(), got, lines)
		}
		for _, rec := range recs {
			if e, err := Explain(det, rec, true); (e == nil) == (err == nil) {
				t.Fatalf("Explain returned explanation %v and error %v", e, err)
			}
		}
	})
}

// FuzzRepairLogTail feeds arbitrary bytes to startup recovery's tail repair
// as the verdict log a crashed writer left behind, optionally next to a
// .torn quarantine file from an earlier crash. The repair must truncate the
// log to data[:lastNewline+1], report exactly the removed tail as torn, grow
// the quarantine by exactly those bytes (never rewriting what it held), be
// idempotent, and leave a log scanLog reads without error. The seed corpus
// in testdata/fuzz/FuzzRepairLogTail holds a clean log, a torn record, an
// empty file, a file with no newline, a blank-line log and a repair next to
// an existing quarantine.
//
//	go test -run '^$' -fuzz '^FuzzRepairLogTail$' -fuzztime 20s ./internal/serve
func FuzzRepairLogTail(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, prior []byte, hasPrior bool) {
		dir := t.TempDir()
		path := filepath.Join(dir, "v.jsonl")
		quarantine := path + ".torn"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if hasPrior {
			if err := os.WriteFile(quarantine, prior, 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			prior = nil
		}
		keep := bytes.LastIndexByte(data, '\n') + 1

		torn, q, err := repairLogTail(path)
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		if want := int64(len(data) - keep); torn != want {
			t.Fatalf("torn = %d, want %d", torn, want)
		}
		wantQ := ""
		if torn > 0 {
			wantQ = quarantine
		}
		if q != wantQ {
			t.Fatalf("quarantine path = %q, want %q", q, wantQ)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, data[:keep]) {
			t.Fatalf("repaired log = %q, want %q", got, data[:keep])
		}
		got, err := os.ReadFile(quarantine)
		switch {
		case !hasPrior && torn == 0:
			if !os.IsNotExist(err) {
				t.Fatalf("quarantine created for a clean log (err %v)", err)
			}
		case !bytes.Equal(got, append(append([]byte{}, prior...), data[keep:]...)):
			t.Fatalf("quarantine = %q, want %q + %q", got, prior, data[keep:])
		}

		if torn, q, err := repairLogTail(path); err != nil || torn != 0 || q != "" {
			t.Fatalf("second repair: torn=%d q=%q err=%v, want a clean log", torn, q, err)
		}
		if _, _, _, _, _, err := scanLog(path); err != nil {
			t.Fatalf("scanning the repaired log: %v", err)
		}
	})
}
