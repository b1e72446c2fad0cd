package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdictScannerSkipsCorruptKeepsPartial(t *testing.T) {
	delta := counterDelta()
	input := `{"worker":"w","episode":1,"sample":1,"mode":"detector","score":0.5,"flagged":true}` + "\n" +
		"this is not json\n" +
		"\n" + // blank lines are tolerated silently
		`{"worker":"w","episode":1,"sample":2,"mode":"detector","score":-0.2}` + "\n"
	partial := `{"worker":"w","episode":1,"sa` // writer mid-record, no newline
	sc := NewVerdictScanner(strings.NewReader(input + partial))

	var recs []VerdictRecord
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
	if !recs[0].Flagged || recs[0].Sample != 1 || recs[1].Sample != 2 {
		t.Fatalf("records decoded wrong: %+v", recs)
	}
	if sc.Corrupt() != 1 {
		t.Fatalf("corrupt count = %d, want 1", sc.Corrupt())
	}
	if sc.Err() != nil {
		t.Fatalf("scanner error: %v", sc.Err())
	}
	// The trailing partial line is NOT consumed: the resume offset stops at
	// the last complete line, so a later read picks the record up whole.
	if got, want := sc.Consumed(), int64(len(input)); got != want {
		t.Fatalf("consumed %d bytes, want %d (partial line must not count)", got, want)
	}
	if got := delta("perspectron_verdict_corrupt_lines_total"); got != 1 {
		t.Fatalf("corrupt-line counter = %d, want 1", got)
	}
}

func TestReadVerdictLogOffsetResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "verdicts.jsonl")

	// A missing file is an empty tail, not an error.
	recs, corrupt, next, err := ReadVerdictLog(path, 0)
	if err != nil || len(recs) != 0 || corrupt != 0 || next != 0 {
		t.Fatalf("missing file: recs=%d corrupt=%d next=%d err=%v", len(recs), corrupt, next, err)
	}

	full := `{"worker":"w","episode":1,"sample":1,"mode":"detector","score":1,"version":"abc"}` + "\n" +
		"garbage line\n" +
		`{"worker":"w","episode":1,"sample":2,"mode":"detector","score":2}` + "\n"
	partial := `{"worker":"w","episode":1,"sample":3`
	if err := os.WriteFile(path, []byte(full+partial), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, corrupt, next, err = ReadVerdictLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || corrupt != 1 {
		t.Fatalf("first tail: recs=%d corrupt=%d, want 2/1", len(recs), corrupt)
	}
	if recs[0].Version != "abc" {
		t.Fatalf("version not decoded: %+v", recs[0])
	}
	if next != int64(len(full)) {
		t.Fatalf("resume offset = %d, want %d", next, len(full))
	}

	// The writer finishes the partial record and appends another; resuming
	// from the returned offset sees both, with nothing dropped or re-read.
	rest := `,"mode":"detector","score":3}` + "\n" +
		`{"worker":"w","episode":2,"sample":4,"mode":"detector","score":4}` + "\n"
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(rest); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, corrupt, next2, err := ReadVerdictLog(path, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || corrupt != 0 {
		t.Fatalf("resumed tail: recs=%d corrupt=%d, want 2/0", len(recs), corrupt)
	}
	if recs[0].Sample != 3 || recs[1].Sample != 4 {
		t.Fatalf("resumed records wrong: %+v", recs)
	}
	if want := next + int64(len(partial)+len(rest)); next2 != want {
		t.Fatalf("final offset = %d, want %d", next2, want)
	}
}
