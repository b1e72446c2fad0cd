package serve

import (
	"bytes"
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
