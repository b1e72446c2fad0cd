package diskfaults

import (
	"math"
	"testing"
)

// FuzzParseSpec feeds arbitrary strings to the -disk-faults grammar.
// ParseSpec must reject what it cannot use with an error, never a panic,
// and every spec it accepts must yield at least one rule, each with a known
// op and kind, non-negative After and Count, and a Rate in [0, 1]. The seed
// corpus in testdata/fuzz/FuzzParseSpec holds the doc example, wildcard
// sites, each option and a NaN rate.
//
//	go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 20s ./internal/diskfaults
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if len(rules) == 0 {
			t.Fatalf("ParseSpec(%q) accepted a spec with no rules", spec)
		}
		for _, r := range rules {
			switch r.Op {
			case OpCreate, OpWrite, OpSync, OpRename:
			default:
				t.Fatalf("ParseSpec(%q): unknown op %q", spec, r.Op)
			}
			switch r.Kind {
			case KindTorn, KindENOSPC, KindEIO, KindSyncFail, KindCrash:
			default:
				t.Fatalf("ParseSpec(%q): unknown kind %q", spec, r.Kind)
			}
			if r.After < 0 || r.Count < 0 {
				t.Fatalf("ParseSpec(%q): negative after/count in %+v", spec, r)
			}
			if math.IsNaN(r.Rate) || r.Rate < 0 || r.Rate > 1 {
				t.Fatalf("ParseSpec(%q): rate %v outside [0, 1]", spec, r.Rate)
			}
		}
	})
}
