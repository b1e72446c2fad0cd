package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestQuickGolden pins the rendered output of every experiment at the quick
// configuration, in the cmd/experiments canonical order. testdata/quick.golden
// is the stdout of `experiments -quick -run all` with the per-experiment
// "completed in" timing lines and the corpus-cache summary removed, so any
// refactor of the encode/train/score path must leave every table and figure
// byte-identical. The results are the memoized runs the per-experiment tests
// assert on (quick), so each experiment runs once per test binary.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick experiment")
	}
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	all := []struct {
		name string
		fn   func() interface{ Render() string }
	}{
		{"table2", func() interface{ Render() string } { return Table2() }},
		{"fig1", func() interface{ Render() string } { return quick("fig1", Fig1) }},
		{"table1", func() interface{ Render() string } { return quick("table1", Table1) }},
		{"table3", func() interface{ Render() string } { return quick("table3", Table3) }},
		{"fig5", func() interface{ Render() string } { return quick("fig5", Fig5) }},
		{"table4", func() interface{ Render() string } { return quick("table4", Table4) }},
		{"fig3", func() interface{ Render() string } { return quick("fig3", Fig3) }},
		{"fig4", func() interface{ Render() string } { return quick("fig4", Fig4) }},
		{"timing", func() interface{ Render() string } { return Timing() }},
		{"weights", func() interface{ Render() string } { return quick("weights", Weights) }},
		{"multiway", func() interface{ Render() string } { return quick("multiway", Multiway) }},
		{"mitigate", func() interface{ Render() string } { return quick("mitigate", Mitigate) }},
		{"rhmd", func() interface{ Render() string } { return quick("rhmd", RHMD) }},
		{"zeroday", func() interface{ Render() string } { return quick("zeroday", ZeroDay) }},
		{"sched", func() interface{ Render() string } { return quick("sched", Sched) }},
		{"faulttol", func() interface{ Render() string } { return quick("faulttol", FaultTol) }},
	}
	var b strings.Builder
	for _, e := range all {
		fmt.Fprintf(&b, "==== %s ====\n\n%s\n\n", e.name, e.fn().Render())
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("quick render diverges from testdata/quick.golden at line %d:\n got: %q\nwant: %q",
				i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("quick render has %d lines, testdata/quick.golden %d", len(gl), len(wl))
}
