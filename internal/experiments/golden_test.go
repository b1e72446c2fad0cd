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
// byte-identical.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick experiment")
	}
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig()
	all := []struct {
		name string
		fn   func() interface{ Render() string }
	}{
		{"table2", func() interface{ Render() string } { return Table2() }},
		{"fig1", func() interface{ Render() string } { return Fig1(cfg) }},
		{"table1", func() interface{ Render() string } { return Table1(cfg) }},
		{"table3", func() interface{ Render() string } { return Table3(cfg) }},
		{"fig5", func() interface{ Render() string } { return Fig5(cfg) }},
		{"table4", func() interface{ Render() string } { return Table4(cfg) }},
		{"fig3", func() interface{ Render() string } { return Fig3(cfg) }},
		{"fig4", func() interface{ Render() string } { return Fig4(cfg) }},
		{"timing", func() interface{ Render() string } { return Timing() }},
		{"weights", func() interface{ Render() string } { return Weights(cfg) }},
		{"multiway", func() interface{ Render() string } { return Multiway(cfg) }},
		{"mitigate", func() interface{ Render() string } { return Mitigate(cfg) }},
		{"rhmd", func() interface{ Render() string } { return RHMD(cfg) }},
		{"zeroday", func() interface{ Render() string } { return ZeroDay(cfg) }},
		{"sched", func() interface{ Render() string } { return Sched(cfg) }},
		{"faulttol", func() interface{ Render() string } { return FaultTol(cfg) }},
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
