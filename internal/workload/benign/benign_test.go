package benign

import (
	"math/rand"
	"testing"

	"perspectron/internal/isa"
	"perspectron/internal/workload"
)

func drain(p workload.Program, n int, seed int64) []isa.Op {
	s := p.Stream(rand.New(rand.NewSource(seed)))
	var out []isa.Op
	for i := 0; i < n; i++ {
		op, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, *op)
	}
	return out
}

func count(ops []isa.Op, pred func(*isa.Op) bool) int {
	n := 0
	for i := range ops {
		if pred(&ops[i]) {
			n++
		}
	}
	return n
}

func frac(ops []isa.Op, pred func(*isa.Op) bool) float64 {
	if len(ops) == 0 {
		return 0
	}
	return float64(count(ops, pred)) / float64(len(ops))
}

func isLoad(o *isa.Op) bool    { return o.Kind == isa.KindLoad }
func isBranch(o *isa.Op) bool  { return o.Kind == isa.KindBranch }
func isControl(o *isa.Op) bool { return o.IsControl() }
func isFloat(o *isa.Op) bool {
	return o.Class >= isa.FloatAdd && o.Class <= isa.SimdFloatMult
}

func TestAllSixteenKernels(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("kernels = %d, want 16", len(all))
	}
	seen := map[string]bool{}
	for _, p := range all {
		info := p.Info()
		if info.Label != workload.Benign {
			t.Fatalf("%s not benign", info.Name)
		}
		if seen[info.Name] {
			t.Fatalf("duplicate kernel %s", info.Name)
		}
		seen[info.Name] = true
		ops := drain(p, 500, 1)
		if len(ops) != 500 {
			t.Fatalf("%s stream ended early (%d ops)", info.Name, len(ops))
		}
	}
}

func TestNoKernelAttacks(t *testing.T) {
	for _, p := range All() {
		ops := drain(p, 2000, 2)
		if n := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindFlush }); n != 0 {
			t.Fatalf("%s flushes (%d)", p.Info().Name, n)
		}
		if n := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindQuiesce }); n != 0 {
			t.Fatalf("%s quiesces (%d)", p.Info().Name, n)
		}
		if n := count(ops, func(o *isa.Op) bool { return len(o.Transient) > 0 }); n != 0 {
			t.Fatalf("%s carries explicit transient gadgets (%d)", p.Info().Name, n)
		}
		if n := count(ops, func(o *isa.Op) bool { return o.Addr >= 0xffff_8000_0000_0000 }); n != 0 {
			t.Fatalf("%s touches kernel space (%d)", p.Info().Name, n)
		}
	}
}

func TestKernelProfiles(t *testing.T) {
	// Each kernel must stress its published axis.
	cases := []struct {
		prog  workload.Program
		check func(t *testing.T, ops []isa.Op)
	}{
		{Gobmk(), func(t *testing.T, ops []isa.Op) {
			if frac(ops, isBranch) < 0.15 {
				t.Fatalf("gobmk branch fraction %.2f too low", frac(ops, isBranch))
			}
		}},
		{Mcf(), func(t *testing.T, ops []isa.Op) {
			dep := count(ops, func(o *isa.Op) bool { return o.DependsOnPrev })
			if dep < 100 {
				t.Fatalf("mcf pointer-chase hops = %d", dep)
			}
		}},
		{Povray(), func(t *testing.T, ops []isa.Op) {
			if frac(ops, isFloat) < 0.2 {
				t.Fatalf("povray FP fraction %.2f too low", frac(ops, isFloat))
			}
		}},
		{Perlbench(), func(t *testing.T, ops []isa.Op) {
			ind := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindIndirect })
			if ind < 20 {
				t.Fatalf("perlbench indirect branches = %d", ind)
			}
		}},
		{Libquantum(), func(t *testing.T, ops []isa.Op) {
			if frac(ops, isLoad) < 0.2 {
				t.Fatalf("libquantum load fraction %.2f too low", frac(ops, isLoad))
			}
		}},
		{H264ref(), func(t *testing.T, ops []isa.Op) {
			simd := count(ops, func(o *isa.Op) bool {
				return o.Class == isa.SimdAdd || o.Class == isa.SimdMult
			})
			if simd < 100 {
				t.Fatalf("h264ref SIMD ops = %d", simd)
			}
		}},
		{Xalancbmk(), func(t *testing.T, ops []isa.Op) {
			calls := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindCall })
			rets := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindRet })
			if calls == 0 || rets == 0 {
				t.Fatalf("xalancbmk recursion missing: %d calls %d rets", calls, rets)
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.prog.Info().Name, func(t *testing.T) {
			c.check(t, drain(c.prog, 2000, 3))
		})
	}
}

func TestBalancedCallRet(t *testing.T) {
	// Benign call/ret pairs must be balanced (their returns predict
	// correctly on the RAS) for the recursive kernels.
	for _, p := range []workload.Program{Povray(), Gcc(), Xalancbmk(), Gobmk()} {
		ops := drain(p, 3000, 4)
		depth := 0
		minDepth := 0
		for i := range ops {
			switch ops[i].Kind {
			case isa.KindCall:
				depth++
			case isa.KindRet:
				depth--
				if depth < minDepth {
					minDepth = depth
				}
			}
		}
		if minDepth < 0 {
			t.Fatalf("%s pops an empty call stack (min depth %d)", p.Info().Name, minDepth)
		}
	}
}

func TestControlFractionVariety(t *testing.T) {
	// The corpus must cover both branch-light and branch-heavy profiles so
	// no single branch-rate threshold separates benign from attacks.
	var fracs []float64
	for _, p := range All() {
		fracs = append(fracs, frac(drain(p, 2000, 5), isControl))
	}
	lo, hi := fracs[0], fracs[0]
	for _, f := range fracs {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi-lo < 0.1 {
		t.Fatalf("benign control-fraction range too narrow: [%.2f, %.2f]", lo, hi)
	}
}

func TestSeedsChangeBehaviour(t *testing.T) {
	a := drain(Sjeng(), 500, 1)
	b := drain(Sjeng(), 500, 2)
	same := true
	for i := range a {
		if a[i].Addr != b[i].Addr || a[i].Taken != b[i].Taken {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}
