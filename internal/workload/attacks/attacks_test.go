package attacks

import (
	"math/rand"
	"testing"

	"perspectron/internal/isa"
	"perspectron/internal/workload"
)

// drain pulls n ops from a fresh stream of p.
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

func TestTrainingSetComplete(t *testing.T) {
	set := TrainingSet()
	if len(set) != 12 {
		t.Fatalf("training set = %d programs", len(set))
	}
	seen := map[string]bool{}
	for _, p := range set {
		info := p.Info()
		if info.Label != workload.Malicious {
			t.Fatalf("%s not labelled malicious", info.Name)
		}
		if seen[info.Name] {
			t.Fatalf("duplicate program %s", info.Name)
		}
		seen[info.Name] = true
	}
}

func TestWithChannelVariants(t *testing.T) {
	for _, cat := range []string{"spectre_v1", "spectre_v2", "spectre_rsb", "meltdown", "cacheout"} {
		for _, ch := range []string{"fr", "ff", "pp"} {
			p := WithChannel(cat, ch)
			if p == nil {
				t.Fatalf("WithChannel(%s,%s) nil", cat, ch)
			}
			if p.Info().Channel != ch {
				t.Fatalf("channel not propagated for %s", cat)
			}
		}
	}
	if WithChannel("bogus", "fr") != nil {
		t.Fatalf("bogus category accepted")
	}
}

func TestSpectreV1PhaseStructure(t *testing.T) {
	ops := drain(SpectreV1("fr"), 600, 1)
	flushes := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindFlush })
	if flushes < nProbe {
		t.Fatalf("setup flushed %d lines, want >= %d", flushes, nProbe)
	}
	// Exactly one op per iteration carries the disclosure gadget.
	gadgets := count(ops, func(o *isa.Op) bool {
		return o.Kind == isa.KindBranch && len(o.Transient) >= 2
	})
	if gadgets == 0 {
		t.Fatalf("no transient gadget emitted")
	}
	// The gadget's transmit load must depend on the secret load.
	for i := range ops {
		if len(ops[i].Transient) >= 2 {
			if !ops[i].Transient[1].DependsOnPrev {
				t.Fatalf("transmit load not dependent on secret load")
			}
		}
	}
	// Training branches precede the gadget at the same site.
	trains := count(ops, func(o *isa.Op) bool {
		return o.Kind == isa.KindBranch && o.PC == workload.SitePC(siteV1Train) && o.Taken
	})
	if trains < trainIters {
		t.Fatalf("mistraining iterations = %d", trains)
	}
}

func TestSpectreRSBUnbalancedReturn(t *testing.T) {
	ops := drain(SpectreRSB("fr"), 400, 1)
	rets := 0
	for i := range ops {
		if ops[i].Kind == isa.KindRet {
			rets++
			if len(ops[i].Transient) == 0 {
				t.Fatalf("RSB return carries no gadget")
			}
			// The actual target differs from the pushed return address, so
			// the RAS must mispredict.
			if ops[i].Target == workload.SitePC(siteRSBCall)+4 {
				t.Fatalf("return target matches RAS: no hijack")
			}
		}
	}
	if rets == 0 {
		t.Fatalf("no returns emitted")
	}
}

func TestMeltdownFaultsEveryIteration(t *testing.T) {
	ops := drain(Meltdown("fr"), 800, 1)
	faulting := count(ops, func(o *isa.Op) bool {
		return o.Kind == isa.KindLoad && o.Addr >= 0xffff_8000_0000_0000 && len(o.Transient) > 0
	})
	if faulting < 2 {
		t.Fatalf("kernel faulting loads = %d", faulting)
	}
}

func TestBreakingKASLRMixesMappedUnmapped(t *testing.T) {
	ops := drain(BreakingKASLR(), 2000, 1)
	mapped := count(ops, func(o *isa.Op) bool {
		return o.Kind == isa.KindLoad && o.Addr >= 0xffff_8000_0000_0000 && o.Addr < 0xffff_f000_0000_0000
	})
	unmapped := count(ops, func(o *isa.Op) bool {
		return o.Kind == isa.KindLoad && o.Addr >= 0xffff_f000_0000_0000
	})
	if mapped == 0 || unmapped == 0 {
		t.Fatalf("sweep mix wrong: mapped=%d unmapped=%d", mapped, unmapped)
	}
	if unmapped < mapped*4 {
		t.Fatalf("most probes should be unmapped: mapped=%d unmapped=%d", mapped, unmapped)
	}
}

func TestCacheOutUsesFillBuffer(t *testing.T) {
	ops := drain(CacheOut("fr"), 800, 1)
	fb := 0
	for i := range ops {
		for _, tr := range ops[i].Transient {
			if tr.FBRead {
				fb++
			}
		}
	}
	if fb == 0 {
		t.Fatalf("no fill-buffer reads in transient bodies")
	}
}

func TestFlushReloadMonitorsSharedPages(t *testing.T) {
	ops := drain(FlushReload(), 600, 1)
	shared := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindLoad && o.Shared })
	flushes := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindFlush })
	quiesce := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindQuiesce })
	if shared == 0 || flushes == 0 || quiesce == 0 {
		t.Fatalf("F+R phases missing: shared=%d flush=%d quiesce=%d", shared, flushes, quiesce)
	}
}

func TestFlushFlushIssuesNoPrivateLoads(t *testing.T) {
	ops := drain(FlushFlush(), 600, 1)
	// The attacker's own activity is flushes only; the few loads present
	// are the simulated victim touching *shared* lines.
	privateLoads := count(ops, func(o *isa.Op) bool {
		return o.Kind == isa.KindLoad && !o.Shared
	})
	if privateLoads != 0 {
		t.Fatalf("flush+flush issued %d private loads (must be stealthy)", privateLoads)
	}
	if count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindFlush }) == 0 {
		t.Fatalf("no flushes")
	}
}

func TestPrimeProbeNeverFlushes(t *testing.T) {
	ops := drain(PrimeProbe(), 800, 1)
	if n := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindFlush }); n != 0 {
		t.Fatalf("prime+probe flushed %d lines", n)
	}
	if n := count(ops, func(o *isa.Op) bool { return o.Shared }); n != 0 {
		t.Fatalf("prime+probe touched %d shared lines", n)
	}
	loads := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindLoad })
	if loads < 100 {
		t.Fatalf("prime+probe loads = %d", loads)
	}
}

func TestPPChannelPrimesWholeSets(t *testing.T) {
	c := NewPPChannel()
	// All ways of a set map to the same L1D set index.
	set0 := c.lineAddr(0, 0) / 64 % uint64(c.SetCount)
	for w := 1; w < c.Ways; w++ {
		if c.lineAddr(0, w)/64%uint64(c.SetCount) != set0 {
			t.Fatalf("way %d maps to a different set", w)
		}
	}
	// TransmitAddr conflicts with a primed set.
	addr := c.TransmitAddr(3)
	if addr/64%uint64(c.SetCount) != uint64(3%c.Sets) {
		t.Fatalf("transmit address does not conflict with the monitored set")
	}
}

func TestCalibrationKinds(t *testing.T) {
	for _, kind := range []string{"fr", "ff", "pp"} {
		p := Calibration(kind)
		if p.Info().Label != workload.Malicious {
			t.Fatalf("calibration-%s not malicious", kind)
		}
		ops := drain(p, 200, 1)
		if len(ops) == 0 {
			t.Fatalf("calibration-%s emitted nothing", kind)
		}
		flushes := count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindFlush })
		if kind == "pp" && flushes != 0 {
			t.Fatalf("calibration-pp flushed")
		}
		if kind != "pp" && flushes == 0 {
			t.Fatalf("calibration-%s never flushed", kind)
		}
	}
}

func TestPolymorphicVariantsDistinct(t *testing.T) {
	if len(PolyVariants) != 12 {
		t.Fatalf("poly variants = %d", len(PolyVariants))
	}
	base := drain(SpectreV1("fr"), 500, 1)
	baseN := len(base)
	for v := 0; v < 12; v++ {
		p := SpectreV1Poly(v, "fr")
		if p.Info().Category != "spectre_v1_poly" {
			t.Fatalf("variant %d category %s", v, p.Info().Category)
		}
		ops := drain(p, 500, 1)
		// Variants keep the attack skeleton: still flush, still carry a
		// gadget.
		if count(ops, func(o *isa.Op) bool { return o.Kind == isa.KindFlush }) == 0 {
			t.Fatalf("variant %d lost the channel setup", v)
		}
		gadgets := count(ops, func(o *isa.Op) bool { return len(o.Transient) >= 2 })
		if gadgets == 0 {
			t.Fatalf("variant %d lost the gadget", v)
		}
		_ = baseN
	}
}

func TestLeakFrequencyPreservedAcrossVariants(t *testing.T) {
	// Fig. 3's setup: same leakage frequency across variants. Compare leak
	// mark spacing between the base attack and a variant with extra code.
	leakGap := func(p workload.Program) float64 {
		s := p.Stream(rand.New(rand.NewSource(2))).(*workload.LoopStream)
		for i := 0; i < 5000; i++ {
			s.Next()
		}
		marks := s.LeakMarks()
		if len(marks) < 2 {
			t.Fatalf("%s: not enough leaks", p.Info().Name)
		}
		return float64(marks[len(marks)-1]-marks[0]) / float64(len(marks)-1)
	}
	base := leakGap(SpectreV1("fr"))
	variant := leakGap(SpectreV1Poly(1, "fr"))
	if variant < base*0.8 || variant > base*1.5 {
		t.Fatalf("leak frequency drifted: base gap %.0f vs variant %.0f", base, variant)
	}
}

func TestBandwidthReductionStretchesLeaks(t *testing.T) {
	// Long-run leak rate: leaks per emitted op. The bursty wrapper keeps
	// per-burst cadence but the duty cycle drops to the factor.
	rate := func(p workload.Program, n int) float64 {
		s := p.Stream(rand.New(rand.NewSource(3))).(*workload.LoopStream)
		for i := 0; i < n; i++ {
			s.Next()
		}
		marks := s.LeakMarks()
		if len(marks) < 2 {
			t.Fatalf("not enough leaks")
		}
		return float64(len(marks)) / float64(s.Emitted())
	}
	full := rate(SpectreV1("fr"), 50_000)
	quarter := rate(Bandwidth(SpectreV1("fr"), 0.25), 200_000)
	ratio := full / quarter
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("0.25x leak-rate ratio = %.2f, want ~4", ratio)
	}
}

func TestBandwidthBurstsAreFullRate(t *testing.T) {
	// Inside a burst the attack runs unmodified: the first half-burst's ops
	// must be as flush-dense as the unmodified attack.
	n := bandwidthBurstIters * 300
	bw := drain(Bandwidth(SpectreV1("fr"), 0.25), n, 4)
	full := drain(SpectreV1("fr"), n, 4)
	isFlush := func(o *isa.Op) bool { return o.Kind == isa.KindFlush }
	if bwf, ff := count(bw, isFlush), count(full, isFlush); bwf < ff*8/10 {
		t.Fatalf("burst not full rate: %d flushes vs %d unmodified", bwf, ff)
	}
}

func TestBandwidthBurstSpansSamplingIntervals(t *testing.T) {
	// The burst must exceed the 10K-instruction sampling interval so some
	// samples see pure full-rate attack activity.
	p := Bandwidth(SpectreV1("fr"), 0.5)
	s := p.Stream(rand.New(rand.NewSource(5))).(*workload.LoopStream)
	s.Next() // force the first iteration to generate
	burst := len(s.LeakMarks())
	_ = burst
	// Count ops until the first filler run (a long stretch without leaks):
	// the first bandwidthBurstIters leak marks must all land within the
	// burst, i.e. before any filler ops are interleaved.
	for i := 0; i < 40000; i++ {
		s.Next()
	}
	marks := s.LeakMarks()
	if len(marks) < bandwidthBurstIters {
		t.Fatalf("only %d leaks in 40K ops", len(marks))
	}
	burstLen := marks[bandwidthBurstIters-1]
	if burstLen < 12_000 {
		t.Fatalf("burst spans only %d ops; must exceed the 10K sampling interval", burstLen)
	}
}

func TestBandwidthIdentityAtFullRate(t *testing.T) {
	p := SpectreV1("fr")
	if Bandwidth(p, 1.0) != p {
		t.Fatalf("factor 1.0 should return the original program")
	}
}

func TestChannelsByName(t *testing.T) {
	for _, name := range []string{"fr", "ff", "pp"} {
		if NewChannel(name).Name() != name {
			t.Fatalf("channel %s misnamed", name)
		}
	}
	if NewChannel("unknown").Name() != "fr" {
		t.Fatalf("default channel should be fr")
	}
}

func TestDeterministicStreams(t *testing.T) {
	a := drain(SpectreV1("fr"), 300, 42)
	b := drain(SpectreV1("fr"), 300, 42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Addr != b[i].Addr || a[i].PC != b[i].PC {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}
