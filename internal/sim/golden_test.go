package sim

// Simulator golden oracle: bit-exact fingerprints of RunStream output for a
// fixed set of workloads and seeds, captured before the hot-path
// optimizations of the pipeline, cache and stats packages. Every counter
// trace the detector sees must stay bit-identical, so any drift in what the
// simulator counts (or when a run stops) fails here.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

const (
	goldenInsts    = 200_000
	goldenInterval = 10_000
)

// goldenPrograms is the training corpus of perspectron.TrainingWorkloads
// (every benign kernel, every attack on its default channel, and the
// speculative attacks on Prime+Probe) — which includes the four serve
// streams spectreV1/fr, flush+reload, gcc and mcf — plus SpectreV4 and
// RowHammer, whose address-delayed stores and DRAM hammering exercise
// paths the corpus does not.
func goldenPrograms() []workload.Program {
	progs := append([]workload.Program{}, benign.All()...)
	progs = append(progs, attacks.TrainingSet()...)
	for _, cat := range []string{"spectre_v1", "spectre_v2", "spectre_rsb", "meltdown", "cacheout"} {
		progs = append(progs, attacks.WithChannel(cat, "pp"))
	}
	return append(progs, attacks.SpectreV4("fr"), attacks.RowHammer())
}

// fingerprint hashes the exact bit patterns of every delivered sample, the
// number of samples RunStream reported, the machine's final counter values
// and its final cycle, so equality means the same trace and the same stop.
type fingerprint struct {
	h hash.Hash64
	b [8]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.b[i] = byte(v >> (8 * i))
	}
	f.h.Write(f.b[:])
}

func (f *fingerprint) vec(v []float64) {
	for _, x := range v {
		f.u64(math.Float64bits(x))
	}
}

func (f *fingerprint) machine(m *Machine, n int) string {
	f.u64(uint64(n))
	f.vec(m.Reg.Snapshot(nil))
	f.u64(m.Pipe.Cycle())
	return fmt.Sprintf("%016x", f.h.Sum64())
}

// goldenRun streams prog at seed on a fresh machine, letting setup wire
// hooks first, and fingerprints the result. stopAfter >= 0 makes the
// consumer cut the run off once it has seen that sample index.
func goldenRun(prog workload.Program, seed int64, stopAfter int, setup func(*Machine)) (string, [][]float64) {
	m := NewMachine()
	if setup != nil {
		setup(m)
	}
	f := newFingerprint()
	var got [][]float64
	n := m.RunStream(prog.Stream(rand.New(rand.NewSource(seed))), goldenInsts, goldenInterval,
		func(idx int, v []float64) bool {
			f.u64(uint64(idx))
			f.vec(v)
			got = append(got, v)
			return stopAfter < 0 || idx < stopAfter
		})
	return f.machine(m, n), got
}

// simGolden maps "<program>/seed=<s>" (and the hooked-run names below) to
// fingerprints captured from the pre-optimization simulator.
var simGolden = map[string]string{
	"00:bzip2/seed=1":          "d923b8b47333846f",
	"00:bzip2/seed=2":          "90e4111cf62bfc26",
	"01:gcc/seed=1":            "fe2069ee0a609f25",
	"01:gcc/seed=2":            "8416edb19f8ad1d4",
	"02:mcf/seed=1":            "9434959fd34fc405",
	"02:mcf/seed=2":            "c3fa04be42618375",
	"03:gobmk/seed=1":          "4ca1202cebd8a2a3",
	"03:gobmk/seed=2":          "87492ed24689e1ae",
	"04:sjeng/seed=1":          "8429792269623cfa",
	"04:sjeng/seed=2":          "603b8749651aaf17",
	"05:h264ref/seed=1":        "f3bb9105b603a321",
	"05:h264ref/seed=2":        "f3bb9105b603a321",
	"06:povray/seed=1":         "9d06eab98a747193",
	"06:povray/seed=2":         "9d59b9b13263dc64",
	"07:dealII/seed=1":         "342c5ec0abdf922e",
	"07:dealII/seed=2":         "342c5ec0abdf922e",
	"08:astar/seed=1":          "f50338e1a7c58bfd",
	"08:astar/seed=2":          "cfed081560debe3b",
	"09:libquantum/seed=1":     "601a78d4f21b5195",
	"09:libquantum/seed=2":     "601a78d4f21b5195",
	"10:perlbench/seed=1":      "363c4b1537ae02c4",
	"10:perlbench/seed=2":      "3a5d3a99c2ea5471",
	"11:omnetpp/seed=1":        "2b12c0560a94222a",
	"11:omnetpp/seed=2":        "7054f2197a3b02c4",
	"12:namd/seed=1":           "d1c899ccdfd2a741",
	"12:namd/seed=2":           "8463f1cd2191287c",
	"13:milc/seed=1":           "5e01a7163522b83e",
	"13:milc/seed=2":           "cf389ae4a0b44429",
	"14:soplex/seed=1":         "c7e9db69db7318e0",
	"14:soplex/seed=2":         "11fe4ca5d52d67f7",
	"15:xalancbmk/seed=1":      "a23defb5696b31fe",
	"15:xalancbmk/seed=2":      "6ea92b5f826dd180",
	"16:spectreV1-fr/seed=1":   "d7fa8869a25b1fc5",
	"16:spectreV1-fr/seed=2":   "7edc0a3f8e3dd5a3",
	"17:spectreV2-fr/seed=1":   "0b65257b8184f21b",
	"17:spectreV2-fr/seed=2":   "f88d492110761677",
	"18:spectreRSB-fr/seed=1":  "5acac03bbf3c7436",
	"18:spectreRSB-fr/seed=2":  "f40ef30a58cb3ac9",
	"19:meltdown-fr/seed=1":    "a489d0305fcdbb4f",
	"19:meltdown-fr/seed=2":    "509ce45ce4f03f35",
	"20:breakingKSLR/seed=1":   "ec1e05651e183a26",
	"20:breakingKSLR/seed=2":   "ec1e05651e183a26",
	"21:cacheOut-fr/seed=1":    "e0a9b3ad5a33189d",
	"21:cacheOut-fr/seed=2":    "0a80570c9c51604b",
	"22:flush+reload/seed=1":   "b178810cd4a3745c",
	"22:flush+reload/seed=2":   "f170023e24dd38d9",
	"23:flush+flush/seed=1":    "56f5092f2a707076",
	"23:flush+flush/seed=2":    "71d872aebc6bb365",
	"24:prime+probe/seed=1":    "9372033cd65a49da",
	"24:prime+probe/seed=2":    "e544dddfa314d6cf",
	"25:calibration-fr/seed=1": "d3739f7ff623cd63",
	"25:calibration-fr/seed=2": "d3739f7ff623cd63",
	"26:calibration-ff/seed=1": "fc91208a638ce130",
	"26:calibration-ff/seed=2": "fc91208a638ce130",
	"27:calibration-pp/seed=1": "f829c3edd27089d6",
	"27:calibration-pp/seed=2": "f829c3edd27089d6",
	"28:spectreV1-pp/seed=1":   "6a16417a1453a7e1",
	"28:spectreV1-pp/seed=2":   "f2aa9bc735111beb",
	"29:spectreV2-pp/seed=1":   "e5ddbba6b77cede5",
	"29:spectreV2-pp/seed=2":   "07deebd47a3623ac",
	"30:spectreRSB-pp/seed=1":  "5e92c03806d7350e",
	"30:spectreRSB-pp/seed=2":  "de159725a5f1d5d9",
	"31:meltdown-pp/seed=1":    "1a73389c00ffdc47",
	"31:meltdown-pp/seed=2":    "7e6aeca68df9afc3",
	"32:cacheOut-pp/seed=1":    "e3a1534b41532dc2",
	"32:cacheOut-pp/seed=2":    "7303d3f6eba5f7fe",
	"33:spectreV4-fr/seed=1":   "94354f43fc6133d2",
	"33:spectreV4-fr/seed=2":   "4710b82b92d3803d",
	"34:rowhammer/seed=1":      "3bf8f451f4defb49",
	"34:rowhammer/seed=2":      "3bf8f451f4defb49",
	"cutoff/mcf":               "7ffae8fdb11402f2",
	"cutoff/spectreV1":         "4ed68be3900015f9",
	"mitigate/gcc":             "148e0bc2749ebaba",
	"mitigate/prime+probe":     "bd5557b8a718a331",
	"mitigate/spectreV1":       "a4b53bfe295549e6",
}

func checkGolden(t *testing.T, key, got string) {
	t.Helper()
	if want, ok := simGolden[key]; !ok {
		t.Errorf("%s: no golden; got %s", key, got)
	} else if got != want {
		t.Errorf("%s: fingerprint %s, golden %s — the simulator's counter trace drifted", key, got, want)
	}
}

func TestSimulatorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator golden runs ~15M instructions")
	}
	for i, prog := range goldenPrograms() {
		prog := prog
		key := fmt.Sprintf("%02d:%s", i, prog.Info().Name)
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 2} {
				got, _ := goldenRun(prog, seed, -1, nil)
				checkGolden(t, fmt.Sprintf("%s/seed=%d", key, seed), got)
			}
		})
	}
}

// TestSimulatorGoldenHooks pins the runs whose behaviour depends on the
// machine hooks: mitigations toggled mid-run from OnSample, and a consumer
// that stops listening early.
func TestSimulatorGoldenHooks(t *testing.T) {
	mitigate := func(m *Machine) {
		m.OnSample = func(idx int, _ []float64) {
			switch idx {
			case 2:
				m.EnableFencing(true)
			case 5:
				m.RekeyCaches(0xfeed)
			case 8:
				m.InjectBPNoise(200)
			case 11:
				m.EnableFencing(false)
			case 14:
				m.RekeyCaches(0xbeef)
				m.InjectBPNoise(0)
			}
		}
	}
	cases := []struct {
		name      string
		prog      workload.Program
		stopAfter int
		setup     func(*Machine)
	}{
		{"mitigate/spectreV1", attacks.SpectreV1("fr"), -1, mitigate},
		{"mitigate/prime+probe", attacks.PrimeProbe(), -1, mitigate},
		{"mitigate/gcc", benign.Gcc(), -1, mitigate},
		{"cutoff/spectreV1", attacks.SpectreV1("fr"), 5, nil},
		{"cutoff/mcf", benign.Mcf(), 0, nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, samples := goldenRun(c.prog, 3, c.stopAfter, c.setup)
			if c.stopAfter >= 0 && len(samples) != c.stopAfter+1 {
				t.Fatalf("consumer saw %d samples, want %d", len(samples), c.stopAfter+1)
			}
			checkGolden(t, c.name, got)
		})
	}
}

// TestRunMatchesRunStream asserts that pulling a Run with Next yields
// RunStream's samples bit for bit on the four serve streams.
func TestRunMatchesRunStream(t *testing.T) {
	for _, prog := range []workload.Program{attacks.SpectreV1("fr"), attacks.FlushReload(), benign.Gcc(), benign.Mcf()} {
		prog := prog
		t.Run(prog.Info().Name, func(t *testing.T) {
			t.Parallel()
			_, streamed := goldenRun(prog, 1, -1, nil)
			pulled := runAll(NewMachine(), prog.Stream(rand.New(rand.NewSource(1))), goldenInsts, goldenInterval)
			if len(pulled) != len(streamed) {
				t.Fatalf("Next gave %d samples, RunStream %d", len(pulled), len(streamed))
			}
			for i := range pulled {
				for j := range pulled[i] {
					if math.Float64bits(pulled[i][j]) != math.Float64bits(streamed[i][j]) {
						t.Fatalf("sample %d counter %d: Next %v, RunStream %v", i, j, pulled[i][j], streamed[i][j])
					}
				}
			}
		})
	}
}
