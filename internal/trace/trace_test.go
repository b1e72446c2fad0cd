package trace

import (
	"bytes"
	"context"
	"testing"

	"perspectron/internal/encoding"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	progs := []workload.Program{benign.Bzip2(), attacks.FlushReload()}
	return Collect(context.Background(), progs, CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1})[0]
}

func TestCollectProducesBothClasses(t *testing.T) {
	ds := smallDataset(t)
	b, m := ds.ClassCounts()
	if b == 0 || m == 0 {
		t.Fatalf("class counts: benign=%d malicious=%d", b, m)
	}
	if ds.NumFeatures() < 700 {
		t.Fatalf("feature space too small: %d", ds.NumFeatures())
	}
	for _, s := range ds.Samples {
		if len(s.Raw) != ds.NumFeatures() {
			t.Fatalf("sample width mismatch")
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	cfg := CollectConfig{MaxInsts: 20_000, Interval: 10_000, Seed: 5, Runs: 1}
	a := Collect(context.Background(), []workload.Program{benign.Mcf()}, cfg)[0]
	b := Collect(context.Background(), []workload.Program{benign.Mcf()}, cfg)[0]
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		for j := range a.Samples[i].Raw {
			if a.Samples[i].Raw[j] != b.Samples[i].Raw[j] {
				t.Fatalf("sample %d feature %d differs", i, j)
			}
		}
	}
}

func TestCollectMultiRunSeedsDiffer(t *testing.T) {
	cfg := CollectConfig{MaxInsts: 20_000, Interval: 10_000, Seed: 5, Runs: 2}
	ds := Collect(context.Background(), []workload.Program{benign.Gobmk()}, cfg)[0]
	run0 := ds.Filter(func(s *Sample) bool { return s.Run == 0 })
	run1 := ds.Filter(func(s *Sample) bool { return s.Run == 1 })
	if len(run0.Samples) == 0 || len(run1.Samples) == 0 {
		t.Fatalf("missing runs")
	}
	same := true
	for j := range run0.Samples[0].Raw {
		if run0.Samples[0].Raw[j] != run1.Samples[0].Raw[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical first samples")
	}
}

func TestEncoderScaleRange(t *testing.T) {
	ds := smallDataset(t)
	X, y := Scaled(Maxima(ds), ds, nil)
	if len(X) != len(ds.Samples) || len(y) != len(X) {
		t.Fatalf("matrix shape wrong")
	}
	for i, row := range X {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("scaled value %v out of range", v)
			}
		}
		if y[i] != 1 && y[i] != -1 {
			t.Fatalf("label value %v", y[i])
		}
	}
}

func TestEncoderBinary(t *testing.T) {
	ds := smallDataset(t)
	X, _ := Bits(Maxima(ds), ds, nil)
	ones := 0
	for _, row := range X {
		if len(row) != (ds.NumFeatures()+63)/64 {
			t.Fatalf("row width %d words for %d features", len(row), ds.NumFeatures())
		}
		ones += row.Ones()
		for j := ds.NumFeatures(); j < len(row)*64; j++ {
			if row.Get(j) {
				t.Fatalf("bit %d set beyond the feature width", j)
			}
		}
	}
	if ones == 0 {
		t.Fatalf("binarization produced all-zero vectors")
	}
}

func TestFilterAndCategories(t *testing.T) {
	ds := smallDataset(t)
	mal := ds.Filter(func(s *Sample) bool { return s.Label == workload.Malicious })
	if b, _ := mal.ClassCounts(); b != 0 {
		t.Fatalf("filter leaked benign samples")
	}
	cats := map[string]bool{}
	for _, s := range ds.Samples {
		cats[s.Category] = true
	}
	if len(cats) != 2 {
		t.Fatalf("categories = %v", cats)
	}
}

// TestProject: Scaled restricted to idx carries, in idx order, exactly the
// columns of the full scaled rows.
func TestProject(t *testing.T) {
	ds := smallDataset(t)
	m := Maxima(ds)
	full, _ := Scaled(m, ds, nil)
	idx := []int{2, 0, ds.NumFeatures() - 1}
	P, _ := Scaled(m, ds, idx)
	for i, row := range P {
		for j, f := range idx {
			if row[j] != full[i][f] {
				t.Fatalf("row %d column %d: projected %v, full %v", i, j, row[j], full[i][f])
			}
		}
	}
}

// TestPackedBinaryMatrixMatchesDense: the bit-packed encoding must carry
// exactly the bits of the dense scaled matrix cut at BinarizeThreshold (and
// the same labels), over all features and over a reordering projection.
func TestPackedBinaryMatrixMatchesDense(t *testing.T) {
	ds := smallDataset(t)
	m := Maxima(ds)
	idx := []int{ds.NumFeatures() - 1, 3, 0, 70, 64, 63}
	for _, proj := range [][]int{nil, idx} {
		Xs, yd := Scaled(m, ds, proj)
		Xp, yp := Bits(m, ds, proj)
		if len(Xp) != len(Xs) || len(yp) != len(yd) {
			t.Fatalf("packed shape (%d,%d) != dense (%d,%d)", len(Xp), len(yp), len(Xs), len(yd))
		}
		for i := range Xs {
			if yp[i] != yd[i] {
				t.Fatalf("label %d: packed %v != dense %v", i, yp[i], yd[i])
			}
			for j, v := range Xs[i] {
				if Xp[i].Get(j) != (v >= encoding.BinarizeThreshold) {
					t.Fatalf("row %d bit %d: packed %v, scaled %v", i, j, Xp[i].Get(j), v)
				}
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readCSV(&buf, ds.Components)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(ds.Samples) {
		t.Fatalf("sample count %d != %d", len(back.Samples), len(ds.Samples))
	}
	if back.Interval != ds.Interval {
		t.Fatalf("interval %d != %d", back.Interval, ds.Interval)
	}
	for i := range ds.Samples {
		a, b := &ds.Samples[i], &back.Samples[i]
		if a.Program != b.Program || a.Label != b.Label || a.Index != b.Index {
			t.Fatalf("metadata mismatch at %d", i)
		}
		for j := range a.Raw {
			if a.Raw[j] != b.Raw[j] {
				t.Fatalf("value mismatch at %d/%d", i, j)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := readCSV(bytes.NewBufferString("a,b\n"), nil); err == nil {
		t.Fatalf("short header accepted")
	}
	bad := "program,category,channel,label,run,index,interval,f1\np,c,ch,benign,x,0,10,1\n"
	if _, err := readCSV(bytes.NewBufferString(bad), nil); err == nil {
		t.Fatalf("bad run column accepted")
	}
}

func TestSummary(t *testing.T) {
	ds := smallDataset(t)
	if ds.Summary() == "" {
		t.Fatalf("empty summary")
	}
}
