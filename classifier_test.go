package perspectron

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

var cachedClassifier *Classifier

func sharedClassifier(t *testing.T) *Classifier {
	t.Helper()
	if cachedClassifier == nil {
		opts := DefaultOptions()
		opts.MaxInsts = 150_000
		opts.Runs = 1
		c, err := TrainClassifier(TrainingWorkloads(), opts)
		if err != nil {
			t.Fatal(err)
		}
		cachedClassifier = c
	}
	return cachedClassifier
}

func TestClassifierClasses(t *testing.T) {
	c := sharedClassifier(t)
	if len(c.Classes) < 10 {
		t.Fatalf("classes = %v", c.Classes)
	}
	hasBenign := false
	for _, cl := range c.Classes {
		if cl == "benign" {
			hasBenign = true
		}
	}
	if !hasBenign {
		t.Fatalf("no benign class")
	}
}

func TestClassifierNamesAttacks(t *testing.T) {
	c := sharedClassifier(t)
	cases := map[string]string{
		"flush+flush":  "flush_flush",
		"flush+reload": "flush_reload",
		"prime+probe":  "prime_probe",
		"meltdown":     "meltdown",
	}
	for name, wantClass := range cases {
		res, err := c.Classify(AttackByName(name, "fr"), 80_000, 31)
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != wantClass {
			t.Errorf("%s classified as %q (votes %v), want %q",
				name, res.Class, res.Votes, wantClass)
		}
	}
}

func TestClassifierNamesBenign(t *testing.T) {
	c := sharedClassifier(t)
	res, err := c.Classify(BenignWorkloads()[0], 60_000, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != "benign" {
		t.Fatalf("bzip2 classified as %q (votes %v)", res.Class, res.Votes)
	}
	if res.Confidence < 0.8 {
		t.Fatalf("benign confidence %.2f", res.Confidence)
	}
}

func TestClassifierSaveLoad(t *testing.T) {
	c := sharedClassifier(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Classify(AttackByName("flush+flush", ""), 60_000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != "flush_flush" {
		t.Fatalf("loaded classifier names flush+flush as %q", res.Class)
	}
}

func TestLoadClassifierErrors(t *testing.T) {
	if _, err := LoadClassifier(bytes.NewBufferString("{")); err == nil {
		t.Fatalf("truncated JSON accepted")
	}
	if _, err := LoadClassifier(bytes.NewBufferString(`{"classes":["a"],"weights":[]}`)); err == nil {
		t.Fatalf("corrupt classifier accepted")
	}
}

// TestMajorityClassBreaksTiesByClassOrder pins the vote to the classifier's
// class order: a tie must not depend on map iteration order.
func TestMajorityClassBreaksTiesByClassOrder(t *testing.T) {
	classes := []string{"benign", "flush_reload", "prime_probe", "spectre_v1"}
	cases := []struct {
		votes map[string]int
		want  string
	}{
		{map[string]int{"spectre_v1": 5}, "spectre_v1"},
		{map[string]int{"benign": 2, "spectre_v1": 3}, "spectre_v1"},
		{map[string]int{"spectre_v1": 3, "flush_reload": 3}, "flush_reload"},
		{map[string]int{"prime_probe": 2, "benign": 2, "spectre_v1": 2}, "benign"},
		{map[string]int{"spectre_v1": 4, "prime_probe": 4, "benign": 1}, "prime_probe"},
	}
	for _, tc := range cases {
		// Repeat so a map-order dependence would surface as a flaky result.
		for i := 0; i < 20; i++ {
			if got := majorityClass(classes, tc.votes); got != tc.want {
				t.Fatalf("majorityClass(%v) = %q, want %q", tc.votes, got, tc.want)
			}
		}
	}
}

func TestTrainClassifierErrors(t *testing.T) {
	if _, err := TrainClassifier(nil, DefaultOptions()); err == nil {
		t.Fatalf("empty corpus accepted")
	}
}

// classifierGolden is the SHA-256 of the saved bank trained at
// sharedClassifier's config, frozen when the bank was fitted one class
// after another: fitting the classes concurrently must not move a weight.
const classifierGolden = "1d54d0ccc31f9bf9ddeddf35cd1d615f35715472a6b12be1768c7cb1b709c371"

// TestTrainClassifierGolden pins the bank's saved bytes, and checks that
// they do not depend on how many workers fit its classes.
func TestTrainClassifierGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the classifier bank twice")
	}
	opts := DefaultOptions()
	opts.MaxInsts = 150_000
	opts.Runs = 1
	saved := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c, err := TrainClassifier(TrainingWorkloads(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	one, four := saved(1), saved(4)
	if one != four {
		t.Fatalf("saved bank differs across workers: GOMAXPROCS 1 %s, 4 %s", one, four)
	}
	if one != classifierGolden {
		t.Fatalf("saved bank hash %s, golden %s", one, classifierGolden)
	}
}
