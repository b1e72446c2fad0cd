package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"perspectron/internal/workload/attacks"
)

func TestSpectreV4Footprint(t *testing.T) {
	m := NewMachine()
	runAll(m, attacks.SpectreV4("fr").Stream(rand.New(rand.NewSource(1))), 50_000, 10_000)
	fmt.Println("memOrderViolations:", value(t, m, "iew.memOrderViolationEvents"))
	fmt.Println("squashedLoads:", value(t, m, "lsq.thread0.squashedLoads"))
	fmt.Println("rescheduled:", value(t, m, "lsq.thread0.rescheduledLoads"))
	if value(t, m, "iew.memOrderViolationEvents") == 0 {
		t.Fatalf("v4 caused no memory-order violations")
	}
}

func TestRowHammerFootprint(t *testing.T) {
	m := NewMachine()
	runAll(m, attacks.RowHammer().Stream(rand.New(rand.NewSource(1))), 50_000, 10_000)
	fmt.Println("activations:", value(t, m, "mem_ctrls.rank0.actCount"))
	fmt.Println("flush_ops:", value(t, m, "dcache.flush_ops"))
	if value(t, m, "mem_ctrls.rank0.actCount") < 1000 {
		t.Fatalf("rowhammer activation rate too low")
	}
}
