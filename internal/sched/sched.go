// Package sched implements a time-multiplexing scheduler over the simulated
// machine: multiple programs (attacker and victims) share one core in
// round-robin quanta, with TLB flushes on context switch while caches,
// branch predictor, and DRAM state persist — the shared microarchitectural
// substrate cross-process attacks actually exploit, and the deployment
// setting in which a hardware detector's samples must be attributed to the
// process that was running.
package sched

import (
	"fmt"
	"math/rand"

	"perspectron/internal/isa"
	"perspectron/internal/sim"
	"perspectron/internal/stats"
	"perspectron/internal/workload"
)

// Task is one scheduled program.
type Task struct {
	Prog   workload.Program
	stream isa.Stream
	done   bool

	// Committed counts instructions this task has retired.
	Committed uint64
}

// OwnedSample is one sampling interval attributed to the task that was
// running when it fired.
type OwnedSample struct {
	Task    int
	Program string
	Label   workload.Label
	Index   int // global sample index
	Raw     []float64
}

// Scheduler multiplexes tasks on one machine.
type Scheduler struct {
	M        *sim.Machine
	Quantum  uint64 // instructions per scheduling quantum
	Interval uint64 // sampling granularity; must divide Quantum

	tasks    []*Task
	switches int
}

// New builds a scheduler over a fresh machine. quantum must be a positive
// multiple of interval so samples never straddle a context switch.
func New(quantum, interval uint64, seed int64, progs ...workload.Program) (*Scheduler, error) {
	if quantum == 0 || interval == 0 || quantum%interval != 0 {
		return nil, fmt.Errorf("sched: quantum %d must be a positive multiple of interval %d",
			quantum, interval)
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("sched: no programs")
	}
	s := &Scheduler{
		M:        sim.NewMachine(sim.DefaultConfig()),
		Quantum:  quantum,
		Interval: interval,
	}
	for i, p := range progs {
		s.tasks = append(s.tasks, &Task{
			Prog:   p,
			stream: p.Stream(rand.New(rand.NewSource(seed + int64(i)*7919))),
		})
	}
	return s, nil
}

// Tasks returns the scheduled tasks.
func (s *Scheduler) Tasks() []*Task { return s.tasks }

// Switches returns the number of context switches performed.
func (s *Scheduler) Switches() int { return s.switches }

// Run executes until totalInsts instructions have committed across all
// tasks (or every task's stream ends), returning the attributed samples.
func (s *Scheduler) Run(totalInsts uint64) []OwnedSample {
	var out []OwnedSample
	cur := 0
	s.M.Pipe.Sampler = stats.NewSampler(s.M.Reg, s.Interval, func(v []float64) {
		info := s.tasks[cur].Prog.Info()
		out = append(out, OwnedSample{
			Task:    cur,
			Program: info.Name,
			Label:   info.Label,
			Index:   len(out),
			Raw:     v,
		})
	})

	var executed uint64
	for executed < totalInsts {
		t := s.tasks[cur]
		if t.done {
			if !s.advance(&cur) {
				break
			}
			continue
		}
		n := s.M.Pipe.Run(t.stream, s.Quantum)
		t.Committed += n
		executed += n
		if n < s.Quantum {
			t.done = true
		}
		if !s.advance(&cur) {
			break
		}
	}
	s.M.DRAM.FinishAt(s.M.Pipe.Cycle())
	return out
}

// advance context-switches to the next runnable task; it returns false when
// none remain. The switch flushes the TLBs (address spaces differ) but —
// deliberately — not the caches or predictors: that shared state is the
// attack surface.
func (s *Scheduler) advance(cur *int) bool {
	n := len(s.tasks)
	for step := 1; step <= n; step++ {
		next := (*cur + step) % n
		if !s.tasks[next].done {
			if next != *cur {
				s.M.ITB.Flush()
				s.M.DTB.Flush()
				s.switches++
			}
			*cur = next
			return true
		}
	}
	return false
}
