package stats

// Sampler converts a machine's cumulative counters into per-interval delta
// vectors ("samples"). The paper dumps all 1159 counters once every 10K, 50K
// and 100K instructions; the simulator drives Tick with the number of
// committed instructions and the sampler fires whenever the configured
// granularity is crossed.
//
// The sampler keeps no emitted vector: each one is a fresh slice handed to
// the emit callback, which owns it from then on.
//
// Samplers attached to another (Attach) count the same instructions at
// their own granularity through the one Tick of the sampler they are
// attached to, so a run sampled at several granularities pays one compare
// per commit, not one per granularity.
type Sampler struct {
	reg      *Registry
	interval uint64 // committed instructions per sample
	emit     func(delta []float64)

	committed uint64
	nextFire  uint64
	due       uint64     // the least nextFire over s and its attached samplers
	attached  []*Sampler // counted lazily: brought up to committed at each due

	prev []float64
	cur  []float64
}

// NewSampler creates a sampler over reg firing every interval committed
// instructions and handing each delta vector to emit. The registry must be
// sealed.
func NewSampler(reg *Registry, interval uint64, emit func(delta []float64)) *Sampler {
	if !reg.Sealed() {
		panic("stats: sampler requires a sealed registry")
	}
	if interval == 0 {
		panic("stats: zero sampling interval")
	}
	s := &Sampler{
		reg:      reg,
		interval: interval,
		emit:     emit,
		nextFire: interval,
		due:      interval,
		prev:     make([]float64, reg.Len()),
		cur:      make([]float64, reg.Len()),
	}
	reg.Snapshot(s.prev)
	return s
}

// Interval returns the sampling granularity in committed instructions.
func (s *Sampler) Interval() uint64 { return s.interval }

// Tick informs the sampler that n more instructions have committed. It
// returns the number of samples emitted by this tick (usually 0 or 1),
// attached samplers' included.
func (s *Sampler) Tick(n uint64) int {
	s.committed += n
	if s.committed < s.due {
		return 0
	}
	return s.reach()
}

// reach fires every boundary the count has crossed, the attached samplers'
// too, and sets the next due count.
func (s *Sampler) reach() int {
	fired := 0
	for ; s.committed >= s.nextFire; fired++ {
		s.fire()
	}
	s.due = s.nextFire
	for _, a := range s.attached {
		fired += a.Tick(s.committed - a.committed)
		s.due = min(s.due, a.due)
	}
	return fired
}

// Attach makes a count the instructions s counts from now on: each Tick of
// s reaches a on the instruction where a's own boundary falls. a must have
// counted as many instructions as s.
func (s *Sampler) Attach(a *Sampler) {
	if a.committed != s.committed {
		panic("stats: attached sampler is out of step")
	}
	s.attached = append(s.attached, a)
	s.due = min(s.due, a.due)
}

// Detach stops s ticking a, after bringing a's count up to s's.
func (s *Sampler) Detach(a *Sampler) {
	for i, x := range s.attached {
		if x == a {
			a.Tick(s.committed - a.committed)
			s.attached = append(s.attached[:i], s.attached[i+1:]...)
			return
		}
	}
}

// fire emits the delta since the last sample and moves the next boundary
// one interval on.
func (s *Sampler) fire() {
	s.nextFire += s.interval
	s.reg.Snapshot(s.cur)
	delta := make([]float64, len(s.cur))
	for i := range s.cur {
		delta[i] = s.cur[i] - s.prev[i]
	}
	copy(s.prev, s.cur)
	s.emit(delta)
}

// Flush emits a final partial sample if at least minInstr instructions have
// committed since the last emitted sample, and reports whether it did.
// Programs whose length is not a multiple of the interval still contribute
// their tail. Flush is idempotent: the emitted tail advances the interval
// boundary, so a second Flush (or a Flush-then-Tick on the same boundary)
// does not double-count it.
func (s *Sampler) Flush(minInstr uint64) bool {
	done := s.committed - (s.nextFire - s.interval)
	if done >= minInstr && done > 0 {
		s.fire()
		s.nextFire = s.committed + s.interval
		return true
	}
	return false
}

// Committed returns the total committed instructions seen.
func (s *Sampler) Committed() uint64 { return s.committed }
