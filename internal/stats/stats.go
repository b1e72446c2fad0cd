// Package stats implements the microarchitectural statistics engine used by
// the simulator: a registry of named counters grouped by pipeline component,
// snapshot/delta sampling at a fixed instruction granularity, the
// per-(counter, sampling-point) maximum matrix M from the paper, and the
// scaled/binarized k-sparse feature representation consumed by PerSpectron.
//
// The paper examines 1159 counters across 17 components; the registry is
// dynamic, and the simulator in internal/sim registers exactly that many.
package stats

import (
	"fmt"
)

// Component identifies the pipeline or memory-system unit a counter belongs
// to. Feature selection treats counters of the same component as candidates
// for within-component decorrelation, while correlated counters in
// *different* components are kept as replicated detectors.
type Component int

// The 17 components of the simulated machine, mirroring gem5's stat
// hierarchy as referenced by the paper (fetch, decode, rename, iq, iew,
// lsq, memDep, commit, rob, branchPred, itb, dtb, icache, dcache, l2,
// tol2bus/membus, mem_ctrls).
const (
	CompFetch Component = iota
	CompDecode
	CompRename
	CompIQ
	CompIEW
	CompLSQ
	CompMemDep
	CompCommit
	CompROB
	CompBranchPred
	CompITB
	CompDTB
	CompICache
	CompDCache
	CompL2
	CompBus
	CompMemCtrl
	NumComponents
)

var componentNames = [NumComponents]string{
	"fetch", "decode", "rename", "iq", "iew", "lsq", "memDep", "commit",
	"rob", "branchPred", "itb", "dtb", "icache", "dcache", "l2",
	"bus", "mem_ctrls",
}

// String returns the gem5-style lowercase component name.
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// ParseComponent maps a component name back to its Component value.
func ParseComponent(s string) (Component, error) {
	for i, n := range componentNames {
		if n == s {
			return Component(i), nil
		}
	}
	return 0, fmt.Errorf("stats: unknown component %q", s)
}

// Counter is a single monotonically increasing microarchitectural statistic.
// Counters are created through Registry.New* and written by the simulator via
// Add/Inc. Values are float64 so that energy and latency-sum statistics share
// the same machinery as event counts.
//
// A Counter is the value itself plus a pointer to its metadata: the
// registry lays counters out contiguously in registration order, so the
// simulator's per-instruction updates touch a few dense cache lines and
// each Inc is one load and one store.
type Counter struct {
	val  float64
	meta *counterMeta
}

type counterMeta struct {
	idx       int
	name      string
	component Component
	desc      string
	src       *uint64 // a view's integer count, nil for a plain counter
	mult      uint64  // a view's value is mult * *src
}

// Name returns the fully qualified counter name, e.g.
// "commit.NonSpecStalls".
func (c *Counter) Name() string { return c.meta.name }

// Component returns the pipeline component this counter belongs to.
func (c *Counter) Component() Component { return c.meta.component }

// Index returns the counter's stable position in registry order; sample
// vectors use this index.
func (c *Counter) Index() int { return c.meta.idx }

// Value returns the current cumulative value.
func (c *Counter) Value() float64 {
	if m := c.meta; m.src != nil {
		return float64(*m.src * m.mult)
	}
	return c.val
}

// Inc increments the counter by one event.
func (c *Counter) Inc() { c.val++ }

// Add increments the counter by n (n may be fractional for energy stats).
func (c *Counter) Add(n float64) { c.val += n }

// View is a read-only counter whose value is a fixed multiple of an
// integer count its owner keeps (ops stepped, commits, cycles). A counter
// that moves in lockstep with such a count is registered as a view, so the
// hot path bumps one integer instead of several float64 counters. A View
// has no Inc or Add; it samples, snapshots and dumps like any counter, and
// its value is exact while the count times the multiple stays below 2^53.
type View Counter

// Value returns the current cumulative value.
func (v *View) Value() float64 { return (*Counter)(v).Value() }

// counterChunk is how many counters share one contiguous allocation.
const counterChunk = 256

// Registry holds all counters of a machine in a stable order.
//
// The zero value is not usable; call NewRegistry.
type Registry struct {
	counters []*Counter
	views    []*Counter // the counters registered by NewView
	slab     []Counter  // current chunk; never grown, so pointers stay valid
	byName   map[string]*Counter
	sealed   bool
}

// NewRegistry returns an empty counter registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Counter)}
}

// New registers a counter under component comp with the given short name and
// description. The fully qualified name is "<component>.<name>". New panics
// on duplicate names or if the registry has been sealed: counter sets are
// fixed at machine construction time, so both indicate a programming error.
func (r *Registry) New(comp Component, name, desc string) *Counter {
	full := comp.String() + "." + name
	return r.newNamed(full, comp, desc)
}

// NewRaw registers a counter whose fully qualified name is given verbatim
// (used for gem5-style names that embed extra hierarchy, e.g.
// "tol2bus.trans_dist::ReadSharedReq" under the bus component).
func (r *Registry) NewRaw(comp Component, fullName, desc string) *Counter {
	return r.newNamed(fullName, comp, desc)
}

// NewView registers, like NewRaw, a read-only counter whose value is
// always mult times *src.
func (r *Registry) NewView(comp Component, fullName, desc string, src *uint64, mult uint64) *View {
	c := r.NewRaw(comp, fullName, desc)
	c.meta.src, c.meta.mult = src, mult
	r.views = append(r.views, c)
	return (*View)(c)
}

func (r *Registry) newNamed(full string, comp Component, desc string) *Counter {
	if r.sealed {
		panic("stats: registry sealed; cannot add counter " + full)
	}
	if _, dup := r.byName[full]; dup {
		panic("stats: duplicate counter " + full)
	}
	if len(r.slab) == cap(r.slab) {
		r.slab = make([]Counter, 0, counterChunk)
	}
	r.slab = append(r.slab, Counter{meta: &counterMeta{idx: len(r.counters), name: full, component: comp, desc: desc}})
	c := &r.slab[len(r.slab)-1]
	r.counters = append(r.counters, c)
	r.byName[full] = c
	return c
}

// Seal freezes the counter set. Sampling requires a sealed registry so that
// vector lengths are stable.
func (r *Registry) Seal() { r.sealed = true }

// Sealed reports whether the registry has been sealed.
func (r *Registry) Sealed() bool { return r.sealed }

// Len returns the number of registered counters.
func (r *Registry) Len() int { return len(r.counters) }

// Lookup returns the counter with the given fully qualified name.
func (r *Registry) Lookup(name string) (*Counter, bool) {
	c, ok := r.byName[name]
	return c, ok
}

// Names returns all counter names in registry order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.counters))
	for i, c := range r.counters {
		out[i] = c.meta.name
	}
	return out
}

// Components returns, in registry order, the component of each counter.
func (r *Registry) Components() []Component {
	out := make([]Component, len(r.counters))
	for i, c := range r.counters {
		out[i] = c.meta.component
	}
	return out
}

// Counter returns the i'th counter in registry order.
func (r *Registry) Counter(i int) *Counter { return r.counters[i] }

// Snapshot copies the current cumulative values into dst, which must have
// length Len() (pass nil to allocate).
func (r *Registry) Snapshot(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(r.counters))
	}
	if len(dst) != len(r.counters) {
		panic("stats: snapshot length mismatch")
	}
	for i, c := range r.counters {
		dst[i] = c.val
	}
	for _, c := range r.views {
		dst[c.meta.idx] = c.Value()
	}
	return dst
}

// Values copies every counter's stored value into dst (nil allocates).
// Unlike Snapshot it reads no view: with SetValues it saves and restores
// the registry's own state, while views follow their owners' counts.
func (r *Registry) Values(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(r.counters))
	}
	for i, c := range r.counters {
		dst[i] = c.val
	}
	return dst
}

// SetValues restores the stored values Values copied out.
func (r *Registry) SetValues(src []float64) {
	for i, c := range r.counters {
		c.val = src[i]
	}
}

// ByComponent returns the indices of all counters belonging to comp, in
// registry order.
func (r *Registry) ByComponent(comp Component) []int {
	var out []int
	for i, c := range r.counters {
		if c.meta.component == comp {
			out = append(out, i)
		}
	}
	return out
}
