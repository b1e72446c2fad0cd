package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into the program, recorded by the benchmark around
// a public API call. Times are Unix nanoseconds so spans from different
// child processes share one clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Proc   string `json:"proc,omitempty"` // the child process that recorded it
}

// tracer keeps spans in memory. A nil *tracer records nothing, which is how
// untraced reps run: every begin/end is a nil check and nothing else.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span named name under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is one span name's aggregate in a trace.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// childrenOf maps each span id to its direct children.
func childrenOf(spans []span) map[int][]span {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return children
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its children cover; children that overlap each
// other are counted once.
func selfTimes(spans []span) []selfTime {
	children := childrenOf(spans)
	agg := map[string]*selfTime{}
	var names []string
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
			names = append(names, s.Name)
		}
		a.Count++
		a.TotalS += float64(s.End-s.Start) / 1e9
		a.SelfS += float64(s.End-s.Start-covered) / 1e9
	}
	out := make([]selfTime, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	return out
}

// coveredNs is the length of the union of kids' intervals clipped to parent.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// rootChildrenCoverage is the share of the root spans' time that their
// direct children cover: how much of a traced rep the recorded calls
// account for.
func rootChildrenCoverage(spans []span) float64 {
	children := childrenOf(spans)
	var total, covered int64
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.End - s.Start
			covered += coveredNs(s, children[s.ID])
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}
