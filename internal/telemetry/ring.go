package telemetry

// Ring is the registry's recent-events companion: a fixed-capacity,
// lock-free ring buffer of the last N values pushed into it. Metrics answer
// "how many, how fast" in aggregate; the ring answers "show me the last few,
// exactly" — the serving runtime keeps its most recent fully-attributed
// verdicts in one and exports them at /debug/verdicts via RingHandler, the
// flight-recorder pattern every production inference stack grows.
//
// Push is wait-free (one atomic add + one atomic pointer store), so it is
// safe on scoring hot paths; Snapshot is lock-free and sees each entry
// atomically (a concurrent Push may replace a slot between reads, but every
// value read is a complete, consistent entry, never a torn one).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
)

// ringEntry pairs a pushed value with its global sequence number so
// Snapshot can restore push order without coordinating with writers.
type ringEntry struct {
	seq uint64
	v   any
}

// Ring is a fixed-capacity lock-free ring of recent values.
type Ring struct {
	slots []atomic.Pointer[ringEntry]
	seq   atomic.Uint64
}

// NewRing returns a ring holding the most recent n values. It panics when
// n <= 0: a ring must hold at least one value.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic(fmt.Sprintf("telemetry: NewRing(%d): capacity must be positive", n))
	}
	return &Ring{slots: make([]atomic.Pointer[ringEntry], n)}
}

// Push appends v, overwriting the oldest entry once the ring is full.
func (r *Ring) Push(v any) {
	seq := r.seq.Add(1)
	r.slots[(seq-1)%uint64(len(r.slots))].Store(&ringEntry{seq: seq, v: v})
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Count returns the total number of values ever pushed (not the number
// currently held, which is min(Count, Cap)).
func (r *Ring) Count() uint64 { return r.seq.Load() }

// Snapshot returns the currently held values, oldest first. Entries pushed
// concurrently with the snapshot may or may not appear; each returned value
// is a complete entry.
func (r *Ring) Snapshot() []any {
	entries := make([]*ringEntry, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]any, len(entries))
	for i, e := range entries {
		out[i] = e.v
	}
	return out
}

// RingSnapshot is the JSON body RingHandler serves.
type RingSnapshot struct {
	// Capacity is the ring size; Count the total pushed since startup (so
	// Count - len(Entries) is how many rolled off the recorder).
	Capacity int    `json:"capacity"`
	Count    uint64 `json:"count"`
	Entries  []any  `json:"entries"`
}

// RingHandler exports a ring as a JSON debug endpoint: the held entries
// oldest-first plus capacity and total-pushed accounting.
func RingHandler(r *Ring) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := RingSnapshot{Capacity: r.Cap(), Count: r.Count(), Entries: r.Snapshot()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
}
