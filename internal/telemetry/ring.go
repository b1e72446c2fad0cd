package telemetry

// Ring is the registry's recent-events companion: a fixed-capacity ring
// buffer of the last N values pushed into it. Metrics answer
// "how many, how fast" in aggregate; the ring answers "show me the last few,
// exactly" — the serving runtime keeps its most recent fully-attributed
// verdicts in one and exports them at /debug/verdicts via RingHandler, the
// flight-recorder pattern every production inference stack grows.
//
// A Ring holds values of one type, copied into preallocated slots, so Push
// allocates nothing and never boxes a value into an interface: the serving
// path pushes a verdict record per attributed verdict. Each slot has its own
// mutex, held only for the copy. Writers contend only when they wrap onto
// the same slot, and a Snapshot blocks at most one writer at a time; every
// value Snapshot reads is a complete entry, never a torn one.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// ringSlot is one stored value with its global push sequence number, so
// Snapshot can restore push order without coordinating with writers. seq 0
// marks a slot nothing was pushed into yet.
type ringSlot[T any] struct {
	mu  sync.Mutex
	seq uint64
	v   T
}

// Ring is a fixed-capacity ring of the most recent values of type T.
type Ring[T any] struct {
	slots []ringSlot[T]
	seq   atomic.Uint64
}

// NewRing returns a ring holding the most recent n values. It panics when
// n <= 0: a ring must hold at least one value.
func NewRing[T any](n int) *Ring[T] {
	if n <= 0 {
		panic(fmt.Sprintf("telemetry: NewRing(%d): capacity must be positive", n))
	}
	return &Ring[T]{slots: make([]ringSlot[T], n)}
}

// Push stores v, overwriting the oldest entry once the ring is full.
func (r *Ring[T]) Push(v T) {
	seq := r.seq.Add(1)
	sl := &r.slots[(seq-1)%uint64(len(r.slots))]
	sl.mu.Lock()
	// A writer that lapped this one already stored a newer entry here.
	if seq > sl.seq {
		sl.seq, sl.v = seq, v
	}
	sl.mu.Unlock()
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Count returns the total number of values ever pushed (not the number
// currently held, which is min(Count, Cap)).
func (r *Ring[T]) Count() uint64 { return r.seq.Load() }

// Snapshot returns the currently held values, oldest first. Entries pushed
// concurrently with the snapshot may or may not appear; each returned value
// is a complete entry.
func (r *Ring[T]) Snapshot() []T {
	type entry struct {
		seq uint64
		v   T
	}
	entries := make([]entry, 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		sl.mu.Lock()
		if sl.seq != 0 {
			entries = append(entries, entry{sl.seq, sl.v})
		}
		sl.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]T, len(entries))
	for i, e := range entries {
		out[i] = e.v
	}
	return out
}

// RingSnapshot is the JSON body RingHandler serves.
type RingSnapshot[T any] struct {
	// Capacity is the ring size; Count the total pushed since startup (so
	// Count - len(Entries) is how many rolled off the recorder).
	Capacity int    `json:"capacity"`
	Count    uint64 `json:"count"`
	Entries  []T    `json:"entries"`
}

// RingHandler exports a ring as a JSON debug endpoint: the held entries
// oldest-first plus capacity and total-pushed accounting.
func RingHandler[T any](r *Ring[T]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := RingSnapshot[T]{Capacity: r.Cap(), Count: r.Count(), Entries: r.Snapshot()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
}
