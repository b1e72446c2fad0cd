package serve

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is the consistent-hash ring that assigns streams to scoring shards.
// Each shard owns ringReplicas virtual nodes so load spreads evenly; a
// stream hashes to the first virtual node clockwise from its key. Routing is a
// pure function of (key, healthy-set): when a shard goes down — scorer
// breaker open after repeated panics — lookups walk clockwise to the next
// healthy shard, so only the streams that hashed to the dead shard move,
// and they all move to the same place (no rehash storm). When the shard
// recovers, the same streams move straight back.
//
// The ring is built once at supervisor construction and never mutated, so
// lookups are lock-free; liveness is consulted per-lookup via the healthy
// callback.
type ring struct {
	hashes []uint64 // sorted virtual-node hashes
	owner  []int    // owner[i] is the shard owning hashes[i]
	shards int
}

// ringReplicas is the virtual-node fan-out per shard.
const ringReplicas = 16

// newRing builds a ring of n shards, ringReplicas virtual nodes each.
func newRing(n int) *ring {
	r := &ring{shards: n}
	type vnode struct {
		h     uint64
		shard int
	}
	vnodes := make([]vnode, 0, n*ringReplicas)
	for s := 0; s < n; s++ {
		for v := 0; v < ringReplicas; v++ {
			vnodes = append(vnodes, vnode{hashKey("shard-" + strconv.Itoa(s) + "#" + strconv.Itoa(v)), s})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool { return vnodes[i].h < vnodes[j].h })
	r.hashes = make([]uint64, len(vnodes))
	r.owner = make([]int, len(vnodes))
	for i, v := range vnodes {
		r.hashes[i] = v.h
		r.owner[i] = v.shard
	}
	return r
}

// lookup returns the shard for key: the owner of the first virtual node
// clockwise, skipping shards healthy reports false for. If every shard is
// unhealthy the home shard is returned anyway — items must land somewhere,
// and the home scorer's restart loop will drain them. A nil healthy
// callback routes purely by hash.
func (r *ring) lookup(key string, healthy func(shard int) bool) int {
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if start == len(r.hashes) {
		start = 0
	}
	home := r.owner[start]
	if healthy == nil {
		return home
	}
	// Walk clockwise until a healthy owner appears; visiting every virtual
	// node bounds the walk while still preferring ring-adjacent shards.
	for i := 0; i < len(r.hashes); i++ {
		s := r.owner[(start+i)%len(r.hashes)]
		if healthy(s) {
			return s
		}
	}
	return home
}

// hashKey is FNV-1a 64 with a splitmix64-style finalizer — stable across
// processes, so a stream keeps its shard across restarts (and across
// supervisors in a fleet). The finalizer matters: raw FNV-1a leaves
// similarly-named keys ("stream-1", "stream-2", ...) in one narrow band of
// the ring, piling whole fleets onto a couple of shards; the avalanche
// spreads them uniformly.
func hashKey(key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(key))
	h := f.Sum64()
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
