// Package cluster implements hetsynthd's cache-affinity scale-out layer:
// a consistent-hash ring over backend nodes, a peer table fed by a health
// prober, and a forwarding router (cmd/hetsynthrouter) that keys every
// solve on its canonical instance digest so same-graph traffic always
// lands on the node already holding the pinned FrontierSolver and
// raw-response entries.
//
// The design mirrors the source paper's core move one level up: just as
// each DSP node is assigned to the functional-unit type that executes it
// best, each solve is assigned to the node that already holds its state.
// A naive round-robin would shatter the per-node caches — every node ends
// up holding (and thrashing) the full working set; affinity routing
// partitions the instance space so N nodes hold N cache's worth of
// distinct state.
//
// Backpressure rides the PR-4 shed signal: a 429/Retry-After from a node
// (or a "draining" heartbeat) halves its virtual-node weight, spilling a
// share of its keys to ring successors; sustained health ramps the weight
// back, rebalancing without ever moving keys that were not forced to move.
package cluster

import (
	"fmt"
	"sort"
)

// WeightFull is the virtual-node activation weight of a fully healthy node;
// weights live in [0, WeightFull]. A vnode with activation byte g is active
// iff g < weight, so WeightFull activates every vnode and 0 deactivates all.
const WeightFull = 256

// WeightFloor is the lowest weight backpressure alone can push a node to:
// roughly an eighth of its keyspace keeps landing on it, which both bounds
// how much load spills onto successors and keeps probing the node with real
// traffic so recovery is observed quickly. Only death (transport failure or
// a failed health probe) takes a node to zero.
const WeightFloor = 32

// Ring is a consistent-hash ring mapping affinity keys onto a fixed set of
// nodes through virtual nodes. The node set is immutable after construction
// — membership changes in this design are weight changes (a dead node
// weighs zero), which is what makes rebalancing minimal: a key only moves
// when a vnode between its hash and its current owner changes activation.
//
// Ring itself is immutable and safe for concurrent use; per-node weights
// are supplied at lookup time by the caller (the router's peer table).
type Ring struct {
	points []ringPoint // sorted ascending by hash
	nodes  int
}

// ringPoint is one virtual node: its position on the ring, the node it
// belongs to, and its activation byte. The activation byte comes from the
// low bits of the point's own hash — effectively a fixed random draw per
// vnode, decorrelated from ring position (which sorts on the full hash) —
// so reducing a node's weight deactivates a uniform sample of its vnodes
// rather than a contiguous arc.
type ringPoint struct {
	hash uint64
	node int32
	gate uint16 // active iff int(gate) < weight
}

// NewRing builds a ring of nodes*vnodes points. Nodes are identified by
// index [0, nodes); the caller keeps the parallel peer table. vnodes is the
// points-per-node count: more points tighten the load skew (≈ N/sqrt(vnodes)
// imbalance) at the cost of a larger sorted array.
func NewRing(nodes, vnodes int) (*Ring, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: ring needs at least one node, got %d", nodes)
	}
	if vnodes < 1 || vnodes > 1<<14 {
		return nil, fmt.Errorf("cluster: vnodes %d out of range [1, %d]", vnodes, 1<<14)
	}
	r := &Ring{points: make([]ringPoint, 0, nodes*vnodes), nodes: nodes}
	for n := 0; n < nodes; n++ {
		for v := 0; v < vnodes; v++ {
			// (node, vnode) is a short structured input; byte-stream hashes
			// like FNV correlate badly over it (same-node points cluster on
			// the ring, so a dead node dumps its whole keyspace on one
			// successor). A splitmix64 finalizer avalanches every input bit
			// into every output bit, which is what spreads each node's
			// points — and its failover spill — uniformly.
			h := mix64(uint64(n)<<32 | uint64(v))
			r.points = append(r.points, ringPoint{hash: h, node: int32(n), gate: uint16(h & 0xff)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// Route maps an affinity key to its home node and failover chain.
//
// home is the node owning the first ring point at or after the key's hash,
// ignoring weights entirely: it is where the key lives in a fully healthy
// cluster, and it never changes while the membership is fixed — which is
// what makes "affinity hit" well defined (chain[0] == home).
//
// chain is the ordered list of distinct nodes found walking the ring
// clockwise from the key, keeping only vnodes active under the supplied
// per-node weights. chain[0] is where the request should go now; later
// entries are the spill/failover successors. A node whose weight has been
// reduced still appears in the chain if any of its remaining active vnodes
// is reached first — that is the "partial spill" behavior: only the share
// of its keyspace gated off by the weight moves to successors.
//
// chain is appended to buf (pass buf[:0] to reuse storage); an empty chain
// means every node weighs zero.
//
// hetsynth:hotpath
func (r *Ring) Route(key string, weight func(node int) int, buf []int) (home int, chain []int) {
	h := fnv1a64str(key)
	n := len(r.points)
	// First point with hash >= h; wraps to 0 past the top of the ring.
	i := sort.Search(n, func(j int) bool { return r.points[j].hash >= h })
	chain = buf
	home = -1
	for k := 0; k < n; k++ {
		p := &r.points[(i+k)%n]
		node := int(p.node)
		if home < 0 {
			home = node
		}
		if int(p.gate) >= weight(node) {
			continue
		}
		seen := false
		for _, c := range chain {
			if c == node {
				seen = true
				break
			}
		}
		if !seen {
			chain = append(chain, node)
			if len(chain) == r.nodes {
				break
			}
		}
	}
	return home, chain
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64,
// used to turn structured (node, vnode) pairs into uniform ring positions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a64str is FNV-1a over a string, inlined so key lookups never allocate
// a hash.Hash. Keys are long digest strings, which FNV spreads well; the
// result is finalized through mix64 so even short session keys land
// uniformly.
func fnv1a64str(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return mix64(h)
}
