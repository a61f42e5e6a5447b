package cluster

import (
	"fmt"
	"testing"
)

// fullWeights weights every node at WeightFull.
func fullWeights(int) int { return WeightFull }

// weightTable builds a weight func from a per-node slice.
func weightTable(w []int) func(int) int {
	return func(node int) int { return w[node] }
}

// ringKeys generates n distinct affinity-key-shaped strings (hex-ish ids).
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("inst-%08x-key", i*2654435761)
	}
	return keys
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(0, 16); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := NewRing(3, 0); err == nil {
		t.Error("0 vnodes accepted")
	}
	if _, err := NewRing(3, 1<<15); err == nil {
		t.Error("oversized vnodes accepted")
	}
	r, err := NewRing(3, 128)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes() != 3 {
		t.Fatalf("Nodes() = %d, want 3", r.Nodes())
	}
}

// TestRingDistribution bounds the load skew of a healthy ring: with 128
// vnodes per node, every node's share of 30k keys must stay within a factor
// of the fair share. The hash is deterministic, so this is a fixed property
// of the construction, not a flaky statistical assertion.
func TestRingDistribution(t *testing.T) {
	keys := ringKeys(30000)
	for _, nodes := range []int{2, 3, 5, 8} {
		r, err := NewRing(nodes, 128)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, nodes)
		buf := make([]int, 0, nodes)
		for _, k := range keys {
			_, chain := r.Route(k, fullWeights, buf[:0])
			if len(chain) == 0 {
				t.Fatalf("nodes=%d: empty chain at full weight", nodes)
			}
			counts[chain[0]]++
		}
		fair := float64(len(keys)) / float64(nodes)
		for n, c := range counts {
			if ratio := float64(c) / fair; ratio < 0.55 || ratio > 1.55 {
				t.Errorf("nodes=%d: node %d holds %d keys (%.2f× fair share %0.f)",
					nodes, n, c, ratio, fair)
			}
		}
	}
}

// TestRingRouteProperties pins the per-lookup invariants: determinism,
// chain[0] == home at full weight, chain covering all nodes exactly once.
func TestRingRouteProperties(t *testing.T) {
	r, err := NewRing(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ringKeys(2000) {
		home, chain := r.Route(k, fullWeights, nil)
		home2, chain2 := r.Route(k, fullWeights, nil)
		if home != home2 || len(chain) != len(chain2) {
			t.Fatalf("key %q: nondeterministic route", k)
		}
		for i := range chain {
			if chain[i] != chain2[i] {
				t.Fatalf("key %q: nondeterministic chain", k)
			}
		}
		if len(chain) != 4 {
			t.Fatalf("key %q: chain %v does not cover all nodes", k, chain)
		}
		if chain[0] != home {
			t.Fatalf("key %q: chain[0]=%d != home=%d at full weight", k, chain[0], home)
		}
		seen := map[int]bool{}
		for _, n := range chain {
			if seen[n] {
				t.Fatalf("key %q: duplicate node %d in chain %v", k, n, chain)
			}
			seen[n] = true
		}
	}
}

// TestRingMinimalMovementOnDeath is the consistent-hashing contract: when
// one node dies (weight 0), every key homed elsewhere keeps its exact
// placement, the dead node's keys redistribute across the survivors, and
// recovery restores the original mapping bit for bit.
func TestRingMinimalMovementOnDeath(t *testing.T) {
	const nodes, dead = 5, 2
	r, err := NewRing(nodes, 128)
	if err != nil {
		t.Fatal(err)
	}
	keys := ringKeys(20000)

	healthy := make([]int, len(keys))
	for i, k := range keys {
		_, chain := r.Route(k, fullWeights, nil)
		healthy[i] = chain[0]
	}

	w := []int{WeightFull, WeightFull, 0, WeightFull, WeightFull}
	moved, redistributed := 0, make([]int, nodes)
	for i, k := range keys {
		_, chain := r.Route(k, weightTable(w), nil)
		if len(chain) != nodes-1 {
			t.Fatalf("key %q: chain %v should cover the 4 survivors", k, chain)
		}
		switch {
		case healthy[i] != dead && chain[0] != healthy[i]:
			moved++
		case healthy[i] == dead:
			if chain[0] == dead {
				t.Fatalf("key %q still routed to dead node", k)
			}
			redistributed[chain[0]]++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys homed on live nodes moved when node %d died", moved, dead)
	}
	// The orphaned keys must spread over all survivors, not dogpile one.
	orphans := 0
	for _, c := range redistributed {
		orphans += c
	}
	for n, c := range redistributed {
		if n == dead {
			continue
		}
		if share := float64(c) / (float64(orphans) / float64(nodes-1)); share < 0.4 || share > 1.8 {
			t.Errorf("survivor %d absorbed %d of %d orphans (%.2f× fair)", n, c, orphans, share)
		}
	}

	// Full recovery restores the exact original mapping.
	for i, k := range keys {
		_, chain := r.Route(k, fullWeights, nil)
		if chain[0] != healthy[i] {
			t.Fatalf("key %q did not return to node %d after recovery", k, healthy[i])
		}
	}
}

// TestRingWeightSpill checks partial backpressure: halving one node's weight
// moves a fraction (not all, not none) of its keys to successors, leaves
// every other node's keys untouched, and a WeightFloor node still receives
// some traffic (the floor's whole purpose).
func TestRingWeightSpill(t *testing.T) {
	const nodes, shed = 4, 1
	r, err := NewRing(nodes, 128)
	if err != nil {
		t.Fatal(err)
	}
	keys := ringKeys(20000)

	healthy := make([]int, len(keys))
	onShed := 0
	for i, k := range keys {
		_, chain := r.Route(k, fullWeights, nil)
		healthy[i] = chain[0]
		if chain[0] == shed {
			onShed++
		}
	}

	for _, weight := range []int{WeightFull / 2, WeightFloor} {
		w := []int{WeightFull, WeightFull, WeightFull, WeightFull}
		w[shed] = weight
		stayed, movedOff, movedOther := 0, 0, 0
		for i, k := range keys {
			_, chain := r.Route(k, weightTable(w), nil)
			switch {
			case healthy[i] == shed && chain[0] == shed:
				stayed++
			case healthy[i] == shed:
				movedOff++
			case chain[0] != healthy[i]:
				movedOther++
			}
		}
		if movedOther != 0 {
			t.Errorf("weight=%d: %d keys of unshedded nodes moved", weight, movedOther)
		}
		if stayed == 0 {
			t.Errorf("weight=%d: shed node lost all its keys; floor should keep some", weight)
		}
		if movedOff == 0 {
			t.Errorf("weight=%d: no keys spilled off the shed node", weight)
		}
		frac := float64(movedOff) / float64(onShed)
		// Halving the weight should spill very roughly half the keys; the
		// floor (32/256) should spill most but never all.
		switch weight {
		case WeightFull / 2:
			if frac < 0.25 || frac > 0.75 {
				t.Errorf("weight=128: spilled %.2f of shed node's keys, want ~0.5", frac)
			}
		case WeightFloor:
			if frac < 0.70 || frac > 0.99 {
				t.Errorf("weight=32: spilled %.2f of shed node's keys, want most-but-not-all", frac)
			}
		}
	}
}

// TestRingChainBufReuse checks the documented buf contract: passing buf[:0]
// reuses storage without corrupting results.
func TestRingChainBufReuse(t *testing.T) {
	r, err := NewRing(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 3)
	a1, c1 := r.Route("key-a", fullWeights, buf[:0])
	first := append([]int(nil), c1...)
	a2, c2 := r.Route("key-a", fullWeights, buf[:0])
	if a1 != a2 || len(first) != len(c2) {
		t.Fatal("buf reuse changed the route")
	}
	for i := range first {
		if first[i] != c2[i] {
			t.Fatal("buf reuse corrupted the chain")
		}
	}
}

// Nodes returns the node count the ring was built over.
func (r *Ring) Nodes() int { return r.nodes }
