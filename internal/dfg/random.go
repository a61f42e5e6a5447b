package dfg

import (
	"fmt"
	"math/rand"
)

// RandomDAG builds a random connected-ish DAG with n nodes. Each ordered
// pair (i, j), i < j, receives an edge with probability p; every non-first
// node additionally gets at least one incoming edge so the graph has no
// stray islands beyond the roots the probability draw produces. Node names
// are "n0".."n{n-1}" and op classes alternate between "mul" and "add" so the
// graphs exercise op-class-based FU tables too.
//
// The generator is deterministic for a given *rand.Rand state; experiments
// and property tests seed it explicitly.
func RandomDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		op := "add"
		if i%2 == 0 {
			op = "mul"
		}
		g.MustAddNode(fmt.Sprintf("n%d", i), op)
	}
	for j := 1; j < n; j++ {
		linked := false
		for i := 0; i < j; i++ {
			if rng.Float64() < p {
				g.MustAddEdge(NodeID(i), NodeID(j), 0)
				linked = true
			}
		}
		if !linked {
			g.MustAddEdge(NodeID(rng.Intn(j)), NodeID(j), 0)
		}
	}
	return g
}

// RandomTree builds a random out-tree with n nodes: node 0 is the root and
// every later node picks a uniformly random earlier node as its parent.
// hetsynth:keep test generator shared by several packages' tests and perfbench
func RandomTree(rng *rand.Rand, n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		op := "add"
		if i%2 == 0 {
			op = "mul"
		}
		g.MustAddNode(fmt.Sprintf("t%d", i), op)
	}
	for j := 1; j < n; j++ {
		g.MustAddEdge(NodeID(rng.Intn(j)), NodeID(j), 0)
	}
	return g
}

// Chain builds the simple path v1 -> v2 -> ... -> vn.
// hetsynth:keep test generator shared by several packages' tests
func Chain(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("v%d", i+1), "")
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(NodeID(i-1), NodeID(i), 0)
	}
	return g
}
