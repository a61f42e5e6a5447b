// Package unfold implements loop unfolding (also called unrolling or
// blocking) of cyclic data-flow graphs, after Chao and Sha, "Scheduling
// data-flow graphs via retiming and unfolding" (reference [6] of the
// paper).
//
// Unfolding by factor f replaces the DFG with one that executes f
// consecutive loop iterations per schedule period: every node gets f
// copies (copy i computes iteration i of the block), and an edge u→v with
// d delays becomes, for each i in 0..f−1, an edge from copy i of u to copy
// (i+d) mod f of v carrying ⌊(i+d)/f⌋ delays. Inter-iteration parallelism
// that retiming alone cannot expose becomes intra-block parallelism, which
// lets the average per-iteration schedule length approach the loop's
// iteration bound.
package unfold

import (
	"fmt"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// Unfold returns the f-unfolded version of g. Copy i of node "x" is named
// "x@i". The zero-delay DAG portion of the result is acyclic whenever g's
// is (unfolding preserves schedulability).
func Unfold(g *dfg.Graph, f int) (*dfg.Graph, error) {
	if f < 1 {
		return nil, fmt.Errorf("unfold: factor %d < 1", f)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := dfg.New()
	ids := make([][]dfg.NodeID, g.N()) // ids[v][i]: copy i of node v
	for _, n := range g.Nodes() {
		ids[n.ID] = make([]dfg.NodeID, f)
		for i := 0; i < f; i++ {
			id, err := out.AddNode(fmt.Sprintf("%s@%d", n.Name, i), n.Op)
			if err != nil {
				return nil, err
			}
			ids[n.ID][i] = id
		}
	}
	for _, e := range g.Edges() {
		for i := 0; i < f; i++ {
			to := (i + e.Delays) % f
			d := (i + e.Delays) / f
			if err := out.AddEdge(ids[e.From][i], ids[e.To][to], d); err != nil {
				return nil, err
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("unfold: internal error: unfolded graph invalid: %w", err)
	}
	return out, nil
}

// LiftTable expands a per-node time/cost table of g onto the f copies of
// each node, so that the heterogeneous assignment algorithms run unchanged
// on the unfolded graph.
func LiftTable(t *fu.Table, f int) *fu.Table {
	out := fu.NewTable(t.N()*f, t.K())
	for v := 0; v < t.N(); v++ {
		for i := 0; i < f; i++ {
			out.MustSet(v*f+i, t.Time[v], t.Cost[v])
		}
	}
	return out
}

// IterationBound computes the loop's theoretical throughput limit
// max over cycles of (total node time on the cycle / total delays on the
// cycle), the floor no schedule can beat regardless of resources. It is
// computed by binary search on the answer using a Bellman–Ford
// positive-cycle test, and returns 0/1 for acyclic graphs (no bound).
//
// The search runs on the integer grid with denominator totalDelays², on
// which any two distinct cycle ratios are separated, so the returned
// num/den is the smallest grid point at or above the true bound:
// ⌈ratio·den⌉/den, exact to within 1/totalDelays².
func IterationBound(g *dfg.Graph, times []int) (num, den int, err error) {
	if len(times) != g.N() {
		return 0, 0, fmt.Errorf("unfold: %d times for %d nodes", len(times), g.N())
	}
	// Collect candidate ratios implicitly: test feasibility of ratio p/q
	// ("every cycle has time <= (p/q)·delays") via node potentials.
	// Feasible(p, q) iff the graph with edge weight q·t(u) − p·d(e) has no
	// positive cycle (longest-path feasibility via Bellman–Ford).
	feasible := func(p, q int) bool {
		n := g.N()
		dist := make([]int64, n)
		for iter := 0; iter < n; iter++ {
			changed := false
			for _, e := range g.Edges() {
				w := int64(q)*int64(times[e.From]) - int64(p)*int64(e.Delays)
				if dist[e.From]+w > dist[e.To] {
					dist[e.To] = dist[e.From] + w
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
		// One more relaxation detects a positive cycle.
		for _, e := range g.Edges() {
			w := int64(q)*int64(times[e.From]) - int64(p)*int64(e.Delays)
			if dist[e.From]+w > dist[e.To] {
				return false
			}
		}
		return true
	}

	totalDelay := 0
	totalTime := 0
	hasCycleEdge := false
	for _, e := range g.Edges() {
		totalDelay += e.Delays
		if e.Delays > 0 {
			hasCycleEdge = true
		}
	}
	for _, t := range times {
		totalTime += t
	}
	if !hasCycleEdge || totalDelay == 0 {
		return 0, 1, nil // acyclic: no iteration bound
	}
	q := totalDelay * totalDelay
	lo, hi := 0, totalTime*q
	for lo < hi {
		mid := (lo + hi) / 2
		if feasible(mid, q) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, q, nil
}
