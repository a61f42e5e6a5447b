package hap

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"hetsynth/internal/fu"
)

// ErrSearchTooLarge is returned by Exact when the branch-and-bound explores
// more states than its budget allows.
var ErrSearchTooLarge = errors.New("hap: exact search exceeded its state budget")

// ExactOptions tunes the exact solver.
type ExactOptions struct {
	// MaxStates bounds the number of branch-and-bound nodes explored;
	// zero means DefaultMaxStates.
	MaxStates int
	// Stats, when non-nil, is reset at the start of the run and observes it
	// live: incumbents are published as they are found, and when the search
	// stops early (cancellation, deadline, or state budget) the optimistic
	// bound of the unexplored frontier is recorded as a proven lower bound
	// on the optimum. This is what turns a cancelled Exact run into an
	// anytime result instead of a discarded one (see SolveAnytime).
	Stats *SearchStats
}

// SearchStats observes one branch-and-bound run (Exact or ExactParallel):
// the live incumbent — best feasible assignment found so far — and, once the
// run returns, a proven lower bound on the optimal cost. A completed search
// proves its incumbent optimal (bound == incumbent cost); an early-stopped
// one bounds the optimum by the cheapest optimistic cost of any subtree the
// search never entered, taken off the prune frontier instead of being
// thrown away. Safe for concurrent use; reused across runs (each run resets
// it).
type SearchStats struct {
	inc      incumbent
	lower    atomic.Int64 // proven lower bound on the optimal cost; inf until established
	explored atomic.Int64 // branch-and-bound states visited
}

// reset prepares the stats for a fresh run.
func (s *SearchStats) reset() {
	s.inc.cost.Store(int64(inf))
	s.inc.mu.Lock()
	s.inc.assign = nil
	s.inc.assignCost = 0
	s.inc.mu.Unlock()
	s.lower.Store(int64(inf))
	s.explored.Store(0)
}

// Incumbent returns a copy of the best feasible assignment the observed
// search has found so far, with its cost; ok is false when none has landed
// yet. Safe to call while the search is still running.
func (s *SearchStats) Incumbent() (Assignment, int64, bool) {
	a, c, ok := s.inc.snapshot()
	if !ok {
		return nil, 0, false
	}
	return a.Clone(), c, true
}

// LowerBound returns a proven lower bound on the optimal cost, valid once
// the observed search has returned: the optimum itself when the search
// completed, or min(incumbent cost, cheapest unexplored-subtree bound) when
// it stopped early. ok is false when no bound was established (infeasible
// instance, or a run that never started).
func (s *SearchStats) LowerBound() (int64, bool) {
	lb := s.lower.Load()
	return lb, lb < int64(inf)
}

// Explored reports how many branch-and-bound states the run visited.
// hetsynth:keep perfbench
func (s *SearchStats) Explored() int64 { return s.explored.Load() }

// DefaultMaxStates is the default exploration budget of Exact.
const DefaultMaxStates = 20_000_000

// ctxCheckMask sets how often the exponential searches poll their context:
// every (ctxCheckMask+1) explored states. Polling is one atomic load inside
// ctx.Err, so every ~4k states is far below measurement noise while keeping
// cancellation latency in the microsecond range.
const ctxCheckMask = 4096 - 1

// Exact computes the true optimum by branch-and-bound over type choices in
// topological order. It plays the role of the ILP formulation of Ito, Lucke
// and Parhi ([11] in the paper): exact, exponential in the worst case, and
// only practical on small graphs — which is precisely the gap the paper's
// heuristics fill.
//
// Pruning:
//   - cost bound: accumulated cost plus the sum of minimum costs of the
//     remaining nodes must stay below the incumbent;
//   - time bound: the longest path using assigned times for decided nodes
//     and fastest times for undecided ones must fit the deadline.
//
// The incumbent is seeded with Greedy (and AssignOnce when Greedy fails),
// so Exact never returns a worse solution than either.
func Exact(p Problem, opts ExactOptions) (Solution, error) {
	return ExactCtx(context.Background(), p, opts)
}

// ExactCtx is Exact with cooperative cancellation: the branch-and-bound
// polls ctx every few thousand explored states and unwinds with ctx's error
// as soon as it is cancelled or past its deadline.
func ExactCtx(ctx context.Context, p Problem, opts ExactOptions) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	budget := opts.MaxStates
	if budget <= 0 {
		budget = DefaultMaxStates
	}
	stats := opts.Stats
	if stats != nil {
		stats.reset()
	}

	order, err := p.Graph.TopoOrder()
	if err != nil {
		return Solution{}, err
	}
	t := p.Table
	n := p.Graph.N()

	// Fail fast on infeasible instances.
	if minLen, err := MinMakespan(p.Graph, t); err != nil {
		return Solution{}, err
	} else if minLen > p.Deadline {
		return Solution{}, ErrInfeasible
	}

	// Incumbent: best feasible solution seen so far.
	bestCost := int64(inf)
	var bestAssign Assignment
	for _, seed := range []func(Problem) (Solution, error){GreedyRatio, Greedy, AssignOnce} {
		if s, err := seed(p); err == nil && s.Cost < bestCost {
			bestCost, bestAssign = s.Cost, s.Assign.Clone()
		}
	}
	if stats != nil && bestAssign != nil {
		stats.inc.record(bestCost, bestAssign)
	}

	// minCostSuffix[i]: sum of per-node minimum costs of order[i:].
	minCostSuffix := make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		v := int(order[i])
		minCostSuffix[i] = minCostSuffix[i+1] + t.Cost[v][t.MinCostType(v)]
	}
	// Branch only on distinct (time, cost) options per node.
	cands := make([][]fu.TypeID, n)
	for v := 0; v < n; v++ {
		cands[v] = appendCandTypes(nil, t, v)
	}

	// times starts all-fastest; branch-and-bound overwrites decided nodes.
	times := Times(t, minTimeAssignment(t))
	assign := make(Assignment, n)
	states := 0
	var overBudget bool
	var cancelled bool

	// longest recomputes the optimistic longest path. O(V+E) per call keeps
	// the code simple; Exact is a small-graph oracle, not a production path.
	longest := func() int {
		//hetsynth:ignore retval LongestPath fails only on malformed weights;
		// times is sized by the validated table.
		l, _, _ := p.Graph.LongestPath(times)
		return l
	}

	// frontierLB tracks the cheapest optimistic bound over subtrees the
	// search abandoned on an early stop: every unexplored solution costs at
	// least frontierLB, so min(bestCost, frontierLB) is a proven lower
	// bound on the optimum even when the search did not finish.
	frontierLB := int64(inf)
	note := func(b int64) {
		if b < frontierLB {
			frontierLB = b
		}
	}

	var rec func(i int, cost int64)
	rec = func(i int, cost int64) {
		states++
		if states > budget {
			overBudget = true
			note(cost + minCostSuffix[i])
			return
		}
		if states&ctxCheckMask == 0 && ctx.Err() != nil {
			cancelled = true
			note(cost + minCostSuffix[i])
			return
		}
		if cost+minCostSuffix[i] >= bestCost {
			return
		}
		if longest() > p.Deadline {
			return
		}
		if i == n {
			bestCost = cost
			bestAssign = assign.Clone()
			if stats != nil {
				stats.inc.record(cost, bestAssign)
			}
			return
		}
		v := int(order[i])
		saved := times[v]
		for idx, k := range cands[v] {
			assign[v] = k
			times[v] = t.Time[v][k]
			rec(i+1, cost+t.Cost[v][k])
			if overBudget || cancelled {
				// The aborted child accounted for its own remainder; the
				// untried sibling subtrees are accounted for here, so the
				// whole open frontier ends up in frontierLB.
				for _, k2 := range cands[v][idx+1:] {
					note(cost + t.Cost[v][k2] + minCostSuffix[i+1])
				}
				break
			}
		}
		times[v] = saved
	}
	rec(0, 0)

	if stats != nil {
		stats.explored.Store(int64(states))
		switch {
		case cancelled || overBudget:
			lb := frontierLB
			if bestAssign != nil && bestCost < lb {
				lb = bestCost
			}
			stats.lower.Store(lb)
		case bestAssign != nil:
			// Search completed: the incumbent is the optimum.
			stats.lower.Store(bestCost)
		}
	}
	if cancelled {
		return Solution{}, ctx.Err()
	}
	if overBudget {
		return Solution{}, fmt.Errorf("%w (budget %d)", ErrSearchTooLarge, budget)
	}
	if bestAssign == nil {
		return Solution{}, ErrInfeasible
	}
	return Evaluate(p, bestAssign)
}

// BruteForce enumerates every one of the K^n assignments and returns the
// optimum. It exists purely as an independent oracle for tests and refuses
// instances with more than 3^16-ish search space.
// hetsynth:keep differential oracle shared by several packages' tests
func BruteForce(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n, K := p.Graph.N(), p.K()
	space := 1.0
	for i := 0; i < n; i++ {
		space *= float64(K)
		if space > 5e7 {
			return Solution{}, errors.New("hap: brute force space too large")
		}
	}
	assign := make(Assignment, n)
	bestCost := int64(inf)
	var best Assignment
	var rec func(v int, cost int64)
	rec = func(v int, cost int64) {
		if v == n {
			if cost < bestCost && feasibleQuick(p, assign) {
				bestCost = cost
				best = assign.Clone()
			}
			return
		}
		for k := 0; k < K; k++ {
			assign[v] = fu.TypeID(k)
			rec(v+1, cost+p.Table.Cost[v][k])
		}
	}
	rec(0, 0)
	if best == nil {
		return Solution{}, ErrInfeasible
	}
	return Evaluate(p, best)
}

func feasibleQuick(p Problem, a Assignment) bool {
	l, _, err := p.Graph.LongestPath(Times(p.Table, a))
	return err == nil && l <= p.Deadline
}
