package hap

import (
	"fmt"
	"sync"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// IncrementalSolver is a live tree DP that absorbs instance deltas — row
// edits, zero-delay edge insertions/removals, deadline retargets — and
// re-solves in O(dirty ancestor paths) instead of O(|V|) per edit. It is
// the exported face of the sparse treeSolver that DFG_Assign_Repeat already
// drives internally: every delta invalidates only the edited node's curve
// and its unique ancestor chain, and the next Solve recomputes exactly that
// dirty set before tracing the assignment.
//
// The solver answers at its target deadline by the same traceback rule the
// one-shot Tree_Assign uses, so Solve is bit-identical — assignment, cost
// and length — to a from-scratch TreeAssign of the mutated problem. The
// curves are computed out to a horizon of max(deadline, maximum makespan),
// so retargeting the deadline within the horizon is a pure O(|V|·K)
// traceback with no DP work at all.
//
// The solver owns a private clone of the problem's table (SetRow mutates
// it) and keeps only a structural view of the graph (parent/children over
// zero-delay edges); the caller's graph is never written. Methods are safe
// for concurrent use. Close releases the pooled curve arenas; every other
// method errors after Close.
type IncrementalSolver struct {
	mu         sync.Mutex
	s          *treeSolver // guarded by mu; nil after Close
	target     int         // guarded by mu; the deadline Solve answers at
	horizon    int         // guarded by mu; curves are truncated here (>= target)
	recomputed int         // guarded by mu; dirty nodes recomputed by the last Solve
}

// errIncClosed reports use of a solver after Close.
var errIncClosed = fmt.Errorf("hap: IncrementalSolver used after Close")

// NewIncrementalSolver validates p, runs the sparse tree DP once out to
// max(p.Deadline, maximum makespan) — O(|V|·K·B) for B curve breakpoints,
// like TreeAssign — and keeps the solver live for incremental deltas.
// Out-forests run in graph orientation, in-forests on the reversed edges
// (path lengths and type choices carry over unchanged); any other shape is
// ErrShape. Infeasible instances still build: Solve reports ErrInfeasible
// until a delta makes the target deadline reachable.
func NewIncrementalSolver(p Problem) (*IncrementalSolver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Solve the curves out to the maximum makespan, beyond which every
	// assignment is feasible, so deadline retargets never need a DP re-run.
	wide := p
	wide.Table = p.Table.Clone()
	wide.Deadline = MakespanHorizon(p)
	s, err := newTreeSolver(wide)
	if err != nil {
		return nil, err
	}
	return &IncrementalSolver{s: s, target: p.Deadline, horizon: wide.Deadline}, nil
}

// SetRow replaces node v's (time, cost) row and invalidates the curves on
// v's ancestor path — O(path length) marking, deferred recompute. Times
// must be >= 1 and costs >= 0, with exactly K entries each; a rejected row
// leaves the solver untouched.
func (is *IncrementalSolver) SetRow(v int, times []int, costs []int64) error {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.s == nil {
		return errIncClosed
	}
	t := is.s.p.Table
	if v < 0 || v >= t.N() {
		return fmt.Errorf("hap: SetRow node %d out of range [0,%d)", v, t.N())
	}
	if len(times) != t.K() || len(costs) != t.K() {
		return fmt.Errorf("hap: SetRow row has %d/%d entries, want %d", len(times), len(costs), t.K())
	}
	for k := 0; k < t.K(); k++ {
		if times[k] < 1 {
			return fmt.Errorf("hap: SetRow time %d for type %d (< 1)", times[k], k)
		}
		if costs[k] < 0 {
			return fmt.Errorf("hap: SetRow negative cost %d for type %d", costs[k], k)
		}
	}
	if err := t.Set(v, times, costs); err != nil {
		return err
	}
	is.s.cand[v] = appendCandTypes(make([]fu.TypeID, 0, t.K()), t, v)
	is.s.markDirty(dfg.NodeID(v))
	return nil
}

// AddEdge inserts an edge from u to v. A delayed edge (delays > 0) does not
// constrain the DAG portion, so it is structurally a no-op here (callers
// digest it separately). A zero-delay edge makes u the parent of v in the
// solver's orientation; it is rejected with ErrShape when v already has a
// parent (the graph would stop being a forest in this orientation — rebuild
// via NewIncrementalSolver if the other orientation still fits) and when it
// would close a cycle. An accepted edge dirties the new parent's ancestor
// path, O(path length).
func (is *IncrementalSolver) AddEdge(u, v dfg.NodeID, delays int) error {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.s == nil {
		return errIncClosed
	}
	n := len(is.s.parent)
	if int(u) < 0 || int(u) >= n || int(v) < 0 || int(v) >= n {
		return fmt.Errorf("hap: AddEdge (%d,%d) references unknown node", u, v)
	}
	if delays < 0 {
		return fmt.Errorf("hap: AddEdge (%d,%d) negative delays %d", u, v, delays)
	}
	if delays != 0 {
		return nil
	}
	if u == v {
		return fmt.Errorf("hap: zero-delay self-loop on node %d", u)
	}
	parent, child := u, v
	if is.s.reversed {
		parent, child = v, u
	}
	if is.s.parent[child] >= 0 {
		return fmt.Errorf("%w: node %d already has a zero-delay parent in this orientation", ErrShape, child)
	}
	for w := int32(parent); w >= 0; w = is.s.parent[w] {
		if w == int32(child) {
			return fmt.Errorf("%w: edge (%d,%d) would close a zero-delay cycle", ErrShape, u, v)
		}
	}
	// Appending past a shared-arena row's pinned capacity reallocates just
	// that row, exactly like the construction-time comment documents.
	is.s.children[parent] = append(is.s.children[parent], child)
	is.s.parent[child] = int32(parent)
	is.s.rebuildRootsAndOrder()
	is.s.markDirty(parent)
	return nil
}

// RemoveEdge deletes the structural effect of an edge from u to v. Delayed
// edges are a structural no-op (like AddEdge). Removing a zero-delay edge
// detaches v into a new root and dirties u's ancestor path, O(path length);
// a pair that is not a current zero-delay parent/child link is an error and
// leaves the solver untouched.
func (is *IncrementalSolver) RemoveEdge(u, v dfg.NodeID, delays int) error {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.s == nil {
		return errIncClosed
	}
	n := len(is.s.parent)
	if int(u) < 0 || int(u) >= n || int(v) < 0 || int(v) >= n {
		return fmt.Errorf("hap: RemoveEdge (%d,%d) references unknown node", u, v)
	}
	if delays != 0 {
		return nil
	}
	parent, child := u, v
	if is.s.reversed {
		parent, child = v, u
	}
	if is.s.parent[child] != int32(parent) {
		return fmt.Errorf("hap: RemoveEdge (%d,%d): no such zero-delay edge", u, v)
	}
	kids := is.s.children[parent]
	for i, c := range kids {
		if c == child {
			is.s.children[parent] = append(kids[:i:i], kids[i+1:]...)
			break
		}
	}
	is.s.parent[child] = -1
	is.s.rebuildRootsAndOrder()
	is.s.markDirty(parent)
	return nil
}

// rebuildRootsAndOrder recomputes the root set (ascending node id, matching
// construction) and a children-before-parents evaluation order after a
// structural delta. O(|V|); called only on edge insertions/removals.
func (s *treeSolver) rebuildRootsAndOrder() {
	n := len(s.parent)
	s.roots = s.roots[:0]
	for v := 0; v < n; v++ {
		if s.parent[v] < 0 {
			s.roots = append(s.roots, dfg.NodeID(v))
		}
	}
	// Parents-before-children via BFS from the roots, then reversed in
	// place: any children-first order yields identical curves, so only
	// validity matters here.
	order := s.order[:0]
	for _, r := range s.roots {
		order = append(order, r)
	}
	for i := 0; i < len(order); i++ {
		order = append(order, s.children[order[i]]...)
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	s.order = order
}

// SetDeadline retargets the deadline Solve answers at. Within the horizon
// this is free — the next Solve re-traces the existing curves, no DP work.
// A target past the horizon (possible only if construction could not reach
// the maximum makespan, or after edits grew it) widens the horizon and
// invalidates every curve, so the next Solve is a full O(|V|·K·B) DP.
func (is *IncrementalSolver) SetDeadline(L int) error {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.s == nil {
		return errIncClosed
	}
	if L < 1 {
		return fmt.Errorf("hap: non-positive deadline %d", L)
	}
	if L > is.horizon {
		is.horizon = L
		is.s.p.Deadline = L
		is.s.markAllDirty()
	}
	is.target = L
	return nil
}

// Solve recomputes the dirty curves — O(Σ dirty path lengths · K · B), the
// incremental bound — and extracts the optimal assignment at the target
// deadline by the same traceback rule Tree_Assign uses, so the result is
// bit-identical to a from-scratch TreeAssign of the mutated problem.
// ErrInfeasible reports that no assignment meets the target deadline.
func (is *IncrementalSolver) Solve() (Solution, error) {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.s == nil {
		return Solution{}, errIncClosed
	}
	is.recomputed = is.s.ndirty
	return is.s.solveAt(is.target)
}

// Recomputed reports how many node curves the last Solve recomputed: the
// dirty-set size, which the O(dirty path) contract bounds by the summed
// ancestor path lengths of the deltas since the previous Solve.
func (is *IncrementalSolver) Recomputed() int {
	is.mu.Lock()
	defer is.mu.Unlock()
	return is.recomputed
}

// Close recycles the solver's curve arenas and scratch into the package
// pools. Every later method call fails with an error (or returns nothing);
// Close itself is idempotent.
func (is *IncrementalSolver) Close() {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.s == nil {
		return
	}
	is.s.release()
	is.s = nil
}
