package hap

import (
	"context"
	"fmt"

	"hetsynth/internal/cptree"
	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// liftTable projects a table over DFG nodes onto the nodes of a critical-
// path tree: every copy of a node inherits the node's rows.
func liftTable(t *fu.Table, orig []dfg.NodeID) *fu.Table {
	lifted := fu.NewTable(len(orig), t.K())
	for w, v := range orig {
		lifted.MustSet(w, t.Time[v], t.Cost[v])
	}
	return lifted
}

// minTimeChoice picks, among the tree copies of DFG node v, the assigned
// type with the smallest execution time (ties: smaller cost, then smaller
// type index). Collapsing a duplicated node to its fastest copy can only
// shorten paths, so the collapsed assignment stays feasible — this is the
// selection rule shared by DFG_Assign_Once and DFG_Assign_Repeat.
func minTimeChoice(t *fu.Table, v dfg.NodeID, copies []dfg.NodeID, treeAssign Assignment) fu.TypeID {
	best := treeAssign[copies[0]]
	for _, w := range copies[1:] {
		k := treeAssign[w]
		switch {
		case t.Time[v][k] < t.Time[v][best]:
			best = k
		case t.Time[v][k] == t.Time[v][best] && t.Cost[v][k] < t.Cost[v][best]:
			best = k
		case t.Time[v][k] == t.Time[v][best] && t.Cost[v][k] == t.Cost[v][best] && k < best:
			best = k
		}
	}
	return best
}

// AssignOnce implements Algorithm DFG_Assign_Once (§5.3): expand the DFG
// (and its transpose) into critical-path trees, keep the smaller tree, solve
// it optimally with Tree_Assign, then collapse every duplicated node to the
// minimum-execution-time assignment among its copies.
//
// On trees the expansion is the identity, so AssignOnce returns the optimal
// solution; on general DFGs it is a heuristic whose result is always
// feasible when Tree_Assign succeeds.
func AssignOnce(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	tree, err := cptree.ExpandBoth(p.Graph)
	if err != nil {
		return Solution{}, err
	}
	tp := Problem{Graph: tree.Graph, Table: liftTable(p.Table, tree.Orig), Deadline: p.Deadline}
	tsol, err := TreeAssign(tp)
	if err != nil {
		return Solution{}, err
	}
	assign := make(Assignment, p.Graph.N())
	for v := range assign {
		assign[v] = minTimeChoice(p.Table, dfg.NodeID(v), tree.Copies[v], tsol.Assign)
	}
	sol, err := Evaluate(p, assign)
	if err != nil {
		return Solution{}, err
	}
	if sol.Length > p.Deadline {
		return Solution{}, fmt.Errorf("hap: internal error: DFG_Assign_Once produced length %d > %d", sol.Length, p.Deadline)
	}
	return sol, nil
}

// AssignRepeat implements Algorithm DFG_Assign_Repeat (§5.3): like
// AssignOnce, but after solving the tree it fixes duplicated nodes one at a
// time — most-copied first, since a node with more copies influences more
// critical paths — and re-runs Tree_Assign after each fixing so the
// remaining nodes can cash in the slack freed when all copies of the fixed
// node switch to its fastest chosen type.
//
// The re-runs are incremental: one treeSolver is kept across iterations,
// and pinning a node's copies invalidates only the DP curves on the copies'
// ancestor paths, so each iteration costs Σ affected-path work instead of a
// full |V_tree| solve. The iteration-by-iteration solutions are identical
// to re-solving from scratch.
//
// The paper recommends this algorithm: it matches Tree_Assign exactly on
// trees and dominates DFG_Assign_Once when many nodes are duplicated.
func AssignRepeat(p Problem) (Solution, error) {
	return AssignRepeatCtx(context.Background(), p)
}

// AssignRepeatCtx is AssignRepeat with cooperative cancellation: the context
// is polled before the expansion and between fixing iterations (each of
// which is an incremental re-solve, the unit of work worth interrupting), so
// a cancelled sweep stops after at most one iteration's worth of DP.
func AssignRepeatCtx(ctx context.Context, p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	tree, err := cptree.ExpandBoth(p.Graph)
	if err != nil {
		return Solution{}, err
	}
	tp := Problem{Graph: tree.Graph, Table: liftTable(p.Table, tree.Orig), Deadline: p.Deadline}
	// The critical-path tree is always an out-forest, so the solver runs it
	// in graph orientation.
	solver, err := newTreeSolver(tp)
	if err != nil {
		return Solution{}, err
	}
	defer solver.release()
	tsol, err := solver.solve()
	if err != nil {
		return Solution{}, err
	}

	dup := tree.Duplicated()
	assign := make(Assignment, p.Graph.N())
	fixed := make([]bool, p.Graph.N())

	for _, v := range dup {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		k := minTimeChoice(p.Table, v, tree.Copies[v], tsol.Assign)
		assign[v] = k
		fixed[v] = true
		solver.pin(tree.Copies[v], k)
		tsol, err = solver.solve()
		if err != nil {
			// Pinning to the fastest copy keeps every path no longer than
			// before, so the masked instance stays feasible; any failure
			// here is a bug, not an input condition.
			return Solution{}, fmt.Errorf("hap: internal error: re-run after fixing %s failed: %w", p.Graph.Node(v).Name, err)
		}
	}

	for v := range assign {
		if !fixed[v] {
			assign[v] = tsol.Assign[tree.Copies[v][0]]
		}
	}
	sol, err := Evaluate(p, assign)
	if err != nil {
		return Solution{}, err
	}
	if sol.Length > p.Deadline {
		return Solution{}, fmt.Errorf("hap: internal error: DFG_Assign_Repeat produced length %d > %d", sol.Length, p.Deadline)
	}
	return sol, nil
}
