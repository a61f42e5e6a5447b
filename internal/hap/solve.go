package hap

import (
	"context"
	"fmt"
)

// Algorithm selects a HAP solver.
type Algorithm int

const (
	// AlgoAuto picks the best solver for the graph shape: Path_Assign on
	// simple paths, Tree_Assign on out-forests, DFG_Assign_Repeat otherwise
	// (the paper's recommendation).
	AlgoAuto Algorithm = iota
	// AlgoPath is Algorithm Path_Assign (optimal, simple paths only).
	AlgoPath
	// AlgoTree is Algorithm Tree_Assign (optimal, out-forests only).
	AlgoTree
	// AlgoOnce is Algorithm DFG_Assign_Once.
	AlgoOnce
	// AlgoRepeat is Algorithm DFG_Assign_Repeat.
	AlgoRepeat
	// AlgoGreedy is the baseline greedy heuristic (speed-driven, after the
	// paper's reference [3]).
	AlgoGreedy
	// AlgoGreedyRatio is the cost-aware greedy variant (ablation baseline).
	AlgoGreedyRatio
	// AlgoExact is the branch-and-bound optimum (small graphs).
	AlgoExact
	// AlgoAnytime is the deadline-aware ladder (greedy → repeat → anneal →
	// exact) that returns the best feasible incumbent when the context
	// expires; see SolveAnytime for the full contract.
	AlgoAnytime
)

var algoNames = map[Algorithm]string{
	AlgoAuto:        "auto",
	AlgoPath:        "path",
	AlgoTree:        "tree",
	AlgoOnce:        "once",
	AlgoRepeat:      "repeat",
	AlgoGreedy:      "greedy",
	AlgoGreedyRatio: "greedy-ratio",
	AlgoExact:       "exact",
	AlgoAnytime:     "anytime",
}

// String returns the CLI name of the algorithm.
func (a Algorithm) String() string {
	if s, ok := algoNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves a CLI name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algoNames {
		if name == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("hap: unknown algorithm %q (want auto|path|tree|once|repeat|greedy|greedy-ratio|exact|anytime)", s)
}

// Solve runs the selected algorithm on the problem. Complexity follows the
// algorithm: path/tree are optimal polynomial DPs on their graph classes,
// once/repeat are the paper's polynomial heuristics, greedy variants are
// baseline heuristics, and exact is an exponential branch-and-bound.
func Solve(p Problem, algo Algorithm) (Solution, error) {
	return SolveCtx(context.Background(), p, algo)
}

// SolveCtx is Solve with cooperative cancellation. The polynomial solvers
// (path, tree, greedy) run to completion — they finish in microseconds to
// milliseconds — while the iterative and exponential ones (Repeat, Exact)
// poll the context periodically and unwind with its error when cancelled.
func SolveCtx(ctx context.Context, p Problem, algo Algorithm) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	switch algo {
	case AlgoAuto:
		switch {
		case p.Graph != nil && p.Graph.IsSimplePath():
			return PathAssign(p)
		case p.Graph != nil && (p.Graph.IsOutForest() || p.Graph.IsInForest()):
			return TreeAssign(p)
		default:
			return AssignRepeatCtx(ctx, p)
		}
	case AlgoPath:
		return PathAssign(p)
	case AlgoTree:
		return TreeAssign(p)
	case AlgoOnce:
		return AssignOnce(p)
	case AlgoRepeat:
		return AssignRepeatCtx(ctx, p)
	case AlgoGreedy:
		return Greedy(p)
	case AlgoGreedyRatio:
		return GreedyRatio(p)
	case AlgoExact:
		return ExactCtx(ctx, p, ExactOptions{})
	case AlgoAnytime:
		r, err := SolveAnytime(ctx, p, AnytimeOptions{})
		return r.Solution, err
	default:
		return Solution{}, fmt.Errorf("hap: unknown algorithm %v", algo)
	}
}
