package hap

// TreeAssign solves HAP optimally when the DAG portion of the graph is an
// out-forest (every node has at most one parent). This is Algorithm
// Tree_Assign of the paper, generalized to forests: the paper's pseudo root
// node (zero time and cost for every type) that joins multiple roots is
// equivalent to summing the per-root optima, which is what we do directly.
//
// Dynamic program, children before parents:
//
//	X_v[j] = minimum cost of the subtree rooted at v such that the longest
//	         execution-time path from v to any leaf is at most j
//	       = min over types k with T_k(v) <= j of
//	         C_k(v) + sum over children c of X_c[j - T_k(v)]
//
// The per-child minima are independent because distinct root-to-leaf paths
// of a tree share only ancestors, which are accounted at v and above; this
// independence is exactly what fails on general DFGs and why HAP on DAGs is
// NP-complete while trees admit a pseudo-polynomial optimum.
//
// The engine stores each X_v sparsely, as the breakpoints of the
// non-increasing step function j ↦ X_v[j] (see curve.go), so per-node work
// is O((B_children + K·B_v) log) in the breakpoint counts B instead of the
// dense table's O(L·K), and memory is the total frontier size instead of
// O(|V|·L). Costs and assignments are identical to the dense formulation
// (treeAssignDense, in densedp_test.go, keeps it as the differential-test
// oracle). Forests with
// at least parallelMinDirty nodes are evaluated by a worker pool over
// independent sibling subtrees.
//
// TreeAssign returns ErrShape on non-forests and ErrInfeasible when even
// all-fastest types miss the deadline.
// In-forests (fan-in computation trees, the usual shape of filter DFGs) are
// handled by solving on the transpose in place (see newTreeSolver):
// reversing every edge preserves the length of every path and the per-node
// choices, so the optimum carries over unchanged.
func TreeAssign(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	s, err := newTreeSolver(p)
	if err != nil {
		return Solution{}, err
	}
	defer s.release()
	return s.solve()
}
