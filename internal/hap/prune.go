package hap

import "hetsynth/internal/fu"

// PruneDominated removes dominated FU-type options from a problem's table:
// type j is dominated for node v when some other type is no slower AND no
// costlier (with a strict improvement in at least one dimension, ties
// keeping the lower index). A dominated option can never appear in any
// optimal solution — replacing it changes neither feasibility nor cost —
// so every solver is free to skip it.
//
// Because the Table format is rectangular, pruning is expressed by
// overwriting a dominated row entry with the dominating one: the option
// remains selectable but is identical to its dominator, which preserves
// solver correctness while collapsing the effective choice set. The
// returned count says how many (node, type) options were collapsed; the
// ablation benchmark measures the resulting DP speedup (fewer distinct
// branches) on wide tables.
func PruneDominated(t *fu.Table) (*fu.Table, int) {
	out := t.Clone()
	collapsed := 0
	for v := 0; v < t.N(); v++ {
		for j := 0; j < t.K(); j++ {
			bestT, bestC := out.Time[v][j], out.Cost[v][j]
			winner := j
			for i := 0; i < t.K(); i++ {
				if i == j {
					continue
				}
				ti, ci := out.Time[v][i], out.Cost[v][i]
				dominates := (ti <= bestT && ci <= bestC) && (ti < bestT || ci < bestC || i < winner)
				if dominates && (ti < bestT || ci < bestC) {
					bestT, bestC, winner = ti, ci, i
				}
			}
			if winner != j {
				out.Time[v][j] = bestT
				out.Cost[v][j] = bestC
				collapsed++
			}
		}
	}
	return out, collapsed
}
