package hap

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

func TestPruneDominatedCollapsesStrictlyWorseOptions(t *testing.T) {
	tab := fu.NewTable(1, 3)
	// Type 1 is both slower and costlier than type 0: dominated.
	// Type 2 is slower but cheaper: kept.
	tab.MustSet(0, []int{2, 3, 5}, []int64{5, 7, 2})
	out, collapsed := PruneDominated(tab)
	if collapsed != 1 {
		t.Fatalf("collapsed = %d, want 1", collapsed)
	}
	if out.Time[0][1] != 2 || out.Cost[0][1] != 5 {
		t.Fatalf("dominated option not overwritten: %v %v", out.Time[0], out.Cost[0])
	}
	if out.Time[0][2] != 5 || out.Cost[0][2] != 2 {
		t.Fatalf("pareto option clobbered: %v %v", out.Time[0], out.Cost[0])
	}
	if opts := appendCandTypes(nil, out, 0); len(opts) != 2 {
		t.Fatalf("effective options = %v, want 2", opts)
	}
}

func TestPruneDominatedNoOpOnParetoTables(t *testing.T) {
	// RandomTable rows are strictly monotone in both dimensions: nothing
	// dominates anything.
	rng := rand.New(rand.NewSource(4))
	tab := fu.RandomTable(rng, 10, 3)
	_, collapsed := PruneDominated(tab)
	if collapsed != 0 {
		t.Fatalf("collapsed %d options of a pareto table", collapsed)
	}
}

// TestPruneDominatedPreservesOptimalCost is the correctness property: the
// optimum of the pruned problem equals the optimum of the original, for
// tables that deliberately contain dominated options.
func TestPruneDominatedPreservesOptimalCost(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		g := dfg.RandomDAG(rng, n, 0.35)
		// Fully random rows: dominated options are common.
		tab := fu.NewTable(n, 3)
		for v := 0; v < n; v++ {
			times := make([]int, 3)
			costs := make([]int64, 3)
			for k := 0; k < 3; k++ {
				times[k] = 1 + rng.Intn(6)
				costs[k] = int64(1 + rng.Intn(12))
			}
			tab.MustSet(v, times, costs)
		}
		min, err := MinMakespan(g, tab)
		if err != nil {
			return false
		}
		p := Problem{Graph: g, Table: tab, Deadline: min + rng.Intn(5)}
		pruned, _ := PruneDominated(tab)
		p2 := Problem{Graph: g, Table: pruned, Deadline: p.Deadline}
		a, err1 := BruteForce(p)
		b, err2 := BruteForce(p2)
		if errors.Is(err1, ErrInfeasible) || errors.Is(err2, ErrInfeasible) {
			return errors.Is(err1, ErrInfeasible) && errors.Is(err2, ErrInfeasible)
		}
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Cost == b.Cost
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveOptionsCountsDistinctPairs(t *testing.T) {
	tab := fu.NewTable(2, 3)
	tab.MustSet(0, []int{1, 1, 2}, []int64{5, 5, 3})
	tab.MustSet(1, []int{1, 2, 3}, []int64{9, 5, 1})
	// The candidate types the solvers branch on are the effective options:
	// one per distinct (time, cost) pair.
	opts := []int{len(appendCandTypes(nil, tab, 0)), len(appendCandTypes(nil, tab, 1))}
	if opts[0] != 2 || opts[1] != 3 {
		t.Fatalf("opts = %v, want [2 3]", opts)
	}
}
