package hap

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// motivational reproduces the Figure 1–3 flow: a small DFG, three FU types
// P1 (fast, costly) to P3 (slow, cheap), and a deadline that forces a real
// tradeoff. The exact node values of the paper's figure are unreadable in
// the source text; the structure (5 nodes, two-level fan-in) and the
// phenomenon (the optimal assignment beats the naive one by a double-digit
// percentage) are what we reproduce.
func motivational() Problem {
	g := dfg.New()
	a := g.MustAddNode("A", "mul")
	b := g.MustAddNode("B", "mul")
	c := g.MustAddNode("C", "add")
	d := g.MustAddNode("D", "mul")
	e := g.MustAddNode("E", "add")
	g.MustAddEdge(a, c, 0)
	g.MustAddEdge(b, c, 0)
	g.MustAddEdge(c, e, 0)
	g.MustAddEdge(d, e, 0)
	t := fu.NewTable(5, 3)
	t.MustSet(0, []int{1, 2, 4}, []int64{10, 6, 2})
	t.MustSet(1, []int{2, 3, 6}, []int64{9, 6, 1})
	t.MustSet(2, []int{1, 2, 3}, []int64{8, 4, 2})
	t.MustSet(3, []int{2, 4, 7}, []int64{9, 5, 2})
	t.MustSet(4, []int{1, 3, 5}, []int64{7, 4, 1})
	return Problem{Graph: g, Table: t, Deadline: 6}
}

func TestMotivationalExampleOptimalBeatsGreedy(t *testing.T) {
	p := motivational()
	greedy, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AssignRepeat(p)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Length > p.Deadline || opt.Length > p.Deadline || rep.Length > p.Deadline {
		t.Fatal("some solution misses the deadline")
	}
	if opt.Cost > greedy.Cost {
		t.Fatalf("optimum %d worse than greedy %d", opt.Cost, greedy.Cost)
	}
	if rep.Cost > greedy.Cost {
		t.Fatalf("DFG_Assign_Repeat %d worse than greedy %d", rep.Cost, greedy.Cost)
	}
	t.Logf("greedy=%d repeat=%d optimal=%d (%.0f%% reduction)",
		greedy.Cost, rep.Cost, opt.Cost, 100*float64(greedy.Cost-opt.Cost)/float64(greedy.Cost))
}

func TestAssignOnceAndRepeatAreOptimalOnTrees(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 9, true)
		opt, errT := TreeAssign(p)
		once, errO := AssignOnce(p)
		rep, errR := AssignRepeat(p)
		if errors.Is(errT, ErrInfeasible) {
			return errors.Is(errO, ErrInfeasible) && errors.Is(errR, ErrInfeasible)
		}
		if errT != nil || errO != nil || errR != nil {
			return false
		}
		return once.Cost == opt.Cost && rep.Cost == opt.Cost
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHeuristicsFeasibleAndBoundedByOptimum(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 9, false)
		opt, errX := BruteForce(p)
		for _, algo := range []Algorithm{AlgoOnce, AlgoRepeat, AlgoGreedy} {
			s, err := Solve(p, algo)
			if errors.Is(errX, ErrInfeasible) {
				if !errors.Is(err, ErrInfeasible) {
					return false
				}
				continue
			}
			if err != nil {
				// Heuristics may legitimately fail only on infeasible
				// instances; feasible ones must succeed.
				return false
			}
			if s.Length > p.Deadline || s.Cost < opt.Cost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatNeverWorseThanOnceOnRandomDFGs(t *testing.T) {
	// The paper observes Repeat >= Once in solution quality ("gives better
	// results when the number of duplicated nodes is big"). The guarantee
	// is empirical, not a theorem, so we assert the aggregate: over many
	// random DFGs, Repeat must win or tie on average.
	rng := rand.New(rand.NewSource(7))
	var onceTotal, repTotal int64
	trials := 0
	for trials < 150 {
		p := randomProblem(rng, 12, false)
		once, err1 := AssignOnce(p)
		rep, err2 := AssignRepeat(p)
		if err1 != nil || err2 != nil {
			continue
		}
		onceTotal += once.Cost
		repTotal += rep.Cost
		trials++
	}
	if repTotal > onceTotal {
		t.Fatalf("Repeat total %d worse than Once total %d over %d DFGs", repTotal, onceTotal, trials)
	}
	t.Logf("aggregate cost: once=%d repeat=%d over %d instances", onceTotal, repTotal, trials)
}

func TestGreedyStopsAtMinCostWhenLoose(t *testing.T) {
	p := pathProblem()
	p.Deadline = 100
	s, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 2+1+2 {
		t.Fatalf("greedy with loose deadline: cost %d, want unconstrained optimum 5", s.Cost)
	}
}

func TestGreedyInfeasible(t *testing.T) {
	p := pathProblem()
	p.Deadline = 3 // below the 4-step minimum makespan
	if _, err := Greedy(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 8, false)
		a, err1 := Exact(p, ExactOptions{})
		b, err2 := BruteForce(p)
		if errors.Is(err2, ErrInfeasible) {
			return errors.Is(err1, ErrInfeasible)
		}
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Cost == b.Cost && a.Length <= p.Deadline
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := dfg.RandomDAG(rng, 30, 0.15)
	tab := fu.RandomTable(rng, 30, 3)
	min, _ := MinMakespan(g, tab)
	p := Problem{Graph: g, Table: tab, Deadline: min * 2}
	if _, err := Exact(p, ExactOptions{MaxStates: 50}); !errors.Is(err, ErrSearchTooLarge) {
		t.Fatalf("want ErrSearchTooLarge, got %v", err)
	}
}

func TestSolveAutoDispatch(t *testing.T) {
	pp := pathProblem()
	sp, err := Solve(pp, AlgoAuto)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := PathAssign(pp)
	if sp.Cost != direct.Cost {
		t.Fatalf("auto on path: %d != %d", sp.Cost, direct.Cost)
	}
	tp := treeProblem()
	st, err := Solve(tp, AlgoAuto)
	if err != nil {
		t.Fatal(err)
	}
	dt, _ := TreeAssign(tp)
	if st.Cost != dt.Cost {
		t.Fatalf("auto on tree: %d != %d", st.Cost, dt.Cost)
	}
	mp := motivational()
	sm, err := Solve(mp, AlgoAuto)
	if err != nil {
		t.Fatal(err)
	}
	dm, _ := AssignRepeat(mp)
	if sm.Cost != dm.Cost {
		t.Fatalf("auto on DFG: %d != %d", sm.Cost, dm.Cost)
	}
	if _, err := Solve(mp, Algorithm(99)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, name := range []string{"auto", "path", "tree", "once", "repeat", "greedy", "exact"} {
		a, err := ParseAlgorithm(name)
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", name, err)
		}
		if a.String() != name {
			t.Errorf("round-trip %q -> %q", name, a.String())
		}
	}
	if _, err := ParseAlgorithm("magic"); err == nil {
		t.Error("unknown name accepted")
	}
	if s := Algorithm(42).String(); s != "Algorithm(42)" {
		t.Errorf("String fallback = %q", s)
	}
}
