package hap

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// forceProcs pins GOMAXPROCS for one test so the parallel solver paths run
// even on single-CPU CI containers (where GOMAXPROCS(0) == 1 would make
// ExactParallelCtx and the tree worker pool silently fall back to serial).
func forceProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// knapsackChain builds a chain whose per-node time/cost tradeoffs are
// inversely related with node-dependent prices, and a mid-range deadline.
// Branch-and-bound on it cannot prune early — the state space is the classic
// exponential knapsack frontier — which makes it the workhorse for the
// cancellation and budget-exhaustion paths that need a search too big to
// finish.
func knapsackChain(n int) Problem {
	g := dfg.Chain(n)
	t := fu.NewTable(n, 3)
	for v := 0; v < n; v++ {
		t.MustSet(v, []int{3, 2, 1}, []int64{1, 3 + int64(v%3), 7 + int64(v%5)})
	}
	return Problem{Graph: g, Table: t, Deadline: 2 * n}
}

func TestSearchStatsZeroValue(t *testing.T) {
	var s SearchStats
	if _, _, ok := s.Incumbent(); ok {
		t.Error("zero-value stats report an incumbent")
	}
	s.reset()
	if _, _, ok := s.Incumbent(); ok {
		t.Error("reset stats report an incumbent")
	}
	if _, ok := s.LowerBound(); ok {
		t.Error("reset stats report a lower bound")
	}
	if s.Explored() != 0 {
		t.Errorf("reset stats explored %d states", s.Explored())
	}
}

func TestExactCtxEdgeCases(t *testing.T) {
	if _, err := ExactCtx(context.Background(), Problem{}, ExactOptions{}); err == nil {
		t.Error("invalid problem accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExactCtx(ctx, pathProblem(), ExactOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("dead context: err %v, want Canceled", err)
	}
	tight := pathProblem()
	tight.Deadline = 3 // min makespan is 4
	if _, err := ExactCtx(context.Background(), tight, ExactOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("sub-makespan deadline: err %v, want ErrInfeasible", err)
	}
}

func TestExactCtxCancelMidSearch(t *testing.T) {
	p := knapsackChain(22)
	// The entry poll passes; the next poll — 4096 states into the search —
	// cancels, so the run must unwind with the context error while the stats
	// keep the seeded incumbent and a frontier lower bound.
	ctx := &countdownCtx{Context: context.Background(), after: 1}
	var stats SearchStats
	_, err := ExactCtx(ctx, p, ExactOptions{Stats: &stats})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled", err)
	}
	a, cost, ok := stats.Incumbent()
	if !ok {
		t.Fatal("cancelled run lost its seeded incumbent")
	}
	s, verr := Evaluate(p, a)
	if verr != nil || s.Length > p.Deadline || s.Cost != cost {
		t.Fatalf("incumbent invalid: %v, length %d, cost %d vs %d", verr, s.Length, s.Cost, cost)
	}
	lb, ok := stats.LowerBound()
	if !ok || lb > cost {
		t.Fatalf("lower bound (%d, %v) inconsistent with incumbent cost %d", lb, ok, cost)
	}
	if stats.Explored() < 4096 {
		t.Fatalf("explored %d states; the cancellation poll never fired", stats.Explored())
	}
}

// TestExactParallelDifferential drives the worker fan-out against the serial
// solver on random instances: same optimum, and a completed parallel search
// must prove it (lower bound == cost, incumbent published, states counted).
func TestExactParallelDifferential(t *testing.T) {
	forceProcs(t, 4)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		p := randomProblem(rng, 9, false)
		var stats SearchStats
		got, err := ExactParallelCtx(context.Background(), p, ExactOptions{Stats: &stats})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		want, err := Exact(p, ExactOptions{})
		if err != nil {
			t.Fatalf("instance %d: serial reference: %v", i, err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("instance %d: parallel cost %d, serial %d", i, got.Cost, want.Cost)
		}
		lb, ok := stats.LowerBound()
		if !ok || lb != got.Cost {
			t.Fatalf("instance %d: completed search bound (%d, %v), want proof of %d", i, lb, ok, got.Cost)
		}
		if _, c, ok := stats.Incumbent(); !ok || c != got.Cost {
			t.Fatalf("instance %d: incumbent (%d, %v), want %d", i, c, ok, got.Cost)
		}
		if stats.Explored() == 0 {
			t.Fatalf("instance %d: no states counted", i)
		}
	}
}

func TestExactParallelBudgetExhausted(t *testing.T) {
	forceProcs(t, 4)
	p := knapsackChain(12)
	var stats SearchStats
	_, err := ExactParallelCtx(context.Background(), p, ExactOptions{MaxStates: 4, Stats: &stats})
	if !errors.Is(err, ErrSearchTooLarge) {
		t.Fatalf("err %v, want ErrSearchTooLarge", err)
	}
	opt, oerr := Exact(p, ExactOptions{})
	if oerr != nil {
		t.Fatal(oerr)
	}
	lb, ok := stats.LowerBound()
	if !ok || lb > opt.Cost {
		t.Fatalf("early-stop bound (%d, %v) exceeds the true optimum %d", lb, ok, opt.Cost)
	}
}

func TestExactParallelCancelled(t *testing.T) {
	forceProcs(t, 4)
	p := knapsackChain(20)
	ctx := &countdownCtx{Context: context.Background(), after: 1}
	var stats SearchStats
	_, err := ExactParallelCtx(ctx, p, ExactOptions{Stats: &stats})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled", err)
	}
	a, cost, ok := stats.Incumbent()
	if !ok {
		t.Fatal("cancelled run lost its seeded incumbent")
	}
	if s, verr := Evaluate(p, a); verr != nil || s.Length > p.Deadline || s.Cost != cost {
		t.Fatalf("incumbent invalid: %v", verr)
	}
	if lb, ok := stats.LowerBound(); !ok || lb > cost {
		t.Fatalf("lower bound (%d, %v) inconsistent with incumbent cost %d", lb, ok, cost)
	}
}

func TestExactParallelEdgeCases(t *testing.T) {
	forceProcs(t, 4)
	if _, err := ExactParallelCtx(context.Background(), Problem{}, ExactOptions{}); err == nil {
		t.Error("invalid problem accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExactParallelCtx(ctx, treeProblem(), ExactOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("dead context: err %v, want Canceled", err)
	}
	tight := treeProblem()
	tight.Deadline = 2 // min makespan is 3 (depth-3 tree, all-fastest time 1)
	if _, err := ExactParallelCtx(context.Background(), tight, ExactOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("sub-makespan deadline: err %v, want ErrInfeasible", err)
	}
	got, err := ExactParallelCtx(context.Background(), treeProblem(), ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := TreeAssign(treeProblem())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Errorf("parallel optimum %d, tree DP %d", got.Cost, want.Cost)
	}
}

func TestBruteForceEdgeCases(t *testing.T) {
	if _, err := BruteForce(Problem{}); err == nil {
		t.Error("invalid problem accepted")
	}
	if _, err := BruteForce(knapsackChain(18)); err == nil {
		t.Error("3^18 search space accepted; the size guard is gone")
	}
	tight := pathProblem()
	tight.Deadline = 3
	if _, err := BruteForce(tight); !errors.Is(err, ErrInfeasible) {
		t.Errorf("sub-makespan deadline: err %v, want ErrInfeasible", err)
	}
}

func TestAnnealCancelKeepsIncumbent(t *testing.T) {
	// The first move-loop poll (i == 0) sees a cancelled context; the greedy
	// warm start is already a feasible incumbent, so the partial result comes
	// back alongside the context error.
	ctx := &countdownCtx{Context: context.Background(), after: 0}
	sol, err := AnnealCtx(ctx, pathProblem(), AnnealOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled", err)
	}
	if sol.Assign == nil || !feasibleQuick(pathProblem(), sol.Assign) {
		t.Fatalf("cancelled anneal lost its feasible incumbent: %+v", sol)
	}
}

func TestAnnealCancelWithoutIncumbent(t *testing.T) {
	// An infeasible instance never produces an incumbent, so cancellation
	// returns the bare context error.
	p := pathProblem()
	p.Deadline = 3
	ctx := &countdownCtx{Context: context.Background(), after: 0}
	sol, err := AnnealCtx(ctx, p, AnnealOptions{})
	if !errors.Is(err, context.Canceled) || sol.Assign != nil {
		t.Fatalf("got (%+v, %v), want empty solution with Canceled", sol, err)
	}
}

func TestAnnealReheatAndInfeasible(t *testing.T) {
	// ReheatAfter: 1 resets the temperature on virtually every move; the walk
	// must still land on a feasible solution.
	sol, err := Anneal(diamondProblem(), AnnealOptions{Moves: 500, ReheatAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !feasibleQuick(diamondProblem(), sol.Assign) {
		t.Fatalf("reheated anneal returned an infeasible assignment: %+v", sol)
	}
	p := pathProblem()
	p.Deadline = 3
	if _, err := Anneal(p, AnnealOptions{Moves: 300}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible instance: err %v, want ErrInfeasible", err)
	}
	if _, err := Anneal(Problem{}, AnnealOptions{}); err == nil {
		t.Error("invalid problem accepted")
	}
}

// TestSolveCtxDispatch runs every algorithm through the façade on the path
// and tree worked examples: all must be feasible, and the optimal ones must
// match brute force.
func TestSolveCtxDispatch(t *testing.T) {
	optimal := map[Algorithm]bool{
		AlgoAuto: true, AlgoPath: true, AlgoTree: true,
		AlgoExact: true, AlgoAnytime: true,
	}
	p := pathProblem()
	want, err := BruteForce(p)
	if err != nil {
		t.Fatal(err)
	}
	for algo := range algoNames {
		if algo == AlgoTree {
			continue // a chain is an out-tree too, but keep shapes separate below
		}
		sol, err := Solve(p, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !feasibleQuick(p, sol.Assign) {
			t.Fatalf("%v: infeasible result %+v", algo, sol)
		}
		if sol.Cost < want.Cost || (optimal[algo] && sol.Cost != want.Cost) {
			t.Fatalf("%v: cost %d vs optimum %d", algo, sol.Cost, want.Cost)
		}
	}

	tp := treeProblem()
	twant, err := BruteForce(tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoAuto, AlgoTree, AlgoAnytime} {
		sol, err := Solve(tp, algo)
		if err != nil {
			t.Fatalf("%v on tree: %v", algo, err)
		}
		if sol.Cost != twant.Cost {
			t.Fatalf("%v on tree: cost %d, optimum %d", algo, sol.Cost, twant.Cost)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveCtx(ctx, p, AlgoGreedy); !errors.Is(err, context.Canceled) {
		t.Errorf("dead context: err %v, want Canceled", err)
	}
	if _, err := Solve(p, Algorithm(99)); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if got := Algorithm(99).String(); got != "Algorithm(99)" {
		t.Errorf("String() = %q", got)
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm name parsed")
	}
	for algo, name := range algoNames {
		back, err := ParseAlgorithm(name)
		if err != nil || back != algo {
			t.Errorf("ParseAlgorithm(%q) = (%v, %v), want %v", name, back, err, algo)
		}
	}
}

func TestFeasible(t *testing.T) {
	// feasibleQuick is the deadline check the brute-force oracle and these
	// tests share.
	p := pathProblem()
	fast := minTimeAssignment(p.Table)
	if !feasibleQuick(p, fast) {
		t.Error("all-fastest assignment reported infeasible")
	}
	slow := minCostAssignment(p.Table)
	if feasibleQuick(p, slow) {
		t.Error("all-cheapest assignment (length 13 > 10) reported feasible")
	}
	if feasibleQuick(p, Assignment{0}) {
		t.Error("short assignment reported feasible")
	}
}

func TestProblemValidateCyclicGraph(t *testing.T) {
	g := dfg.New()
	a := g.MustAddNode("a", "")
	b := g.MustAddNode("b", "")
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, a, 0)
	p := Problem{Graph: g, Table: fu.NewTable(2, 2), Deadline: 5}
	if err := p.Validate(); err == nil {
		t.Error("zero-delay cycle validated")
	}
}

func TestDistinctOptionsDuplicates(t *testing.T) {
	tab := fu.NewTable(1, 4)
	tab.MustSet(0, []int{2, 3, 2, 3}, []int64{5, 1, 5, 9})
	got := appendCandTypes(nil, tab, 0)
	// Type 2 duplicates type 0's (2,5); types 1 and 3 differ in cost.
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("distinct options %v, want [0 1 3]", got)
	}
}

// TestGreedyRatioUpgradeChoices drives the ratio comparator through the
// reachable paid-vs-paid comparisons: cross-multiplied ratios across nodes
// with distinct time-gain/cost-increase tradeoffs, including the tie broken
// on raw time gain. (The free-upgrade arms of the comparator are defensive:
// the loop starts every node on its cheapest-then-fastest type and only ever
// moves to non-dominated faster types, so a candidate that is faster without
// costing more never arises.)
func TestGreedyRatioUpgradeChoices(t *testing.T) {
	g := dfg.Chain(3)
	tab := fu.NewTable(3, 4)
	tab.MustSet(0, []int{4, 2, 4, 4}, []int64{1, 3, 5, 9}) // one upgrade, ratio 1
	tab.MustSet(1, []int{5, 3, 2, 1}, []int64{1, 1, 1, 3}) // cheap-tie start, one paid upgrade
	tab.MustSet(2, []int{6, 5, 3, 6}, []int64{2, 5, 5, 9}) // two upgrades with distinct ratios
	p := Problem{Graph: g, Table: tab, Deadline: 7}

	sol, err := GreedyRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasibleQuick(p, sol.Assign) {
		t.Fatalf("infeasible result %+v", sol)
	}
	opt, err := BruteForce(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost < opt.Cost {
		t.Fatalf("heuristic cost %d beats the optimum %d", sol.Cost, opt.Cost)
	}
}

func TestFrontierSolverHorizonAndShape(t *testing.T) {
	p := treeProblem()
	f, err := NewFrontierSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Horizon() != p.Deadline {
		t.Errorf("horizon %d, want %d", f.Horizon(), p.Deadline)
	}
	if _, err := NewFrontierSolver(diamondProblem()); !errors.Is(err, ErrShape) {
		t.Errorf("diamond accepted: err %v, want ErrShape", err)
	}
	if _, err := NewFrontierSolver(Problem{}); err == nil {
		t.Error("invalid problem accepted")
	}
}

// TestTreeParallelRecompute forces the worker-pool curve evaluation (trees
// at or above parallelMinDirty dirty nodes) and checks it against the serial
// path on the same instance.
func TestTreeParallelRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := parallelMinDirty + 100
	g := dfg.RandomTree(rng, n)
	tab := fu.RandomTable(rng, n, 3)
	min, err := MinMakespan(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Graph: g, Table: tab, Deadline: min + 25}

	serial, err := TreeAssign(p) // GOMAXPROCS is 1 on CI: serial reference
	if err != nil {
		t.Fatal(err)
	}
	forceProcs(t, 4)
	par, err := TreeAssign(p)
	if err != nil {
		t.Fatal(err)
	}
	if par.Cost != serial.Cost {
		t.Fatalf("parallel cost %d, serial %d", par.Cost, serial.Cost)
	}
	if !feasibleQuick(p, par.Assign) {
		t.Fatal("parallel solve returned an infeasible assignment")
	}
}

func TestSolveAnytimeMoreEdges(t *testing.T) {
	if _, err := SolveAnytime(context.Background(), Problem{}, AnytimeOptions{}); err == nil {
		t.Error("invalid problem accepted")
	}

	// Shape fast paths propagate infeasibility from the DP.
	tightPath := pathProblem()
	tightPath.Deadline = 3
	if _, err := SolveAnytime(context.Background(), tightPath, AnytimeOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible path: err %v, want ErrInfeasible", err)
	}
	tightTree := treeProblem()
	tightTree.Deadline = 2
	if _, err := SolveAnytime(context.Background(), tightTree, AnytimeOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible tree: err %v, want ErrInfeasible", err)
	}

	// An all-zero-cost table drives the gap denominator to its floor of 1;
	// the result must still carry a zero gap, not NaN or a division artifact.
	free := diamondProblem()
	tab := fu.NewTable(4, 2)
	for v := 0; v < 4; v++ {
		tab.MustSet(v, []int{1, 2}, []int64{0, 0})
	}
	free.Table = tab
	res, err := SolveAnytime(context.Background(), free, AnytimeOptions{SkipExact: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality != QualityHeuristic || res.Gap != 0 || res.Cost != 0 || res.LowerBound != 0 {
		t.Fatalf("zero-cost instance: %+v", res)
	}
}

// TestSolveAnytimeCancelSweep cancels the sequential ladder after every poll
// count from 1 to 12, so each exit point between rungs (and inside the anneal
// and exact stages) is crossed at least once. Whatever the cut, the result
// must be a feasible incumbent with a consistent bound — or a bare context
// error when the ladder was cancelled before any rung produced one.
func TestSolveAnytimeCancelSweep(t *testing.T) {
	p := diamondProblem()
	opt, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for after := int64(1); after <= 12; after++ {
		ctx := &countdownCtx{Context: context.Background(), after: after}
		res, err := SolveAnytime(ctx, p, AnytimeOptions{Sequential: true})
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("after %d polls: err %v", after, err)
			}
			continue
		}
		if !feasibleQuick(p, res.Assign) {
			t.Fatalf("after %d polls: infeasible result %+v", after, res)
		}
		if res.LowerBound > opt.Cost || res.Cost < opt.Cost {
			t.Fatalf("after %d polls: bound %d / cost %d vs optimum %d",
				after, res.LowerBound, res.Cost, opt.Cost)
		}
		if res.Quality == QualityExact && res.Cost != opt.Cost {
			t.Fatalf("after %d polls: exact verdict with cost %d != optimum %d", after, res.Cost, opt.Cost)
		}
	}
}
