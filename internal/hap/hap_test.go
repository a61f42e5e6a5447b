package hap

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// pathProblem builds the Figure 5 style worked example: a three-node simple
// path with three FU types. Times/costs follow the paper's example table
// ranges (the OCR destroyed the exact digits, so the concrete values are
// ours; optimality is verified against brute force).
func pathProblem() Problem {
	g := dfg.Chain(3)
	t := fu.NewTable(3, 3)
	//              P1       P2       P3
	t.MustSet(0, []int{1, 2, 4}, []int64{10, 6, 2})
	t.MustSet(1, []int{2, 3, 5}, []int64{9, 5, 1})
	t.MustSet(2, []int{1, 3, 4}, []int64{8, 4, 2})
	return Problem{Graph: g, Table: t, Deadline: 10}
}

// treeProblem builds the Figure 6/8 style worked example: the 7-node tree
//
//	     v7
//	    /  \
//	  v5    v6
//	 /  \     \
//	v1  v4    ...
//
// The paper draws edges child->parent; our out-tree orientation (parent
// before child) carries identical path lengths, so the DP and its optimum
// match.
func treeProblem() Problem {
	g := dfg.New()
	v7 := g.MustAddNode("v7", "")
	v5 := g.MustAddNode("v5", "")
	v6 := g.MustAddNode("v6", "")
	v1 := g.MustAddNode("v1", "")
	v2 := g.MustAddNode("v2", "")
	v3 := g.MustAddNode("v3", "")
	v4 := g.MustAddNode("v4", "")
	g.MustAddEdge(v7, v5, 0)
	g.MustAddEdge(v7, v6, 0)
	g.MustAddEdge(v5, v1, 0)
	g.MustAddEdge(v5, v2, 0)
	g.MustAddEdge(v6, v3, 0)
	g.MustAddEdge(v6, v4, 0)
	t := fu.NewTable(7, 3)
	for v := 0; v < 7; v++ {
		t.MustSet(v, []int{1, 2, 3}, []int64{9 - int64(v%3), 5, 1 + int64(v%2)})
	}
	return Problem{Graph: g, Table: t, Deadline: 7}
}

func randomProblem(rng *rand.Rand, maxNodes int, tree bool) Problem {
	n := 2 + rng.Intn(maxNodes-1)
	var g *dfg.Graph
	if tree {
		g = dfg.RandomTree(rng, n)
	} else {
		g = dfg.RandomDAG(rng, n, 0.25+rng.Float64()*0.3)
	}
	k := 2 + rng.Intn(2)
	t := fu.RandomTable(rng, n, k)
	min, _ := MinMakespan(g, t)
	// Deadlines from the minimum makespan up to comfortably loose.
	L := min + rng.Intn(2*min+3)
	return Problem{Graph: g, Table: t, Deadline: L}
}

func TestProblemValidate(t *testing.T) {
	p := pathProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Deadline = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero deadline validated")
	}
	bad = p
	bad.Table = fu.NewTable(2, 3)
	if err := bad.Validate(); err == nil {
		t.Error("short table validated")
	}
	if err := (Problem{}).Validate(); err == nil {
		t.Error("nil problem validated")
	}
	bad = p
	bad.Graph = dfg.New()
	if err := bad.Validate(); err == nil {
		t.Error("empty graph validated")
	}
}

func TestEvaluateChecksAssignment(t *testing.T) {
	p := pathProblem()
	if _, err := Evaluate(p, Assignment{0}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := Evaluate(p, Assignment{0, 0, 7}); err == nil {
		t.Error("out-of-range type accepted")
	}
	s, err := Evaluate(p, Assignment{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 2+1+2 || s.Length != 4+5+4 {
		t.Fatalf("all-P3: cost %d length %d", s.Cost, s.Length)
	}
}

func TestMakespanHorizon(t *testing.T) {
	p := pathProblem()
	// All-slowest path length: the deadline every assignment meets.
	w := make([]int, p.Graph.N())
	for v := range w {
		w[v] = p.Table.MaxTime(v)
	}
	maxLen, _, err := p.Graph.LongestPath(w)
	if err != nil {
		t.Fatal(err)
	}
	p.Deadline = 1
	if got := MakespanHorizon(p); got != maxLen {
		t.Fatalf("horizon at a tight deadline = %d, want the maximum makespan %d", got, maxLen)
	}
	p.Deadline = maxLen + 7
	if got := MakespanHorizon(p); got != maxLen+7 {
		t.Fatalf("horizon past the maximum makespan = %d, want the deadline %d", got, maxLen+7)
	}
}

func TestMinMakespan(t *testing.T) {
	p := pathProblem()
	got, err := MinMakespan(p.Graph, p.Table)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1+2+1 {
		t.Fatalf("MinMakespan = %d, want 4", got)
	}
}

func TestPathAssignWorkedExample(t *testing.T) {
	p := pathProblem()
	s, err := PathAssign(p)
	if err != nil {
		t.Fatal(err)
	}
	// With L=10 the total slowest time is 13, so at least one node must
	// speed up; brute force confirms the optimum.
	want, err := BruteForce(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != want.Cost {
		t.Fatalf("PathAssign cost %d, optimum %d", s.Cost, want.Cost)
	}
	if s.Length > p.Deadline {
		t.Fatalf("PathAssign length %d > %d", s.Length, p.Deadline)
	}
	// Tight deadline: only all-fastest fits.
	p.Deadline = 4
	s, err = PathAssign(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 10+9+8 || s.Length != 4 {
		t.Fatalf("tight deadline: cost %d length %d", s.Cost, s.Length)
	}
	// Below the minimum makespan: infeasible.
	p.Deadline = 3
	if _, err := PathAssign(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	// Loose deadline: everyone on the cheapest type.
	p.Deadline = 13
	s, err = PathAssign(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 2+1+2 {
		t.Fatalf("loose deadline: cost %d, want 5", s.Cost)
	}
}

func TestPathAssignRejectsNonPath(t *testing.T) {
	p := treeProblem()
	if _, err := PathAssign(p); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestTreeAssignWorkedExample(t *testing.T) {
	p := treeProblem()
	s, err := TreeAssign(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != want.Cost {
		t.Fatalf("TreeAssign cost %d, optimum %d", s.Cost, want.Cost)
	}
	if s.Length > p.Deadline {
		t.Fatalf("length %d > %d", s.Length, p.Deadline)
	}
}

func TestTreeAssignOnForestAndSingleton(t *testing.T) {
	g := dfg.New()
	g.MustAddNode("a", "")
	g.MustAddNode("b", "") // two isolated roots: a 2-tree forest
	tab := fu.UniformTable(2, []int{1, 3}, []int64{5, 1})
	s, err := TreeAssign(Problem{Graph: g, Table: tab, Deadline: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 2 { // both nodes fit on the cheap type independently
		t.Fatalf("forest cost %d, want 2", s.Cost)
	}
	s, err = TreeAssign(Problem{Graph: g, Table: tab, Deadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 10 {
		t.Fatalf("tight forest cost %d, want 10", s.Cost)
	}
}

func TestTreeAssignRejectsNonForest(t *testing.T) {
	// A diamond is neither an out-forest (D has two parents) nor an
	// in-forest (A has two children).
	g := dfg.New()
	a := g.MustAddNode("a", "")
	b := g.MustAddNode("b", "")
	c := g.MustAddNode("c", "")
	d := g.MustAddNode("d", "")
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(a, c, 0)
	g.MustAddEdge(b, d, 0)
	g.MustAddEdge(c, d, 0)
	p := Problem{Graph: g, Table: fu.UniformTable(4, []int{1}, []int64{1}), Deadline: 5}
	if _, err := TreeAssign(p); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestTreeAssignOnInForestsMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Reverse a random out-tree into a fan-in computation tree.
		g := dfg.RandomTree(rng, 2+rng.Intn(8)).Transpose()
		if !g.IsInForest() {
			return false
		}
		tab := fu.RandomTable(rng, g.N(), 2+rng.Intn(2))
		min, _ := MinMakespan(g, tab)
		p := Problem{Graph: g, Table: tab, Deadline: min + rng.Intn(2*min+2)}
		s, err := TreeAssign(p)
		opt, err2 := BruteForce(p)
		if errors.Is(err2, ErrInfeasible) {
			return errors.Is(err, ErrInfeasible)
		}
		if err != nil || err2 != nil {
			return false
		}
		return s.Cost == opt.Cost && s.Length <= p.Deadline
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeAssignMatchesBruteForceOnRandomTrees(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 9, true)
		s, err := TreeAssign(p)
		opt, err2 := BruteForce(p)
		if errors.Is(err, ErrInfeasible) || errors.Is(err2, ErrInfeasible) {
			return errors.Is(err, ErrInfeasible) && errors.Is(err2, ErrInfeasible)
		}
		if err != nil || err2 != nil {
			return false
		}
		return s.Cost == opt.Cost && s.Length <= p.Deadline
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPathAssignAgreesWithTreeAssignOnChains(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := dfg.Chain(n)
		tab := fu.RandomTable(rng, n, 2+rng.Intn(2))
		min, _ := MinMakespan(g, tab)
		p := Problem{Graph: g, Table: tab, Deadline: min + rng.Intn(3*min+1)}
		a, err1 := PathAssign(p)
		b, err2 := TreeAssign(p)
		if err1 != nil || err2 != nil {
			return errors.Is(err1, ErrInfeasible) && errors.Is(err2, ErrInfeasible)
		}
		return a.Cost == b.Cost
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCostMonotoneInDeadline(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 10, true)
		s1, err := TreeAssign(p)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		p2 := p
		p2.Deadline = p.Deadline + 1 + rng.Intn(5)
		s2, err := TreeAssign(p2)
		if err != nil {
			return false
		}
		return s2.Cost <= s1.Cost
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
