package unfold

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// loop builds a -> b -> c with a 2-delay feedback c -> a, unit times.
func loop() *dfg.Graph {
	g := dfg.New()
	a := g.MustAddNode("a", "")
	b := g.MustAddNode("b", "")
	c := g.MustAddNode("c", "")
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, c, 0)
	g.MustAddEdge(c, a, 2)
	return g
}

func TestUnfoldShape(t *testing.T) {
	g := loop()
	u, err := Unfold(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.N() != 6 || u.M() != 6 {
		t.Fatalf("unfolded: %d nodes %d edges, want 6/6", u.N(), u.M())
	}
	if _, ok := u.Lookup("a@0"); !ok {
		t.Fatal("copy naming broken")
	}
	// Edge (c,a,2) unfolds to c@0 -> a@0 with 1 delay and c@1 -> a@1 with
	// 1 delay (since (0+2)%2 = 0, (0+2)/2 = 1).
	found := 0
	for _, e := range u.Edges() {
		if u.Node(e.From).Name == "c@0" && u.Node(e.To).Name == "a@0" && e.Delays == 1 {
			found++
		}
		if u.Node(e.From).Name == "c@1" && u.Node(e.To).Name == "a@1" && e.Delays == 1 {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("feedback edges misplaced (%d matches):\n%s", found, u.String())
	}
}

func TestUnfoldRejectsBadInput(t *testing.T) {
	if _, err := Unfold(loop(), 0); err == nil {
		t.Error("factor 0 accepted")
	}
	bad := dfg.New()
	a := bad.MustAddNode("a", "")
	b := bad.MustAddNode("b", "")
	bad.MustAddEdge(a, b, 0)
	bad.MustAddEdge(b, a, 0)
	if _, err := Unfold(bad, 2); err == nil {
		t.Error("zero-delay cycle accepted")
	}
}

func TestUnfoldPreservesTotalDelaysAndScalesNodes(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dfg.RandomDAG(rng, 2+rng.Intn(8), 0.3)
		// Sprinkle feedback delays.
		for i := 0; i < 2; i++ {
			g.MustAddEdge(dfg.NodeID(rng.Intn(g.N())), dfg.NodeID(rng.Intn(g.N())), 1+rng.Intn(3))
		}
		f := 1 + rng.Intn(4)
		u, err := Unfold(g, f)
		if err != nil {
			return false
		}
		if u.N() != g.N()*f || u.M() != g.M()*f {
			return false
		}
		// Sum over copies of an edge's delays equals the original delays:
		// sum_i floor((i+d)/f) = d for i in 0..f-1.
		sum := func(gr *dfg.Graph) int {
			s := 0
			for _, e := range gr.Edges() {
				s += e.Delays
			}
			return s
		}
		return sum(u) == sum(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnfoldIdentityAtFactorOne(t *testing.T) {
	g := loop()
	u, err := Unfold(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u.N() != g.N() || u.M() != g.M() {
		t.Fatalf("factor-1 unfold changed the graph: %s", u.String())
	}
}

func TestLiftTable(t *testing.T) {
	tab := fu.NewTable(2, 2)
	tab.MustSet(0, []int{1, 2}, []int64{5, 1})
	tab.MustSet(1, []int{2, 3}, []int64{6, 2})
	lifted := LiftTable(tab, 3)
	if lifted.N() != 6 {
		t.Fatalf("lifted table covers %d nodes", lifted.N())
	}
	for i := 0; i < 3; i++ {
		if lifted.Time[0*3+i][1] != 2 || lifted.Cost[1*3+i][0] != 6 {
			t.Fatalf("lifted rows wrong at copy %d", i)
		}
	}
}

func TestIterationBound(t *testing.T) {
	g := loop() // one cycle: time 3, delays 2 -> bound 3/2.
	num, den, err := IterationBound(g, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if float64(num)/float64(den) != 1.5 {
		t.Fatalf("bound = %d/%d = %v, want 1.5", num, den, float64(num)/float64(den))
	}
}

func TestIterationBoundAcyclic(t *testing.T) {
	g := dfg.Chain(3)
	num, den, err := IterationBound(g, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if num != 0 || den != 1 {
		t.Fatalf("acyclic bound = %d/%d, want 0/1", num, den)
	}
	if _, _, err := IterationBound(g, []int{1}); err == nil {
		t.Fatal("short times accepted")
	}
}

func TestIterationBoundTwoCycles(t *testing.T) {
	// Cycle 1: a->b->a, 1 delay, time 2+3=5 -> ratio 5.
	// Cycle 2: c->c self loop 2 delays, time 4 -> ratio 2. Max is 5.
	g := dfg.New()
	a := g.MustAddNode("a", "")
	b := g.MustAddNode("b", "")
	c := g.MustAddNode("c", "")
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, a, 1)
	g.MustAddEdge(c, c, 2)
	num, den, err := IterationBound(g, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if float64(num)/float64(den) != 5 {
		t.Fatalf("bound = %d/%d, want 5", num, den)
	}
}

// TestUnfoldingApproachesIterationBound is the headline property of [6]:
// the per-iteration critical path of the f-unfolded graph divided by f
// converges toward the iteration bound.
func TestUnfoldingApproachesIterationBound(t *testing.T) {
	g := loop()
	times := []int{1, 1, 1}
	num, den, err := IterationBound(g, times)
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(num) / float64(den) // 1.5
	perIter := func(f int) float64 {
		u, err := Unfold(g, f)
		if err != nil {
			t.Fatal(err)
		}
		tu := make([]int, u.N())
		for i := range tu {
			tu[i] = 1
		}
		length, _, err := u.LongestPath(tu)
		if err != nil {
			t.Fatal(err)
		}
		return float64(length) / float64(f)
	}
	p1 := perIter(1) // 3/1 = 3
	p2 := perIter(2) // expect 4/2 = 2
	p4 := perIter(4)
	if !(p1 >= p2 && p2 >= p4) {
		t.Fatalf("per-iteration lengths not improving: %v %v %v", p1, p2, p4)
	}
	if p4 < bound-1e-9 {
		t.Fatalf("beat the iteration bound: %v < %v", p4, bound)
	}
	if p4 > bound+0.6 {
		t.Fatalf("factor-4 unfolding still far from bound: %v vs %v", p4, bound)
	}
}
