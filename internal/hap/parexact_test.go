package hap

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

func TestExactParallelMatchesSerial(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 9, false)
		a, err1 := Exact(p, ExactOptions{})
		b, err2 := ExactParallelCtx(context.Background(), p, ExactOptions{})
		if errors.Is(err1, ErrInfeasible) {
			return errors.Is(err2, ErrInfeasible)
		}
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Cost == b.Cost && b.Length <= p.Deadline
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactParallelBudget(t *testing.T) {
	// A chain where the cost lower bound is uselessly loose (the cheap
	// type is far too slow to use everywhere), so the search must descend
	// and the per-worker budget trips deterministically.
	n := 20
	g := dfg.Chain(n)
	tab := fu.NewTable(n, 2)
	for v := 0; v < n; v++ {
		tab.MustSet(v, []int{1, 3}, []int64{10, 1})
	}
	p := Problem{Graph: g, Table: tab, Deadline: 2 * n}
	if _, err := ExactParallelCtx(context.Background(), p, ExactOptions{MaxStates: 10}); !errors.Is(err, ErrSearchTooLarge) {
		t.Fatalf("want ErrSearchTooLarge, got %v", err)
	}
}

func TestExactParallelValidates(t *testing.T) {
	if _, err := ExactParallelCtx(context.Background(), Problem{}, ExactOptions{}); err == nil {
		t.Fatal("nil problem accepted")
	}
}

func TestExactParallelSingleNodeFallsBack(t *testing.T) {
	// A single-node graph takes the serial fallback path.
	g := dfg.Chain(1)
	tab := fu.NewTable(1, 3)
	tab.MustSet(0, []int{1, 3, 7}, []int64{9, 2, 1})
	s, err := ExactParallelCtx(context.Background(), Problem{Graph: g, Table: tab, Deadline: 5}, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Type 2 (cost 1) misses the deadline; type 1 (cost 2) is optimal.
	if s.Cost != 2 {
		t.Fatalf("cost = %d, want 2 (cheapest feasible)", s.Cost)
	}
}
