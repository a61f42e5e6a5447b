package hap

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// incInstance is the mutable shadow an IncrementalSolver differential test
// maintains: the authoritative edge list and table the solver's answers are
// compared against a from-scratch TreeAssign of.
type incInstance struct {
	n        int
	edges    []dfg.Edge
	table    *fu.Table
	deadline int
}

func (ii *incInstance) graph(t *testing.T) *dfg.Graph {
	t.Helper()
	g := dfg.New()
	for v := 0; v < ii.n; v++ {
		g.MustAddNode(fmt.Sprintf("n%d", v), "op")
	}
	for _, e := range ii.edges {
		if err := g.AddEdge(e.From, e.To, e.Delays); err != nil {
			t.Fatalf("rebuilding graph: %v", err)
		}
	}
	return g
}

// randomForest builds a random out-forest over n nodes: each non-root node
// gets a random earlier parent via a zero-delay edge.
func randomForest(rng *rand.Rand, n int) []dfg.Edge {
	var edges []dfg.Edge
	for v := 1; v < n; v++ {
		if rng.Intn(5) == 0 {
			continue // extra root
		}
		edges = append(edges, dfg.Edge{From: dfg.NodeID(rng.Intn(v)), To: dfg.NodeID(v), Delays: 0})
	}
	return edges
}

// TestIncrementalDifferential drives randomized delta sequences through an
// IncrementalSolver and asserts after every step that its answer is
// bit-identical — assignment, cost, length — to a from-scratch TreeAssign
// of the mutated instance, and that the recompute count never exceeds the
// dirty-path bound.
func TestIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(20)
		k := 2 + rng.Intn(3)
		ii := &incInstance{n: n, edges: randomForest(rng, n), table: fu.RandomTable(rng, n, k)}
		g := ii.graph(t)
		min, err := MinMakespan(g, ii.table)
		if err != nil {
			t.Fatalf("trial %d: min makespan: %v", trial, err)
		}
		ii.deadline = min + rng.Intn(2*min+4)

		inc, err := NewIncrementalSolver(Problem{Graph: g, Table: ii.table, Deadline: ii.deadline})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}

		check := func(step string) {
			t.Helper()
			got, gerr := inc.Solve()
			fresh := ii.graph(t)
			want, werr := TreeAssign(Problem{Graph: fresh, Table: ii.table, Deadline: ii.deadline})
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("trial %d %s: inc err %v, fresh err %v", trial, step, gerr, werr)
			}
			if gerr != nil {
				return
			}
			if got.Cost != want.Cost || got.Length != want.Length {
				t.Fatalf("trial %d %s: inc (cost %d, len %d) != fresh (cost %d, len %d)",
					trial, step, got.Cost, got.Length, want.Cost, want.Length)
			}
			for v := range got.Assign {
				if got.Assign[v] != want.Assign[v] {
					t.Fatalf("trial %d %s: assignment differs at node %d: %d != %d",
						trial, step, v, got.Assign[v], want.Assign[v])
				}
			}
		}
		check("initial")

		for step := 0; step < 12; step++ {
			switch op := rng.Intn(4); {
			case op == 0: // row edit
				v := rng.Intn(n)
				times := make([]int, k)
				costs := make([]int64, k)
				for j := 0; j < k; j++ {
					times[j] = 1 + rng.Intn(10)
					costs[j] = int64(1 + rng.Intn(50))
				}
				if err := inc.SetRow(v, times, costs); err != nil {
					t.Fatalf("trial %d step %d: SetRow: %v", trial, step, err)
				}
				ii.table.MustSet(v, times, costs)
				if rec := inc.Recomputed(); rec > n {
					t.Fatalf("trial %d step %d: recomputed %d > n=%d", trial, step, rec, n)
				}
			case op == 1: // remove a random zero-delay edge
				if len(ii.edges) == 0 {
					continue
				}
				i := rng.Intn(len(ii.edges))
				e := ii.edges[i]
				if err := inc.RemoveEdge(e.From, e.To, e.Delays); err != nil {
					t.Fatalf("trial %d step %d: RemoveEdge(%d,%d): %v", trial, step, e.From, e.To, err)
				}
				ii.edges = append(ii.edges[:i:i], ii.edges[i+1:]...)
			case op == 2: // attach a current root under a random other node
				fresh := ii.graph(t)
				roots := fresh.Roots()
				if len(roots) < 2 {
					continue
				}
				child := roots[rng.Intn(len(roots))]
				parent := dfg.NodeID(rng.Intn(n))
				if parent == child {
					continue
				}
				err := inc.AddEdge(parent, child, 0)
				if err != nil {
					// The only legal rejection here is a would-be cycle
					// (parent inside child's subtree).
					fresh.MustAddEdge(parent, child, 0)
					if fresh.Validate() == nil {
						t.Fatalf("trial %d step %d: AddEdge(%d,%d) rejected a valid edge: %v",
							trial, step, parent, child, err)
					}
					continue
				}
				ii.edges = append(ii.edges, dfg.Edge{From: parent, To: child, Delays: 0})
			default: // retarget the deadline
				ii.deadline = min + rng.Intn(2*min+4)
				if err := inc.SetDeadline(ii.deadline); err != nil {
					t.Fatalf("trial %d step %d: SetDeadline: %v", trial, step, err)
				}
			}
			check(fmt.Sprintf("step %d", step))
		}
		inc.Close()
	}
}

// TestIncrementalDirtyPath pins the O(dirty path) contract on a long chain:
// editing a leaf's row must recompute the leaf-to-root path, not the tree.
func TestIncrementalDirtyPath(t *testing.T) {
	const n = 64
	g := dfg.New()
	for v := 0; v < n; v++ {
		g.MustAddNode(fmt.Sprintf("c%d", v), "op")
		if v > 0 {
			g.MustAddEdge(dfg.NodeID(v-1), dfg.NodeID(v), 0)
		}
	}
	tab := fu.UniformTable(n, []int{1, 2}, []int64{5, 1})
	inc, err := NewIncrementalSolver(Problem{Graph: g, Table: tab, Deadline: 2 * n})
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	if _, err := inc.Solve(); err != nil {
		t.Fatal(err)
	}
	if rec := inc.Recomputed(); rec != n {
		t.Fatalf("first solve recomputed %d, want the full %d", rec, n)
	}
	// Chain is 0 -> 1 -> ... -> n-1; in the solver's (out-forest)
	// orientation, node n-1 is the deepest leaf, whose dirty path is the
	// whole chain, while node 0's path is just itself.
	if err := inc.SetRow(0, []int{1, 3}, []int64{7, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Solve(); err != nil {
		t.Fatal(err)
	}
	if rec := inc.Recomputed(); rec != 1 {
		t.Fatalf("root row edit recomputed %d nodes, want 1", rec)
	}
	// A deadline retarget inside the horizon is a pure re-trace.
	if err := inc.SetDeadline(n + 3); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Solve(); err != nil {
		t.Fatal(err)
	}
	if rec := inc.Recomputed(); rec != 0 {
		t.Fatalf("deadline retarget recomputed %d nodes, want 0", rec)
	}
}

// TestIncrementalShapeAndClose covers the rejection paths: non-tree shapes
// at build, forest-breaking edges, unknown edges, bad rows, use after Close.
func TestIncrementalShapeAndClose(t *testing.T) {
	g := dfg.New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	c := g.MustAddNode("c", "op")
	g.MustAddEdge(a, c, 0)
	g.MustAddEdge(b, c, 0) // in-degree 2: not an out-forest
	g.MustAddEdge(a, b, 0) // and out-degree 2 on a: not an in-forest either
	tab := fu.UniformTable(3, []int{1}, []int64{1})
	if _, err := NewIncrementalSolver(Problem{Graph: g, Table: tab, Deadline: 10}); err == nil {
		t.Fatal("non-forest build succeeded, want ErrShape")
	}

	g2 := dfg.New()
	a2 := g2.MustAddNode("a", "op")
	b2 := g2.MustAddNode("b", "op")
	c2 := g2.MustAddNode("c", "op")
	g2.MustAddEdge(a2, b2, 0)
	inc, err := NewIncrementalSolver(Problem{Graph: g2, Table: tab, Deadline: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.AddEdge(c2, b2, 0); err == nil {
		t.Fatal("second parent accepted, want ErrShape")
	}
	if err := inc.AddEdge(b2, a2, 0); err == nil {
		t.Fatal("cycle-closing edge accepted, want ErrShape")
	}
	if err := inc.RemoveEdge(a2, c2, 0); err == nil {
		t.Fatal("removing a nonexistent edge succeeded")
	}
	if err := inc.SetRow(0, []int{0}, []int64{1}); err == nil {
		t.Fatal("zero execution time accepted")
	}
	if err := inc.SetRow(0, []int{1}, []int64{-1}); err == nil {
		t.Fatal("negative cost accepted")
	}
	if err := inc.SetRow(9, []int{1}, []int64{1}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	// Delayed edges are structural no-ops in both directions.
	if err := inc.AddEdge(b2, a2, 2); err != nil {
		t.Fatalf("delayed back-edge: %v", err)
	}
	if err := inc.RemoveEdge(b2, a2, 2); err != nil {
		t.Fatalf("delayed edge removal: %v", err)
	}
	if got := inc.Frontier(); len(got) == 0 {
		t.Fatal("frontier empty for a feasible instance")
	}
	if got, want := inc.Target(), 10; got != want {
		t.Fatalf("target %d, want %d", got, want)
	}
	inc.Close()
	inc.Close() // idempotent
	if _, err := inc.Solve(); err == nil {
		t.Fatal("Solve after Close succeeded")
	}
	if err := inc.SetRow(0, []int{1}, []int64{1}); err == nil {
		t.Fatal("SetRow after Close succeeded")
	}
	if err := inc.AddEdge(a2, c2, 0); err == nil {
		t.Fatal("AddEdge after Close succeeded")
	}
	if err := inc.RemoveEdge(a2, b2, 0); err == nil {
		t.Fatal("RemoveEdge after Close succeeded")
	}
	if err := inc.SetDeadline(5); err == nil {
		t.Fatal("SetDeadline after Close succeeded")
	}
	if inc.Frontier() != nil {
		t.Fatal("Frontier after Close returned points")
	}
}

// TestAnytimeObserverMonotone asserts the Observer contract: incumbent
// costs strictly decrease across updates, the last update matches the
// returned solution, and tree fast paths emit exactly one exact update.
func TestAnytimeObserverMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Non-tree instance so the full ladder runs.
	g := dfg.New()
	for v := 0; v < 10; v++ {
		g.MustAddNode(fmt.Sprintf("n%d", v), "op")
	}
	for v := 2; v < 10; v++ {
		g.MustAddEdge(dfg.NodeID(v-2), dfg.NodeID(v), 0)
		g.MustAddEdge(dfg.NodeID(v-1), dfg.NodeID(v), 0)
	}
	tab := fu.RandomTable(rng, 10, 3)
	min, err := MinMakespan(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Graph: g, Table: tab, Deadline: min + 3}
	var seen []IncumbentUpdate
	res, err := SolveAnytime(context.Background(), p, AnytimeOptions{
		Sequential: true,
		Observer:   func(u IncumbentUpdate) { seen = append(seen, u) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("observer never fired")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Cost >= seen[i-1].Cost {
			t.Fatalf("update %d cost %d !< previous %d", i, seen[i].Cost, seen[i-1].Cost)
		}
	}
	last := seen[len(seen)-1]
	if last.Cost != res.Cost {
		t.Fatalf("last update cost %d != result cost %d", last.Cost, res.Cost)
	}
	if last.Gap < 0 {
		t.Fatalf("negative gap %f", last.Gap)
	}

	// Tree fast path: one update, exact, zero gap.
	chain := dfg.New()
	for v := 0; v < 4; v++ {
		chain.MustAddNode(fmt.Sprintf("c%d", v), "op")
		if v > 0 {
			chain.MustAddEdge(dfg.NodeID(v-1), dfg.NodeID(v), 0)
		}
	}
	// A branch keeps it a tree but not a simple path.
	chain.MustAddNode("c4", "op")
	chain.MustAddEdge(0, 4, 0)
	ctab := fu.RandomTable(rng, 5, 3)
	cmin, err := MinMakespan(chain, ctab)
	if err != nil {
		t.Fatal(err)
	}
	seen = nil
	tres, err := SolveAnytime(context.Background(), Problem{Graph: chain, Table: ctab, Deadline: cmin + 2}, AnytimeOptions{
		Observer: func(u IncumbentUpdate) { seen = append(seen, u) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Stage != "tree" || seen[0].Cost != tres.Cost || seen[0].Gap != 0 {
		t.Fatalf("tree fast path updates = %+v, want one exact tree update at cost %d", seen, tres.Cost)
	}
}

// Target returns the deadline Solve currently answers at.
func (is *IncrementalSolver) Target() int {
	is.mu.Lock()
	defer is.mu.Unlock()
	return is.target
}

// Frontier recomputes any dirty curves and returns the cost-versus-deadline
// frontier up to the horizon — the deadlines where the optimal cost strictly
// improves, read straight off the DP root curves like TreeFrontier. Empty
// means infeasible everywhere up to the horizon.
func (is *IncrementalSolver) Frontier() []FrontierPoint {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.s == nil {
		return nil
	}
	is.s.recompute()
	return is.s.frontier()
}
