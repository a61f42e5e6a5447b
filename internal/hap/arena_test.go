package hap

import (
	"errors"
	"math/rand"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// These tests pin the flat-arena curve storage (arena.go) to the dense table
// DP (densedp_test.go): every retained per-node curve must evaluate, at every
// budget 0..L, to its node's row of the dense X table — including across
// incremental re-solves that abandon arena ranges, across forced compaction,
// and across the parallel path's per-worker arenas. Solutions and frontiers
// must match the dense oracle as well.

// curvesMatchDense compares every retained curve of s against the dense X
// table point by point, at every deadline 0..L.
func curvesMatchDense(t *testing.T, seed int64, stage string, s *treeSolver, X [][]int64) {
	t.Helper()
	for v := range s.order {
		c := s.curveOf(dfg.NodeID(v))
		for j, want := range X[v] {
			if got := c.eval(j); got != want {
				t.Fatalf("seed %d %s: node %d at budget %d: arena curve %d, dense X %d", seed, stage, v, j, got, want)
			}
		}
	}
}

// frontierMatchesDense checks the solver's whole-forest frontier against the
// dense root rows: its points are exactly the deadlines 0..L where the summed
// root cost is finite and strictly below the previous deadline's.
func frontierMatchesDense(t *testing.T, seed int64, stage string, s *treeSolver, X [][]int64) {
	t.Helper()
	var want []FrontierPoint
	prev := int64(inf)
	for j := 0; j <= s.p.Deadline; j++ {
		total := int64(0)
		for _, r := range s.roots {
			if X[r][j] == inf {
				total = inf
				break
			}
			total += X[r][j]
		}
		if total < prev {
			want = append(want, FrontierPoint{Deadline: j, Cost: total})
			prev = total
		}
	}
	got := s.frontier()
	if len(got) != len(want) {
		t.Fatalf("seed %d %s: frontier has %d points, dense %d", seed, stage, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d %s: frontier[%d] arena %+v != dense %+v", seed, stage, i, got[i], want[i])
		}
	}
}

// runArenaVsDense drives an arena solver through a solve-pin-resolve
// trajectory and checks it against a fresh dense solve under the same pin
// mask after every step.
func runArenaVsDense(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := randomProblem(rng, 14, true)
	arena, err := newTreeSolver(p)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	defer arena.release()
	allowed := make([][]bool, p.Graph.N())
	step := func(stage string) bool {
		sa, errA := arena.solve()
		sd, X, errD := treeAssignDense(p, allowed)
		if errors.Is(errA, ErrInfeasible) != errors.Is(errD, ErrInfeasible) {
			t.Fatalf("seed %d %s: feasibility differs: arena %v, dense %v", seed, stage, errA, errD)
		}
		curvesMatchDense(t, seed, stage, arena, X)
		if errA != nil {
			return false
		}
		if !sameSolution(sa, sd) {
			t.Fatalf("seed %d %s: arena %+v != dense %+v", seed, stage, sa, sd)
		}
		frontierMatchesDense(t, seed, stage, arena, X)
		return true
	}
	if !step("initial") {
		return
	}
	// Incremental pins abandon the pinned nodes' old arena ranges; the fresh
	// ranges must still read back as the dense table under the pin mask.
	for pinStep := 0; pinStep < 4; pinStep++ {
		v := dfg.NodeID(rng.Intn(p.Graph.N()))
		k := fu.TypeID(rng.Intn(p.K()))
		arena.pin([]dfg.NodeID{v}, k)
		allowed[v] = make([]bool, p.K())
		allowed[v][k] = true
		if !step("pin") {
			return
		}
	}
}

func TestArenaMatchesDenseTable(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		runArenaVsDense(t, seed)
	}
}

func TestArenaCompactionMatchesDenseTable(t *testing.T) {
	// Shrinking the arena bound forces storeCurve through compactArena (and,
	// when a compacted arena still cannot take the curve, through the
	// open-a-fresh-arena fallback) on ordinary small instances. The serial
	// incremental trajectory is the one that accumulates abandoned ranges.
	old := maxArenaPoints
	maxArenaPoints = 12
	defer func() { maxArenaPoints = old }()
	for seed := int64(0); seed < 120; seed++ {
		runArenaVsDense(t, 5000+seed)
	}
}

func TestArenaParallelMatchesDenseTable(t *testing.T) {
	// Above parallelMinDirty the first solve takes the worker-pool path with
	// one private arena per worker; under -race this doubles as the probe for
	// the arena handoff (ptmp) being properly ordered.
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := parallelMinDirty + 100 + rng.Intn(200)
		g := dfg.RandomTree(rng, n)
		tab := fu.RandomTable(rng, n, 3)
		min, err := MinMakespan(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		p := Problem{Graph: g, Table: tab, Deadline: min + 1 + rng.Intn(min+2)}
		arena, err := newTreeSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		defer arena.release()
		sa, errA := arena.solve()
		sd, X, errD := treeAssignDense(p, nil)
		if errA != nil || errD != nil {
			t.Fatalf("seed %d: arena %v dense %v", seed, errA, errD)
		}
		if !sameSolution(sa, sd) {
			t.Fatalf("seed %d: arena %+v != dense %+v", seed, sa, sd)
		}
		curvesMatchDense(t, seed, "parallel", arena, X)
	}
}

func TestTreeSolveArenaAllocs(t *testing.T) {
	// With pooled arenas and scratch, a full build-solve-release cycle costs
	// only the solver's own structural allocations — far below the one curve
	// allocation per node the slice layout paid. The bound is deliberately
	// much smaller than n so a regression to per-node allocation fails loudly.
	if raceEnabled {
		t.Skip("allocation counts include race instrumentation")
	}
	rng := rand.New(rand.NewSource(7))
	n := 300
	g := dfg.RandomTree(rng, n)
	tab := fu.RandomTable(rng, n, 3)
	min, err := MinMakespan(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Graph: g, Table: tab, Deadline: min + min/2 + 1}
	solveOnce := func() {
		s, err := newTreeSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.solve(); err != nil {
			t.Fatal(err)
		}
		s.release()
	}
	solveOnce() // warm the arena and scratch pools
	allocs := testing.AllocsPerRun(50, solveOnce)
	if allocs > 40 {
		t.Fatalf("tree solve allocated %.1f times per run, want <= 40 (n = %d)", allocs, n)
	}
}
