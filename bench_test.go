package hetsynth

// This file is the benchmark harness of deliverable (d): one benchmark per
// table and worked figure of the paper, plus ablation benches for the
// design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// BenchmarkTable1/* and BenchmarkTable2/* regenerate the rows of the
// paper's two tables (use -v with cmd/experiments for the human-readable
// rendering); the remaining benchmarks time the individual algorithms on
// the workloads of the corresponding figures.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hetsynth/internal/benchdfg"
	"hetsynth/internal/cptree"
	"hetsynth/internal/dfg"
	"hetsynth/internal/exper"
	"hetsynth/internal/hap"
	"hetsynth/internal/hls"
	"hetsynth/internal/knapsack"
	"hetsynth/internal/retime"
	"hetsynth/internal/sched"
)

// benchProblem prepares a benchmark DFG with the experiment harness's
// random table and a mid-ladder deadline.
func benchProblem(b *testing.B, name string, slackSteps int) Problem {
	b.Helper()
	g, err := BenchmarkDFG(name)
	if err != nil {
		b.Fatal(err)
	}
	tab := RandomTable(2004, g.N(), 3)
	min, err := MinMakespan(g, tab)
	if err != nil {
		b.Fatal(err)
	}
	return Problem{Graph: g, Table: tab, Deadline: min + slackSteps}
}

// BenchmarkTable1 regenerates one full Table 1 row set per tree benchmark:
// greedy baseline, Tree_Assign, Once and Repeat over the six-deadline
// ladder, plus the phase-two configuration.
func BenchmarkTable1(b *testing.B) {
	for _, bench := range benchdfg.Paper() {
		if !bench.Tree {
			continue
		}
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exper.Run(bench, exper.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 regenerates one full Table 2 row set per DFG benchmark.
func BenchmarkTable2(b *testing.B) {
	for _, bench := range benchdfg.Paper() {
		if bench.Tree {
			continue
		}
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exper.Run(bench, exper.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSummary regenerates the §7 headline: both tables plus the
// average-reduction aggregation.
func BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := exper.Table1(exper.Options{})
		if err != nil {
			b.Fatal(err)
		}
		t2, err := exper.Table2(exper.Options{})
		if err != nil {
			b.Fatal(err)
		}
		avgOnce, avgRepeat := exper.Summary(append(t1, t2...))
		if avgOnce <= 0 || avgRepeat < avgOnce {
			b.Fatalf("summary regression: once=%.1f repeat=%.1f", avgOnce, avgRepeat)
		}
	}
}

// BenchmarkMotivational times the Figure 1–3 flow: exact assignment plus
// minimum-resource scheduling of the five-node example.
func BenchmarkMotivational(b *testing.B) {
	g := NewGraph()
	na := g.MustAddNode("A", "mul")
	nb := g.MustAddNode("B", "mul")
	nc := g.MustAddNode("C", "add")
	nd := g.MustAddNode("D", "mul")
	ne := g.MustAddNode("E", "add")
	g.MustAddEdge(na, nc, 0)
	g.MustAddEdge(nb, nc, 0)
	g.MustAddEdge(nc, ne, 0)
	g.MustAddEdge(nd, ne, 0)
	tab := NewTable(5, 3)
	tab.MustSet(0, []int{1, 2, 4}, []int64{10, 6, 2})
	tab.MustSet(1, []int{2, 3, 6}, []int64{9, 6, 1})
	tab.MustSet(2, []int{1, 2, 3}, []int64{8, 4, 2})
	tab.MustSet(3, []int{2, 4, 7}, []int64{9, 5, 2})
	tab.MustSet(4, []int{1, 3, 5}, []int64{7, 4, 1})
	p := Problem{Graph: g, Table: tab, Deadline: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(p, AlgoExact); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathAssign times the Figure 5 dynamic program as the path length
// scales, confirming the O(n·L·K) behavior.
func BenchmarkPathAssign(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := chainGraph(n)
			tab := RandomTable(5, n, 3)
			min, err := MinMakespan(g, tab)
			if err != nil {
				b.Fatal(err)
			}
			p := Problem{Graph: g, Table: tab, Deadline: min + min/2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hap.PathAssign(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func chainGraph(n int) *Graph {
	g := NewGraph()
	prev := g.MustAddNode("v1", "")
	for i := 2; i <= n; i++ {
		v := g.MustAddNode(fmt.Sprintf("v%d", i), "")
		g.MustAddEdge(prev, v, 0)
		prev = v
	}
	return g
}

// BenchmarkTreeAssign times the Figure 7/8 dynamic program on the paper's
// tree benchmarks.
func BenchmarkTreeAssign(b *testing.B) {
	for _, name := range []string{"4-stage-lattice", "8-stage-lattice", "volterra"} {
		b.Run(name, func(b *testing.B) {
			p := benchProblem(b, name, 6)
			for i := 0; i < b.N; i++ {
				if _, err := hap.TreeAssign(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExpand times Algorithm DFG_Expand (Figures 9–11) on the general
// DFG benchmarks.
func BenchmarkExpand(b *testing.B) {
	for _, name := range []string{"diffeq", "rls-laguerre", "elliptic"} {
		b.Run(name, func(b *testing.B) {
			g, err := BenchmarkDFG(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := cptree.ExpandBoth(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssignAlgorithms compares all phase-one solvers on the elliptic
// filter — the per-algorithm cost/speed tradeoff behind Tables 1–2.
func BenchmarkAssignAlgorithms(b *testing.B) {
	p := benchProblem(b, "elliptic", 8)
	for _, algo := range []Algorithm{AlgoGreedy, AlgoGreedyRatio, AlgoOnce, AlgoRepeat} {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Solve(p, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinRScheduling times phase two (Figures 13–14) on the elliptic
// filter with the Repeat assignment.
func BenchmarkMinRScheduling(b *testing.B) {
	p := benchProblem(b, "elliptic", 8)
	sol, err := Solve(p, AlgoRepeat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.MinRSchedule(p.Graph, p.Table, sol.Assign, p.Deadline); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKnapsackReduction times the §4 NP-completeness construction plus
// the optimal solve of the reduced instance.
func BenchmarkKnapsackReduction(b *testing.B) {
	in := knapsack.Instance{Capacity: 40}
	for i := 0; i < 20; i++ {
		in.Items = append(in.Items, knapsack.Item{Value: int64(10 + i*3), Weight: 1 + i%7})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red, err := knapsack.Reduce(in)
		if err != nil {
			b.Fatal(err)
		}
		p := Problem{Graph: red.Graph, Table: red.Table, Deadline: red.Deadline}
		if _, err := hap.PathAssign(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExactGap measures how far Repeat is from the true
// optimum on the small benchmarks (ablation E9 of DESIGN.md). It reports
// the gap as a custom metric rather than asserting, since the gap is the
// experiment's observable.
func BenchmarkAblationExactGap(b *testing.B) {
	for _, name := range []string{"diffeq", "rls-laguerre"} {
		b.Run(name, func(b *testing.B) {
			p := benchProblem(b, name, 4)
			var gap float64
			for i := 0; i < b.N; i++ {
				rep, err := Solve(p, AlgoRepeat)
				if err != nil {
					b.Fatal(err)
				}
				opt, err := Solve(p, AlgoExact)
				if err != nil {
					b.Fatal(err)
				}
				gap = 100 * float64(rep.Cost-opt.Cost) / float64(opt.Cost)
			}
			b.ReportMetric(gap, "%gap")
		})
	}
}

// BenchmarkILPvsExact reproduces the paper's comparison with the ILP of
// Ito et al. [11]: both find the optimum; the ILP pays the formulation
// overhead. Run both sub-benchmarks to see the speed ratio.
func BenchmarkILPvsExact(b *testing.B) {
	p := benchProblem(b, "diffeq", 4)
	b.Run("ilp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveILP(p, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-bnb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Solve(p, AlgoExact); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("repeat-heuristic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Solve(p, AlgoRepeat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulate times the cycle-accurate simulator over 100 iterations
// of the elliptic filter datapath.
func BenchmarkSimulate(b *testing.B) {
	p := benchProblem(b, "elliptic", 8)
	res, err := Synthesize(p, AlgoRepeat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(p.Graph, p.Table, res.Schedule, res.Config, 100, res.Schedule.Length); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRotation times rotation scheduling on the cyclic IIR cascade.
func BenchmarkRotation(b *testing.B) {
	g, err := BenchmarkDFG("iir4")
	if err != nil {
		b.Fatal(err)
	}
	tab := RandomTable(11, g.N(), 3)
	assign := make(Assignment, g.N())
	cfg := Config{4, 4, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rotate(g, tab, assign, cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnfoldAssign times unfolding plus assignment on the unfolded
// graph — the [6]-style transformation pipeline.
func BenchmarkUnfoldAssign(b *testing.B) {
	g, err := BenchmarkDFG("iir4")
	if err != nil {
		b.Fatal(err)
	}
	tab := RandomTable(11, g.N(), 3)
	for i := 0; i < b.N; i++ {
		u, err := Unfold(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		ut := UnfoldTable(tab, 2)
		min, err := MinMakespan(u, ut)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Solve(Problem{Graph: u, Table: ut, Deadline: min + 4}, AlgoRepeat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruneAblation measures how much the dominance-pruning pre-pass
// buys Tree_Assign on tables with many redundant options (wide fully
// random tables; the paper-style monotone tables have none).
func BenchmarkPruneAblation(b *testing.B) {
	g, err := BenchmarkDFG("volterra")
	if err != nil {
		b.Fatal(err)
	}
	// A wide, fully random table: 8 types, many dominated.
	tab := NewTable(g.N(), 8)
	rngSeed := int64(13)
	x := rngSeed
	next := func(n int) int { // tiny deterministic LCG, stdlib-free hot path
		x = x*6364136223846793005 + 1442695040888963407
		v := int((x >> 33) % int64(n))
		if v < 0 {
			v += n
		}
		return v
	}
	for v := 0; v < g.N(); v++ {
		times := make([]int, 8)
		costs := make([]int64, 8)
		for k := 0; k < 8; k++ {
			times[k] = 1 + next(6)
			costs[k] = int64(1 + next(30))
		}
		tab.MustSet(v, times, costs)
	}
	min, err := MinMakespan(g, tab)
	if err != nil {
		b.Fatal(err)
	}
	L := min + min/2
	pruned, collapsed := PruneDominated(tab)
	b.Logf("collapsed %d of %d options", collapsed, g.N()*8)
	b.Run("raw", func(b *testing.B) {
		p := Problem{Graph: g, Table: tab, Deadline: L}
		for i := 0; i < b.N; i++ {
			if _, err := Solve(p, AlgoTree); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pruned", func(b *testing.B) {
		p := Problem{Graph: g, Table: pruned, Deadline: L}
		for i := 0; i < b.N; i++ {
			if _, err := Solve(p, AlgoTree); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactParallel compares the serial and shared-bound parallel
// branch-and-bound on the RLS-Laguerre benchmark.
func BenchmarkExactParallel(b *testing.B) {
	p := benchProblem(b, "rls-laguerre", 3)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hap.Exact(p, hap.ExactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hap.ExactParallelCtx(context.Background(), p, hap.ExactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompileKernel times the expression frontend on the diffeq
// kernel source.
func BenchmarkCompileKernel(b *testing.B) {
	src := `
		u = u@1 - 3*x@1*(u@1*dx) - 3*y@1*dx
		x = x@1 + dx
		y = y@1 + u@1*dx
	`
	for i := 0; i < b.N; i++ {
		if _, err := CompileKernel(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullFlow times the complete hetsynthc pipeline (compile →
// assign → schedule → bind → Verilog) on the lattice kernel.
func BenchmarkFullFlow(b *testing.B) {
	src := `
		e1 = x - k1*b0@1
		b1 = b0@1 - k1*e1
		e2 = e1 - k2*b1
		b0 = b1 - k2*e2
	`
	for i := 0; i < b.N; i++ {
		if _, err := hls.Run(hls.Request{Source: src, Slack: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmitRTL times the Verilog backend on the elliptic filter.
func BenchmarkEmitRTL(b *testing.B) {
	p := benchProblem(b, "elliptic", 8)
	res, err := Synthesize(p, AlgoRepeat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EmitRTL(p.Graph, nil, res.Schedule, res.Config, RTLOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchExplore times the E19 design-space sweep on RLS-Laguerre.
func BenchmarkArchExplore(b *testing.B) {
	g, err := BenchmarkDFG("rls-laguerre")
	if err != nil {
		b.Fatal(err)
	}
	tab := RandomTable(2004, g.N(), 3)
	areas := []int64{60, 25, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExploreArchitectures(g, tab, areas, ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetiming times the extension: minimum-period retiming of the
// cyclic IIR cascade (E10 of DESIGN.md).
func BenchmarkRetiming(b *testing.B) {
	g, err := BenchmarkDFG("iir4")
	if err != nil {
		b.Fatal(err)
	}
	tab := RandomTable(11, g.N(), 3)
	times := make([]int, g.N())
	for v := range times {
		times[v] = tab.MinTime(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := retime.Minimize(g, times); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeFrontier times the whole-curve frontier extraction on the
// paper's tree benchmarks. The sparse DP produces the frontier as a
// byproduct of one solve, so this should track BenchmarkTreeAssign rather
// than multiply it by the number of frontier points.
func BenchmarkTreeFrontier(b *testing.B) {
	for _, name := range []string{"4-stage-lattice", "8-stage-lattice", "volterra"} {
		b.Run(name, func(b *testing.B) {
			p := benchProblem(b, name, 6)
			for i := 0; i < b.N; i++ {
				if _, err := hap.TreeFrontier(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeAssignParallel times the DP on synthetic trees large enough
// to cross the worker-pool threshold, where independent sibling subtrees are
// evaluated concurrently.
func BenchmarkTreeAssignParallel(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2004))
			g := dfg.RandomTree(rng, n)
			tab := RandomTable(2004, n, 3)
			min, err := MinMakespan(g, tab)
			if err != nil {
				b.Fatal(err)
			}
			p := Problem{Graph: g, Table: tab, Deadline: min + min/2 + 6}
			for i := 0; i < b.N; i++ {
				if _, err := hap.TreeAssign(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
