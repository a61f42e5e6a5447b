package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
)

func TestListScheduleSerializesOnOneFU(t *testing.T) {
	g, tab := diamond()
	a := allZero(4)
	s, err := ListSchedule(g, tab, a, Config{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	// One unit-time FU: A, then B and C serialized, then D -> length 4.
	if s.Length != 4 {
		t.Fatalf("length = %d, want 4", s.Length)
	}
	if err := ValidateSchedule(g, s, Config{1, 0}, s.Length); err != nil {
		t.Fatal(err)
	}
}

func TestListScheduleParallelizesWithTwoFUs(t *testing.T) {
	g, tab := diamond()
	a := allZero(4)
	s, err := ListSchedule(g, tab, a, Config{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.Length != 3 {
		t.Fatalf("length = %d, want 3", s.Length)
	}
}

func TestListScheduleRejectsMissingType(t *testing.T) {
	g, tab := diamond()
	a := hap.Assignment{0, 1, 1, 0}
	if _, err := ListSchedule(g, tab, a, Config{2, 0}); err == nil {
		t.Fatal("config without the needed type accepted")
	}
	if _, err := ListSchedule(g, tab, a, Config{2}); err == nil {
		t.Fatal("short config accepted")
	}
	if _, err := ListSchedule(g, tab, hap.Assignment{0}, Config{2, 0}); err == nil {
		t.Fatal("short assignment accepted")
	}
}

func TestListScheduleCriticalPathPriority(t *testing.T) {
	// Two ready nodes, one FU: the one heading the longer chain must go
	// first. Graph: a->b->c (chain) and x (isolated), all unit-time.
	g := dfg.New()
	a := g.MustAddNode("a", "")
	b := g.MustAddNode("b", "")
	c := g.MustAddNode("c", "")
	g.MustAddNode("x", "")
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, c, 0)
	tab := fu.UniformTable(4, []int{1}, []int64{1})
	s, err := ListSchedule(g, tab, make(hap.Assignment, 4), Config{1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] != 1 {
		t.Fatalf("chain head scheduled at %d, want 1 (priority)", s.Start[0])
	}
	if s.Length != 4 {
		t.Fatalf("length = %d, want 4", s.Length)
	}
}

func TestListScheduleMatchesUnboundedASAPWithAmpleResources(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := dfg.RandomDAG(rng, n, 0.3)
		tab := fu.RandomTable(rng, n, 2)
		a := make(hap.Assignment, n)
		for v := range a {
			a[v] = fu.TypeID(rng.Intn(2))
		}
		cfg := Config{n, n} // one FU per node: no contention
		s, err := ListSchedule(g, tab, a, cfg)
		if err != nil {
			return false
		}
		_, asapLen, err := ASAP(g, hap.Times(tab, a))
		if err != nil {
			return false
		}
		return s.Length == asapLen
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestListScheduleMonotoneInResources(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := dfg.RandomDAG(rng, n, 0.25)
		tab := fu.RandomTable(rng, n, 2)
		a := make(hap.Assignment, n)
		for v := range a {
			a[v] = fu.TypeID(rng.Intn(2))
		}
		s1, err := ListSchedule(g, tab, a, Config{1, 1})
		if err != nil {
			return false
		}
		s2, err := ListSchedule(g, tab, a, Config{n, n})
		if err != nil {
			return false
		}
		return s2.Length <= s1.Length
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMinConfigSearchMeetsDeadline(t *testing.T) {
	g, tab := diamond()
	a := allZero(4)
	s, cfg, err := MinConfigSearch(g, tab, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Length > 3 {
		t.Fatalf("length %d > 3", s.Length)
	}
	if cfg[0] != 2 {
		t.Fatalf("cfg = %v, want 2 of type 0", cfg)
	}
	// Loose deadline: one FU suffices.
	s, cfg, err = MinConfigSearch(g, tab, a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg[0] != 1 || s.Length > 4 {
		t.Fatalf("cfg = %v length %d, want 1 FU within 4", cfg, s.Length)
	}
}

func TestMinConfigSearchInfeasible(t *testing.T) {
	g, tab := diamond()
	a := allZero(4) // critical path 3
	if _, _, err := MinConfigSearch(g, tab, a, 2); !errors.Is(err, hap.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

// TestMinRScheduleVsConfigSearch cross-validates the paper's phase-2
// algorithm against the search-based comparator: both must meet the
// deadline, and Min_R must never need more total FUs than the search plus
// slack 1 (they explore different packings, so exact equality is not
// guaranteed; a large systematic excess would flag a regression).
func TestMinRScheduleVsConfigSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	worse := 0
	trials := 0
	for trials < 60 {
		n := 3 + rng.Intn(10)
		g := dfg.RandomDAG(rng, n, 0.3)
		tab := fu.RandomTable(rng, n, 2)
		a := make(hap.Assignment, n)
		for v := range a {
			a[v] = fu.TypeID(rng.Intn(2))
		}
		length, _, err := g.LongestPath(hap.Times(tab, a))
		if err != nil {
			t.Fatal(err)
		}
		L := length + rng.Intn(3)
		_, cfgMinR, err := MinRSchedule(g, tab, a, L)
		if err != nil {
			t.Fatal(err)
		}
		_, cfgSearch, err := MinConfigSearch(g, tab, a, L)
		if err != nil {
			t.Fatal(err)
		}
		if cfgMinR.Total() > cfgSearch.Total() {
			worse++
		}
		trials++
	}
	if worse > trials/4 {
		t.Fatalf("Min_R needed more FUs than config search in %d/%d trials", worse, trials)
	}
}

// TestListScheduleDifferentialVsScan proves the heap-based ListSchedule is
// bit-identical to the original per-step scan implementation — same starts,
// same instance bindings, same length — across random DFGs, assignments and
// configurations (including scarce ones that force long waits).
func TestListScheduleDifferentialVsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(16)
		var g *dfg.Graph
		if trial%3 == 0 {
			g = dfg.RandomTree(rng, n)
		} else {
			g = dfg.RandomDAG(rng, n, 0.15+rng.Float64()*0.35)
		}
		k := 2 + rng.Intn(2)
		tab := fu.RandomTable(rng, n, k)
		a := make(hap.Assignment, n)
		for v := range a {
			a[v] = fu.TypeID(rng.Intn(k))
		}
		cfg := make(Config, k)
		for tt := range cfg {
			cfg[tt] = 1 + rng.Intn(3) // scarce: waits and ties are exercised
		}
		got, err := ListSchedule(g, tab, a, cfg)
		want, errScan := listScheduleScan(g, tab, a, cfg)
		if (err == nil) != (errScan == nil) {
			t.Fatalf("trial %d: heap err %v, scan err %v", trial, err, errScan)
		}
		if err != nil {
			continue
		}
		if got.Length != want.Length {
			t.Fatalf("trial %d: heap length %d, scan length %d", trial, got.Length, want.Length)
		}
		for v := 0; v < n; v++ {
			if got.Start[v] != want.Start[v] || got.Instance[v] != want.Instance[v] {
				t.Fatalf("trial %d node %d: heap (start %d, inst %d), scan (start %d, inst %d)",
					trial, v, got.Start[v], got.Instance[v], want.Start[v], want.Instance[v])
			}
		}
	}
}

// listScheduleScan is the original O(V) per-step implementation: scan all
// nodes for readiness each control step, insertion-sort the ready list, pack
// greedily. It is retained verbatim as the differential oracle ListSchedule
// is tested against — the two must produce bit-identical schedules.
func listScheduleScan(g *dfg.Graph, tab *fu.Table, assign hap.Assignment, cfg Config) (*Schedule, error) {
	if len(assign) != g.N() {
		return nil, fmt.Errorf("sched: assignment covers %d nodes, graph has %d", len(assign), g.N())
	}
	if len(cfg) != tab.K() {
		return nil, fmt.Errorf("sched: config covers %d types, table has %d", len(cfg), tab.K())
	}
	times := hap.Times(tab, assign)
	for v := 0; v < g.N(); v++ {
		if cfg[assign[v]] < 1 {
			return nil, fmt.Errorf("sched: node %s needs type %d but config %v has none",
				g.Node(dfg.NodeID(v)).Name, assign[v], cfg)
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	prio := make([]int, g.N())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		prio[v] = times[v]
		for _, c := range g.Succ(v) {
			if p := prio[c] + times[v]; p > prio[v] {
				prio[v] = p
			}
		}
	}

	n := g.N()
	busyUntil := make([][]int, len(cfg))
	for t := range cfg {
		busyUntil[t] = make([]int, cfg[t])
	}
	s := &Schedule{
		Assign:   assign.Clone(),
		Start:    make([]int, n),
		Times:    times,
		Instance: make([]int, n),
	}
	remaining := n
	horizon := 1
	for v := 0; v < n; v++ {
		horizon += times[v]
	}
	for step := 1; step <= horizon && remaining > 0; step++ {
		var ready []int
		for v := 0; v < n; v++ {
			if s.Start[v] != 0 {
				continue
			}
			ok := true
			for _, u := range g.Pred(dfg.NodeID(v)) {
				if s.Start[u] == 0 || s.Start[u]+times[u]-1 >= step {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, v)
			}
		}
		for i := 1; i < len(ready); i++ {
			for j := i; j > 0; j-- {
				a, b := ready[j-1], ready[j]
				if prio[a] > prio[b] || (prio[a] == prio[b] && a < b) {
					break
				}
				ready[j-1], ready[j] = b, a
			}
		}
		for _, v := range ready {
			t := assign[v]
			for i, busy := range busyUntil[t] {
				if busy < step {
					busyUntil[t][i] = step + times[v] - 1
					s.Start[v] = step
					s.Instance[v] = i
					if f := step + times[v] - 1; f > s.Length {
						s.Length = f
					}
					remaining--
					break
				}
			}
		}
	}
	if remaining > 0 {
		return nil, fmt.Errorf("sched: internal error: %d nodes unscheduled within horizon", remaining)
	}
	if err := ValidateSchedule(g, s, cfg, s.Length); err != nil {
		return nil, fmt.Errorf("sched: internal error: %w", err)
	}
	return s, nil
}
