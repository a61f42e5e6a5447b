package sched

import (
	"container/heap"
	"fmt"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
)

// ListSchedule schedules the DAG portion of g under a FIXED configuration
// (the classic resource-constrained list scheduling the paper's §1 calls
// NP-complete): at each control step, ready nodes are packed into idle FU
// instances in priority order, and nodes that do not fit wait. Priority is
// the longest path from the node to any sink (critical-path priority),
// ties broken by node ID.
//
// Unlike MinRSchedule, the configuration never grows; the schedule length
// is whatever the resources allow. An error is returned when some node's FU
// type has zero instances in cfg.
//
// The ready list is indegree-tracked and heap-ordered: a node enters the
// pending heap the moment its last predecessor is placed (keyed by the step
// it becomes ready), and the ready heap yields nodes in exactly the classic
// (priority desc, id asc) order. Control steps where nothing can change —
// no node turns ready and no instance of a wanted type frees up — are
// skipped outright, so the cost is O(E + P log V) in the number of
// placement attempts P instead of the naive O(V·L + R² ) per-step scan and
// insertion sort. Schedules are bit-identical to the scan implementation
// (listScheduleScan, kept as the differential-test oracle).
//
// ListSchedule is the building block of rotation scheduling
// (internal/rotate) and of the configuration-search ablation.
func ListSchedule(g *dfg.Graph, tab *fu.Table, assign hap.Assignment, cfg Config) (*Schedule, error) {
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

	// Critical-path priority: longest execution-time path from v to a sink.
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
	// A generous horizon: serializing everything on one instance per type.
	horizon := 1
	for v := 0; v < n; v++ {
		horizon += times[v]
	}

	// Readiness tracking: indeg counts unplaced predecessors, readyAt
	// accumulates max(pred finish)+1 as predecessors are placed. A node joins
	// pending the moment its indegree hits zero — by then its ready step is
	// final — and moves to the ready heap when the clock reaches it.
	indeg := make([]int, n)
	readyAt := make([]int, n)
	pending := &stepHeap{readyAt: readyAt}
	ready := &prioHeap{prio: prio}
	for v := 0; v < n; v++ {
		indeg[v] = len(g.Pred(dfg.NodeID(v)))
		readyAt[v] = 1
		if indeg[v] == 0 {
			pending.ids = append(pending.ids, v)
		}
	}
	heap.Init(pending)

	remaining := n
	unplaced := make([]int, 0, n)
	wantType := make([]bool, len(cfg))
	for step := 1; step <= horizon && remaining > 0; {
		for pending.Len() > 0 && readyAt[pending.ids[0]] <= step {
			heap.Push(ready, heap.Pop(pending).(int))
		}
		// Highest priority first; nodes that do not fit wait for a free
		// instance of their type. The heap yields exactly the (prio desc,
		// id asc) order of the classic sorted ready list.
		unplaced = unplaced[:0]
		for ready.Len() > 0 {
			v := heap.Pop(ready).(int)
			t := assign[v]
			placed := false
			for i, busy := range busyUntil[t] {
				if busy < step {
					finish := step + times[v] - 1
					busyUntil[t][i] = finish
					s.Start[v] = step
					s.Instance[v] = i
					if finish > s.Length {
						s.Length = finish
					}
					remaining--
					placed = true
					for _, c := range g.Succ(dfg.NodeID(v)) {
						if finish+1 > readyAt[c] {
							readyAt[c] = finish + 1
						}
						indeg[c]--
						if indeg[c] == 0 {
							heap.Push(pending, int(c))
						}
					}
					break
				}
			}
			if !placed {
				unplaced = append(unplaced, v)
			}
		}
		for _, v := range unplaced {
			heap.Push(ready, v)
		}

		// Event-driven clock: jump to the next step where something can
		// change — a pending node turns ready, or an instance of a type some
		// waiting node needs frees up. (All instances of such a type are busy
		// through this step, so every candidate is strictly in the future.)
		next := horizon + 1
		if pending.Len() > 0 && readyAt[pending.ids[0]] < next {
			next = readyAt[pending.ids[0]]
		}
		if len(unplaced) > 0 {
			for t := range wantType {
				wantType[t] = false
			}
			for _, v := range unplaced {
				wantType[assign[v]] = true
			}
			for t, want := range wantType {
				if !want {
					continue
				}
				for _, busy := range busyUntil[t] {
					if busy+1 < next {
						next = busy + 1
					}
				}
			}
		}
		step = next
	}
	if remaining > 0 {
		// Unreachable: the horizon admits full serialization.
		return nil, fmt.Errorf("sched: internal error: %d nodes unscheduled within horizon", remaining)
	}
	if err := ValidateSchedule(g, s, cfg, s.Length); err != nil {
		return nil, fmt.Errorf("sched: internal error: %w", err)
	}
	return s, nil
}

// prioHeap orders ready nodes by (priority desc, id asc) — the exact total
// order of the classic sorted ready list, so heap pops reproduce it.
type prioHeap struct {
	ids  []int
	prio []int
}

func (h *prioHeap) Len() int { return len(h.ids) }
func (h *prioHeap) Less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	return h.prio[a] > h.prio[b] || (h.prio[a] == h.prio[b] && a < b)
}
func (h *prioHeap) Swap(i, j int) { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *prioHeap) Push(x any)    { h.ids = append(h.ids, x.(int)) }
func (h *prioHeap) Pop() any {
	v := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return v
}

// stepHeap orders pending nodes by the step they become ready (ties by id,
// for determinism; tied nodes enter the ready heap together anyway).
type stepHeap struct {
	ids     []int
	readyAt []int
}

func (h *stepHeap) Len() int { return len(h.ids) }
func (h *stepHeap) Less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	return h.readyAt[a] < h.readyAt[b] || (h.readyAt[a] == h.readyAt[b] && a < b)
}
func (h *stepHeap) Swap(i, j int) { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *stepHeap) Push(x any)    { h.ids = append(h.ids, x.(int)) }
func (h *stepHeap) Pop() any {
	v := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return v
}

// MinConfigSearch finds a configuration with the smallest total FU count
// whose list schedule meets deadline L, by growing one instance at a time:
// starting from one instance of every used type, it repeatedly adds the
// single instance that shrinks the list-schedule length the most, until the
// deadline holds or adding any instance stops helping. It exists as an
// ablation comparator for MinRSchedule (which interleaves the decision with
// scheduling instead of wrapping the scheduler in a search).
func MinConfigSearch(g *dfg.Graph, tab *fu.Table, assign hap.Assignment, L int) (*Schedule, Config, error) {
	times := hap.Times(tab, assign)
	_, asapLen, err := ASAP(g, times)
	if err != nil {
		return nil, nil, err
	}
	if asapLen > L {
		return nil, nil, fmt.Errorf("%w: critical path %d exceeds deadline %d", hap.ErrInfeasible, asapLen, L)
	}
	// counts[t] instances can never be exceeded usefully: one FU per node
	// of the type realizes the resource-free ASAP schedule.
	counts := make(Config, tab.K())
	for v := 0; v < g.N(); v++ {
		counts[assign[v]]++
	}
	cfg := make(Config, tab.K())
	for t := range cfg {
		if counts[t] > 0 {
			cfg[t] = 1
		}
	}
	s, err := ListSchedule(g, tab, assign, cfg)
	if err != nil {
		return nil, nil, err
	}
	// Add one instance at a time, taking the single addition with the
	// shortest resulting schedule. Progress is not guaranteed per step
	// (sometimes only a pair of additions helps), but the per-type caps
	// bound the loop, and at the caps the schedule equals ASAP <= L.
	for s.Length > L {
		bestT := -1
		var bestS *Schedule
		for t := 0; t < tab.K(); t++ {
			if cfg[t] >= counts[t] {
				continue
			}
			trial := cfg.Clone()
			trial[t]++
			ts, err := ListSchedule(g, tab, assign, trial)
			if err != nil {
				return nil, nil, err
			}
			if bestS == nil || ts.Length < bestS.Length {
				bestT, bestS = t, ts
			}
		}
		if bestT < 0 {
			// All caps reached yet still over L — contradicts asapLen <= L.
			return nil, nil, fmt.Errorf("sched: internal error: config search stuck at length %d > %d", s.Length, L)
		}
		cfg[bestT]++
		s = bestS
	}
	return s, cfg, nil
}
