package sim

import (
	"errors"
	"fmt"
	"sort"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
)

// PeriodicTask is one periodic DAG job stream for hyperperiod simulation:
// the task's graph, its time/cost table, the assignment admission chose for
// it, and its period and relative deadline (in control steps). Precedence
// within a job is the zero-delay DAG portion, matching the assignment
// solvers; delayed edges are inter-iteration and ignored here.
type PeriodicTask struct {
	Graph    *dfg.Graph
	Table    *fu.Table
	Assign   hap.Assignment
	Period   int
	Deadline int
}

// PlacedTask couples a periodic task with where admission put it: a heavy
// task executes on its own dedicated Partition (FU instances per type,
// work-conserving typed list scheduling); a light task shares serialized
// Channel c with every other task of that channel (one node in flight per
// channel, deadline-monotonic arbitration at node boundaries).
type PlacedTask struct {
	Task      PeriodicTask
	Heavy     bool
	Partition []int
	Channel   int
}

// PeriodicReport is the outcome of a hyperperiod simulation.
type PeriodicReport struct {
	Horizon int // simulated steps (the hyperperiod)
	Jobs    int // job releases simulated
	Missed  int // jobs finishing after their absolute deadline
	// WorstResponse is the largest observed response time per task, in
	// placed-task order (0 for tasks that released no job).
	WorstResponse []int
}

// maxHyperperiod bounds the simulated horizon; harmonic task sets used by
// the differential tests stay far below it.
const maxHyperperiod = 1 << 22

// Hyperperiod returns the least common multiple of the tasks' periods, the
// natural simulation horizon of a synchronous periodic release pattern. It
// fails when the LCM exceeds maxHyperperiod (arbitrary-period sets can
// explode; simulate those piecewise).
func Hyperperiod(tasks []PlacedTask) (int, error) {
	h := 1
	for i, pt := range tasks {
		p := pt.Task.Period
		if p < 1 {
			return 0, fmt.Errorf("sim: task %d has non-positive period %d", i, p)
		}
		g := gcdInt(h, p)
		if h/g > maxHyperperiod/p {
			return 0, fmt.Errorf("sim: hyperperiod exceeds %d", maxHyperperiod)
		}
		h = h / g * p
	}
	return h, nil
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// SimulatePeriodic executes every job released in one synchronous
// hyperperiod and reports deadline misses: heavy tasks are list-scheduled
// on their dedicated typed partitions, light tasks are serialized per
// channel under deadline-monotonic node-boundary arbitration. The
// simulation is the ground truth the rta package's analytical admission is
// differentially tested against — an admitted placement must report zero
// misses. O(total node executions · log) per channel plus O(jobs · graph)
// for heavy tasks.
// hetsynth:keep perfbench; ground truth for the rta differential tests
func SimulatePeriodic(tasks []PlacedTask) (PeriodicReport, error) {
	if len(tasks) == 0 {
		return PeriodicReport{}, errors.New("sim: no placed tasks")
	}
	h, err := Hyperperiod(tasks)
	if err != nil {
		return PeriodicReport{}, err
	}
	rep := PeriodicReport{Horizon: h, WorstResponse: make([]int, len(tasks))}
	channels := map[int][]int{} // channel -> placed-task indices
	for i, pt := range tasks {
		t := pt.Task
		if len(t.Assign) != t.Graph.N() {
			return PeriodicReport{}, fmt.Errorf("sim: task %d assignment covers %d of %d nodes", i, len(t.Assign), t.Graph.N())
		}
		if t.Deadline < 1 || t.Deadline > t.Period {
			return PeriodicReport{}, fmt.Errorf("sim: task %d deadline %d not in [1, period %d]", i, t.Deadline, t.Period)
		}
		if pt.Heavy {
			if err := simulateHeavy(&rep, i, pt, h); err != nil {
				return PeriodicReport{}, err
			}
		} else {
			channels[pt.Channel] = append(channels[pt.Channel], i)
		}
	}
	var chIDs []int
	for c := range channels {
		chIDs = append(chIDs, c)
	}
	sort.Ints(chIDs)
	for _, c := range chIDs {
		if err := simulateChannel(&rep, tasks, channels[c], h); err != nil {
			return PeriodicReport{}, err
		}
	}
	return rep, nil
}

// simulateHeavy runs every release of one heavy task on its dedicated
// partition with a work-conserving typed list scheduler (ready nodes start
// lowest-ID first whenever an FU of their type is free). Jobs are
// independent: the partition is dedicated and a job that meets its
// constrained deadline finishes before the next release.
func simulateHeavy(rep *PeriodicReport, ti int, pt PlacedTask, horizon int) error {
	t := pt.Task
	if len(pt.Partition) != t.Table.K() {
		return fmt.Errorf("sim: task %d partition covers %d of %d types", ti, len(pt.Partition), t.Table.K())
	}
	for v, ty := range t.Assign {
		if pt.Partition[ty] < 1 {
			return fmt.Errorf("sim: task %d node %d assigned type %d with no dedicated FU", ti, v, ty)
		}
	}
	makespan, err := listMakespan(t.Graph, t.Table, t.Assign, pt.Partition)
	if err != nil {
		return err
	}
	for r := 0; r < horizon; r += t.Period {
		rep.Jobs++
		if makespan > t.Deadline {
			rep.Missed++
		}
		if makespan > rep.WorstResponse[ti] {
			rep.WorstResponse[ti] = makespan
		}
	}
	return nil
}

// listMakespan list-schedules one DAG job on a typed partition and returns
// its makespan: at every step each free FU of type k picks the ready
// unstarted node of that type with the lowest ID, nodes run
// non-preemptively for their assigned time.
func listMakespan(g *dfg.Graph, tab *fu.Table, assign hap.Assignment, part []int) (int, error) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.Pred(dfg.NodeID(v)))
	}
	free := append([]int(nil), part...)
	ready := make([]int, 0, n) // kept sorted ascending
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	type run struct{ finish, node int }
	var running []run // unsorted; scanned for min finish
	started, makespan, now := 0, 0, 0
	for started < n || len(running) > 0 {
		// Start every ready node that has a free FU of its type.
		for i := 0; i < len(ready); {
			v := ready[i]
			ty := assign[v]
			if free[ty] > 0 {
				free[ty]--
				w := tab.Time[v][ty]
				running = append(running, run{finish: now + w, node: v})
				started++
				ready = append(ready[:i], ready[i+1:]...)
			} else {
				i++
			}
		}
		if len(running) == 0 {
			if started < n {
				return 0, errors.New("sim: list scheduler stalled (cyclic zero-delay precedence?)")
			}
			break
		}
		// Advance to the earliest finish; complete everything due then.
		next := running[0].finish
		for _, r := range running[1:] {
			if r.finish < next {
				next = r.finish
			}
		}
		now = next
		for i := 0; i < len(running); {
			if running[i].finish == now {
				v := running[i].node
				free[assign[v]]++
				if now > makespan {
					makespan = now
				}
				for _, s := range g.Succ(dfg.NodeID(v)) {
					indeg[s]--
					if indeg[s] == 0 {
						ready = insertSorted(ready, int(s))
					}
				}
				running = append(running[:i], running[i+1:]...)
			} else {
				i++
			}
		}
	}
	return makespan, nil
}

// insertSorted inserts v into ascending-sorted xs.
func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// chanJob is one released job of a channel member during simulation.
type chanJob struct {
	member  int // index into the channel's member list
	release int
	dl      int // absolute deadline
	indeg   []int
	ready   []int // ready unrun node IDs, sorted ascending
	left    int   // nodes not yet completed
}

// simulateChannel serializes every job of the channel's member tasks: at
// each node boundary the pending job with the highest deadline-monotonic
// priority (ties: smaller period, lower task index, earlier release) runs
// its lowest-ID ready node to completion on the channel's FU of that type.
func simulateChannel(rep *PeriodicReport, tasks []PlacedTask, memberIdx []int, horizon int) error {
	// Priority order of members: deadline-monotonic.
	prio := append([]int(nil), memberIdx...)
	sort.Slice(prio, func(a, b int) bool {
		ta, tb := tasks[prio[a]].Task, tasks[prio[b]].Task
		if ta.Deadline != tb.Deadline {
			return ta.Deadline < tb.Deadline
		}
		if ta.Period != tb.Period {
			return ta.Period < tb.Period
		}
		return prio[a] < prio[b]
	})
	rank := map[int]int{}
	for r, ti := range prio {
		rank[ti] = r
	}

	// All releases in the hyperperiod, as a time-ordered list.
	type release struct{ at, ti int }
	var rels []release
	for _, ti := range memberIdx {
		t := tasks[ti].Task
		for r := 0; r < horizon; r += t.Period {
			rels = append(rels, release{at: r, ti: ti})
		}
	}
	sort.Slice(rels, func(a, b int) bool {
		if rels[a].at != rels[b].at {
			return rels[a].at < rels[b].at
		}
		return rank[rels[a].ti] < rank[rels[b].ti]
	})

	var pending []*chanJob // released, unfinished
	now, nextRel := 0, 0
	admitReleases := func() {
		for nextRel < len(rels) && rels[nextRel].at <= now {
			ti := rels[nextRel].ti
			t := tasks[ti].Task
			j := &chanJob{member: ti, release: rels[nextRel].at, dl: rels[nextRel].at + t.Deadline, left: t.Graph.N()}
			j.indeg = make([]int, t.Graph.N())
			for v := 0; v < t.Graph.N(); v++ {
				j.indeg[v] = len(t.Graph.Pred(dfg.NodeID(v)))
				if j.indeg[v] == 0 {
					j.ready = append(j.ready, v)
				}
			}
			pending = append(pending, j)
			nextRel++
		}
	}
	finish := func(j *chanJob) {
		resp := now - j.release
		rep.Jobs++
		if now > j.dl {
			rep.Missed++
		}
		if resp > rep.WorstResponse[j.member] {
			rep.WorstResponse[j.member] = resp
		}
	}
	for nextRel < len(rels) || len(pending) > 0 {
		admitReleases()
		if len(pending) == 0 {
			now = rels[nextRel].at // idle until the next release
			continue
		}
		// Highest-priority pending job (earlier release breaks same-task ties).
		best := 0
		for i := 1; i < len(pending); i++ {
			a, b := pending[i], pending[best]
			if rank[a.member] < rank[b.member] || (a.member == b.member && a.release < b.release) {
				best = i
			}
		}
		j := pending[best]
		v := j.ready[0]
		j.ready = j.ready[1:]
		t := tasks[j.member].Task
		now += t.Table.Time[v][t.Assign[v]] // the channel runs one node at a time
		for _, s := range t.Graph.Succ(dfg.NodeID(v)) {
			j.indeg[s]--
			if j.indeg[s] == 0 {
				j.ready = insertSorted(j.ready, int(s))
			}
		}
		j.left--
		if j.left == 0 {
			finish(j)
			pending = append(pending[:best], pending[best+1:]...)
		}
	}
	return nil
}
