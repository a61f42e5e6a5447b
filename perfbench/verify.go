package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
	"hetsynth/internal/sched"
	"hetsynth/internal/server"
)

// verifier checks answers against the generated inputs, off the timed
// path. It accumulates the cost-quality ratio over solve answers.
type verifier struct {
	w     Workload
	store *bodyStore

	mu      sync.Mutex
	exp     map[expKey]*expectation // per (instance, deadline), computed once
	seen    map[seenKey]verdict     // per (request identity, body)
	costSum int64
	lbSum   int64
	// Solver time the answers report, summed over result entries.
	elapsedMS float64
	results   int
	wrong     int
	errs      []error
}

type expKey struct {
	in       *Instance
	deadline int
}

type seenKey struct {
	in       *Instance
	deadline int
	kind     string
	body     int32
}

// expectation is what any correct answer for (instance, deadline) must
// satisfy beyond its own consistency: the proven cost lower bound and, for
// trees, the optimal cost the tree DP finds.
// verdict is a memoized check of one stateless answer.
type verdict struct {
	sum answerSum
	err error
}

type expectation struct {
	lb      int64
	optimal int64 // trees only; -1 otherwise
	err     error
}

func newVerifier(w Workload, store *bodyStore) *verifier {
	return &verifier{w: w, store: store, exp: map[expKey]*expectation{}, seen: map[seenKey]verdict{}}
}

// expect returns the expectation for (in, deadline), computing it once for
// the shared working-set instances; generated one-off instances are not
// memoized, so their graphs are freed as soon as they are checked.
func (v *verifier) expect(in *Instance, deadline int) *expectation {
	if in.Name == "" {
		return computeExpectation(in, deadline)
	}
	k := expKey{in, deadline}
	v.mu.Lock()
	e, ok := v.exp[k]
	v.mu.Unlock()
	if ok {
		return e
	}
	e = computeExpectation(in, deadline)
	v.mu.Lock()
	v.exp[k] = e
	v.mu.Unlock()
	return e
}

func computeExpectation(in *Instance, deadline int) *expectation {
	p := hap.Problem{Graph: in.Graph, Table: in.Table, Deadline: deadline}
	e := &expectation{optimal: -1}
	e.lb, e.err = hap.CostLowerBound(p)
	if e.err == nil && in.Tree {
		sol, err := hap.TreeAssign(p)
		if err != nil {
			e.err = err
		} else {
			e.optimal = sol.Cost
		}
	}
	return e
}

// fail records a wrong answer.
func (v *verifier) fail(s *sample, err error) {
	s.wrong = true
	v.mu.Lock()
	defer v.mu.Unlock()
	v.wrong++
	if len(v.errs) < 5 {
		v.errs = append(v.errs, fmt.Errorf("client %d request %d (%s): %w", s.client, s.idx, s.kind, err))
	}
}

func (v *verifier) add(a answerSum) {
	v.mu.Lock()
	v.costSum += a.cost
	v.lbSum += a.lb
	v.elapsedMS += a.elapsedMS
	v.results += a.n
	v.mu.Unlock()
}

// answerSum totals one answer's result entries.
type answerSum struct {
	cost, lb  int64
	elapsedMS float64
	n         int
}

func (a *answerSum) addResult(res *server.SolveResult, lb int64) {
	a.cost += res.Cost
	a.lb += lb
	a.elapsedMS += res.ElapsedMS
	a.n++
}

// costOverLB is Σ returned cost / Σ proven lower bound over solve answers.
func (v *verifier) costOverLB() float64 {
	if v.lbSum == 0 {
		return 0
	}
	return float64(v.costSum) / float64(v.lbSum)
}

// run verifies every 2xx sample, one goroutine per client (a client's
// samples are checked in send order, which session mirrors need). It
// returns the number of wrong answers.
func (v *verifier) run(samples [][]sample) int {
	var wg sync.WaitGroup
	for c := range samples {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var m *sessionMirror
			if hot, ok := v.w.(*sweepHot); ok {
				m = newSessionMirror(hot, c)
			}
			for i := range samples[c] {
				s := &samples[c][i]
				if !s.ok() {
					continue
				}
				r := v.w.Request(s.client, s.idx)
				if r.Kind == kindPatch {
					if err := m.apply(r.Op, v.store.get(s.body)); err != nil {
						v.fail(s, err)
					}
					continue
				}
				if err := v.checkOnce(r, s.body, s.kind); err != nil {
					v.fail(s, err)
				}
			}
		}(c)
	}
	wg.Wait()
	return v.wrong
}

// checkOnce verifies a stateless answer. Working-set answers are checked
// once per distinct (request, body) — replayed cached answers share one
// verdict — but every occurrence counts toward the totals.
func (v *verifier) checkOnce(r *Request, body int32, kind string) error {
	k := seenKey{r.Inst, r.Deadline, kind, body}
	memo := r.Inst.Name != ""
	v.mu.Lock()
	vd, done := v.seen[k]
	v.mu.Unlock()
	if !done || !memo {
		vd.sum, vd.err = v.checkStateless(r, v.store.get(body))
		if memo {
			v.mu.Lock()
			v.seen[k] = vd
			v.mu.Unlock()
		}
	}
	if vd.err == nil {
		v.add(vd.sum)
	}
	return vd.err
}

// decodeResults decodes a solve or batch answer into its results in entry
// order.
func decodeResults(r *Request, body []byte) ([]*server.SolveResult, error) {
	if r.Kind == kindBatch {
		var br server.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return nil, fmt.Errorf("decoding batch answer: %w", err)
		}
		if len(br.Results) != batchSize {
			return nil, fmt.Errorf("batch answered %d of %d entries", len(br.Results), batchSize)
		}
		out := make([]*server.SolveResult, batchSize)
		for i, e := range br.Results {
			if e.Result == nil {
				return nil, fmt.Errorf("batch entry %d failed: %d %s", i, e.Status, e.Error)
			}
			out[i] = e.Result
		}
		return out, nil
	}
	var resp *server.SolveResponse
	if r.Bin {
		var err error
		if resp, err = server.DecodeBinSolveResponse(body); err != nil {
			return nil, fmt.Errorf("decoding HSB1 answer: %w", err)
		}
	} else {
		resp = new(server.SolveResponse)
		if err := json.Unmarshal(body, resp); err != nil {
			return nil, fmt.Errorf("decoding answer: %w", err)
		}
	}
	return []*server.SolveResult{&resp.SolveResult}, nil
}

// checkStateless verifies a solve or batch answer and returns its totals.
func (v *verifier) checkStateless(r *Request, body []byte) (answerSum, error) {
	var sum answerSum
	results, err := decodeResults(r, body)
	if err != nil {
		return sum, err
	}
	for i, res := range results {
		d := r.Deadline + i
		e := v.expect(r.Inst, d)
		if e.err != nil {
			return sum, fmt.Errorf("deadline %d: expectation: %w", d, e.err)
		}
		if err := checkResult(r.Inst, d, r.Schedule, res, e); err != nil {
			if len(results) > 1 {
				err = fmt.Errorf("entry %d: %w", i, err)
			}
			return sum, err
		}
		sum.addResult(res, e.lb)
	}
	return sum, nil
}

// checkResult verifies one solve result for (in, deadline): the assignment
// covers every node with a valid type, its cost recomputed from the table
// and its longest path recomputed with dfg.LongestPath match the reported
// ones, the path meets the deadline, the cost is at least the proven lower
// bound (and equals the tree DP's optimum on trees), and a returned
// schedule passes sched.ValidateSchedule.
func checkResult(in *Instance, deadline int, schedule bool, res *server.SolveResult, e *expectation) error {
	if res.Deadline != deadline {
		return fmt.Errorf("answer for deadline %d, asked %d", res.Deadline, deadline)
	}
	a, times, err := assignmentOf(in.Table, res.Assignment)
	if err != nil {
		return err
	}
	if c := hap.CostOf(in.Table, a); c != res.Cost {
		return fmt.Errorf("reported cost %d, assignment costs %d", res.Cost, c)
	}
	length, _, err := in.Graph.LongestPath(times)
	if err != nil {
		return err
	}
	if length != res.Length {
		return fmt.Errorf("reported length %d, assignment's longest path is %d", res.Length, length)
	}
	if length > deadline {
		return fmt.Errorf("longest path %d misses deadline %d", length, deadline)
	}
	if res.Cost < e.lb {
		return fmt.Errorf("cost %d below the proven lower bound %d", res.Cost, e.lb)
	}
	if e.optimal >= 0 && res.Cost != e.optimal {
		return fmt.Errorf("tree answer costs %d, Tree_Assign finds %d", res.Cost, e.optimal)
	}
	if schedule {
		return checkSchedule(in.Graph, a, times, deadline, res.Schedule, in.Table.K())
	}
	return nil
}

// assignmentOf validates a wire assignment against the table and returns it
// with the per-node execution times it implies.
func assignmentOf(tab *fu.Table, wire []int) (hap.Assignment, []int, error) {
	if len(wire) != tab.N() {
		return nil, nil, fmt.Errorf("assignment covers %d of %d nodes", len(wire), tab.N())
	}
	a := make(hap.Assignment, len(wire))
	for v, k := range wire {
		if k < 0 || k >= tab.K() {
			return nil, nil, fmt.Errorf("node %d assigned type %d outside [0,%d)", v, k, tab.K())
		}
		a[v] = fu.TypeID(k)
	}
	return a, hap.Times(tab, a), nil
}

// checkSchedule validates a returned phase-2 schedule with
// sched.ValidateSchedule.
func checkSchedule(g *dfg.Graph, a hap.Assignment, times []int, deadline int, sp *server.SchedulePayload, k int) error {
	if sp == nil {
		return errors.New("schedule requested but not returned")
	}
	if len(sp.Config) != k {
		return fmt.Errorf("schedule config covers %d of %d types", len(sp.Config), k)
	}
	if len(sp.Start) != g.N() || len(sp.Instance) != g.N() {
		return fmt.Errorf("schedule covers %d/%d of %d nodes", len(sp.Start), len(sp.Instance), g.N())
	}
	s := &sched.Schedule{Assign: a, Start: sp.Start, Times: times, Instance: sp.Instance, Length: sp.Length}
	if err := sched.ValidateSchedule(g, s, sched.Config(sp.Config), deadline); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	return nil
}

// ---- sessions ----

// sessionMirror replays one client's session edits client-side: the
// graph never changes, rows and the deadline follow the committed PATCHes.
// Every session answer must cost what a from-scratch solve of the mirror
// finds. The mirror keeps one hap.FrontierSolver per table state, solved up
// to the highest deadline a patch can set, so a set_deadline answer costs a
// traceback and only a set_row answer a full tree DP.
type sessionMirror struct {
	in       *Instance
	deadline int
	horizon  int
	fs       *hap.FrontierSolver // nil after a set_row until the next check
}

func newSessionMirror(w *sweepHot, c int) *sessionMirror {
	d := w.sessionDeadline(c)
	return &sessionMirror{in: w.session(c), deadline: d, horizon: d + hotSlacks - 1}
}

// apply commits op to the mirror and checks the session's answer against
// it: consistent with the mirror's table, within its deadline, and as cheap
// as a fresh solve of the mirror.
func (m *sessionMirror) apply(op server.PatchOp, body []byte) error {
	switch op.Op {
	case "set_row":
		if err := m.in.Table.Set(*op.Node, op.Time, op.Cost); err != nil {
			return fmt.Errorf("mirror: %w", err)
		}
		m.fs = nil
	case "set_deadline":
		if op.Deadline > m.horizon {
			return fmt.Errorf("mirror: deadline %d beyond its horizon %d", op.Deadline, m.horizon)
		}
		m.deadline = op.Deadline
	default:
		return fmt.Errorf("mirror: unexpected op %q", op.Op)
	}
	var view server.SessionView
	if err := json.Unmarshal(body, &view); err != nil {
		return fmt.Errorf("decoding session view: %w", err)
	}
	if view.Infeasible || view.Result == nil {
		return errors.New("session reports no feasible answer; its deadline is safe by construction")
	}
	if m.fs == nil {
		fs, err := hap.NewFrontierSolver(hap.Problem{Graph: m.in.Graph, Table: m.in.Table, Deadline: m.horizon})
		if err != nil {
			return fmt.Errorf("mirror solve: %w", err)
		}
		m.fs = fs
	}
	sol, err := m.fs.SolveAt(m.deadline)
	if err != nil {
		return fmt.Errorf("mirror solve: %w", err)
	}
	e := &expectation{optimal: sol.Cost}
	if err := checkResult(m.in, m.deadline, false, view.Result, e); err != nil {
		return fmt.Errorf("session answer vs mirror: %w", err)
	}
	return nil
}
