package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"hetsynth/internal/canon"
	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
)

// maxPatchOps bounds the delta count of a single PATCH; a client that wants
// to replace more of the instance than this re-PUTs it instead.
const maxPatchOps = 4096

// PatchRequest is the JSON body of PATCH /v1/instances/{id}: an ordered list
// of deltas applied atomically — either every op validates and the whole
// patch commits (and is re-solved), or the session state is left exactly as
// it was and the response is a 400 naming the offending op.
type PatchRequest struct {
	Ops []PatchOp `json:"ops"`
	// TimeoutMS overrides the session's compute budget for this patch's
	// re-solve; 0 inherits the budget set at session creation.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// PatchOp is one session delta. Op selects the variant and which fields are
// read:
//
//   - "set_row": replace node Node's (time, cost) row with Time/Cost
//     (exactly K entries each, times >= 1, costs >= 0);
//   - "add_edge": append an edge From -> To carrying Delays delays;
//   - "remove_edge": delete the first current edge From -> To (its delay
//     count is taken from the edge itself);
//   - "set_deadline": retarget the deadline to Deadline.
//
// Deltas never add nodes or FU types — that is a new instance; re-PUT it.
type PatchOp struct {
	Op string `json:"op"`

	Node *int    `json:"node,omitempty"`
	Time []int   `json:"time,omitempty"`
	Cost []int64 `json:"cost,omitempty"`

	From   *int `json:"from,omitempty"`
	To     *int `json:"to,omitempty"`
	Delays int  `json:"delays,omitempty"`

	Deadline int `json:"deadline,omitempty"`
}

// SessionView is the wire representation of a session, returned by PUT,
// PATCH and GET on /v1/instances/{id} and carried in SSE "state" frames.
// Digest is the canonical instance digest of the session's current
// graph+table — byte-identical to what a stateless solve of the equivalent
// whole instance would digest — and RequestDigest additionally folds in the
// deadline and algorithm. Source says how the last answer was produced:
// "incremental" (the live tree DP re-solved only the Recomputed dirty
// curves) or "solve" (a from-scratch run). Infeasible marks a committed
// state whose deadline no assignment can meet; Result is then omitted.
type SessionView struct {
	ID            string       `json:"id"`
	Gen           int64        `json:"gen"`
	Digest        string       `json:"digest"`
	RequestDigest string       `json:"request_digest"`
	Algorithm     string       `json:"algorithm"`
	Deadline      int          `json:"deadline"`
	Nodes         int          `json:"nodes"`
	Edges         int          `json:"edges"`
	Tree          bool         `json:"tree"`
	Infeasible    bool         `json:"infeasible"`
	Source        string       `json:"source"`
	Recomputed    int          `json:"recomputed"`
	Result        *SolveResult `json:"result,omitempty"`
	Subscribers   int          `json:"subscribers"`
}

// session is one stateful instance: the materialized graph/table/deadline,
// the retained canonical encoding that digests deltas in place, and — for
// tree-shaped instances under a tree-capable algorithm — a live
// hap.IncrementalSolver that re-solves patches in O(dirty ancestor paths).
type session struct {
	id       string
	algoName string
	algo     hap.Algorithm
	anytime  bool
	timeout  int // sticky compute budget from the PUT body (ms); 0 = server default

	// ctx parents every solve the session runs; cancel fires at eviction with
	// cause errSessionEvicted, so an in-flight ladder dies with its session
	// instead of outliving it, and its request answers 404, not 499.
	ctx    context.Context
	cancel context.CancelCauseFunc

	// opMu serializes whole operations: staging, solver mutation and commit
	// run under it, so the state below is only ever touched by one PATCH (or
	// the eviction teardown) at a time. Readers (GET, SSE, the janitor) never
	// touch these fields — they read the mu-guarded view mirror instead.
	// Lock order: opMu before mu.
	opMu     sync.Mutex
	gen      int64
	nodes    []dfg.Node
	edges    []dfg.Edge
	graph    *dfg.Graph
	table    *fu.Table
	deadline int
	enc      *canon.InstanceEnc
	inc      *hap.IncrementalSolver // live tree DP; nil when shape or algorithm rules it out
	pinKey   string                 // frontier-cache key this session pins; "" = none

	mu       sync.Mutex
	view     SessionView // guarded by mu
	subs     []*sseSub   // guarded by mu
	lastUsed time.Time   // guarded by mu
	evicted  bool        // guarded by mu
}

// touch refreshes the session's idle clock; every handler that resolves the
// session calls it, so TTL eviction measures true client inactivity.
func (ss *session) touch() {
	ss.mu.Lock()
	ss.lastUsed = time.Now()
	ss.mu.Unlock()
}

// idleSince reports when the session was last touched.
func (ss *session) idleSince() time.Time {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastUsed
}

// isEvicted reports whether eviction has begun for this session.
func (ss *session) isEvicted() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.evicted
}

// beginEvict marks the session evicted exactly once and detaches its
// subscriber list for the terminal frame; the second and later callers get
// (nil, false) and must not tear anything down.
func (ss *session) beginEvict() ([]*sseSub, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.evicted {
		return nil, false
	}
	ss.evicted = true
	subs := ss.subs
	ss.subs = nil
	return subs, true
}

// currentView returns the last committed view plus the live subscriber
// count.
func (ss *session) currentView() SessionView {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	v := ss.view
	v.Subscribers = len(ss.subs)
	return v
}

// publishView installs the committed view and refreshes the idle clock.
func (ss *session) publishView(v SessionView) {
	ss.mu.Lock()
	ss.view = v
	ss.lastUsed = time.Now()
	ss.mu.Unlock()
}

// ---- session store ----

// sessionStore maps instance ids to live sessions.
type sessionStore struct {
	mu sync.Mutex
	m  map[string]*session // guarded by mu
}

func newSessionStore() *sessionStore {
	return &sessionStore{m: make(map[string]*session)}
}

func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.m[id]
	return ss, ok
}

// put installs ss under id and returns the session it replaced, if any.
func (st *sessionStore) put(id string, ss *session) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.m[id]
	st.m[id] = ss
	return old
}

// remove deletes id only while it still maps to ss, so evicting a replaced
// session never drops its successor.
func (st *sessionStore) remove(id string, ss *session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.m[id] == ss {
		delete(st.m, id)
	}
}

func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// all snapshots the live sessions (janitor sweeps and shutdown iterate the
// snapshot, never the map, so eviction can re-enter the store freely).
func (st *sessionStore) all() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*session, 0, len(st.m))
	for _, ss := range st.m {
		out = append(out, ss)
	}
	return out
}

// validSessionID bounds instance ids to a filesystem/URL-safe charset.
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// treeAlgo reports whether the algorithm treats tree-shaped instances
// through the optimal tree DP — the same rule solveSpec.tree uses — and so
// whether a session may answer through its IncrementalSolver.
func treeAlgo(name string) bool {
	return name == "auto" || name == "tree" || name == "anytime"
}

// ---- staging ----

type rowEdit struct {
	times []int
	costs []int64
}

// incOp is one validated delta in patch order, replayable onto a live
// IncrementalSolver.
type incOp struct {
	kind     string // "row", "add", "remove", "deadline"
	node     int
	row      rowEdit
	u, v     dfg.NodeID
	delays   int
	deadline int
}

// stagedPatch is a fully validated patch: the post-patch edge list, graph
// and deadline, the last-wins row edits, and the ordered op replay for the
// incremental solver. Nothing in it aliases mutable session state except
// graph/edges when the patch had no structural ops.
type stagedPatch struct {
	rows       map[int]rowEdit
	incOps     []incOp
	edges      []dfg.Edge
	structural bool
	graph      *dfg.Graph
	deadline   int
	treeOK     bool // post-patch shape + algorithm admit the tree DP

	tab *fu.Table // lazily materialized post-patch table
}

// stagedTable returns the post-patch table: base itself when the patch has
// no row edits, otherwise a clone with the edits applied.
func (st *stagedPatch) stagedTable(base *fu.Table) *fu.Table {
	if st.tab != nil {
		return st.tab
	}
	if len(st.rows) == 0 {
		st.tab = base
		return base
	}
	st.tab = base.Clone()
	for v, re := range st.rows {
		st.tab.MustSet(v, re.times, re.costs)
	}
	return st.tab
}

// buildSessionGraph materializes a dfg.Graph from a session's node set and
// an edge list, validating the zero-delay portion is acyclic.
func buildSessionGraph(nodes []dfg.Node, edges []dfg.Edge) (*dfg.Graph, error) {
	g := dfg.New()
	g.Grow(len(nodes), len(edges))
	for _, nd := range nodes {
		g.MustAddNode(nd.Name, nd.Op)
	}
	for _, e := range edges {
		if err := g.AddEdge(e.From, e.To, e.Delays); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// stage validates ops against the session's current state and builds the
// post-patch state without touching the session: a 400 here is guaranteed
// to leave the instance exactly as it was. The caller holds opMu.
func (ss *session) stage(ops []PatchOp) (*stagedPatch, *apiError) {
	st := &stagedPatch{deadline: ss.deadline}
	edges := ss.edges
	n := len(ss.nodes)
	k := ss.table.K()
	for i, op := range ops {
		switch op.Op {
		case "set_row":
			if op.Node == nil {
				return nil, badRequest("ops[%d]: set_row requires node", i)
			}
			v := *op.Node
			if v < 0 || v >= n {
				return nil, badRequest("ops[%d]: node %d out of range [0,%d)", i, v, n)
			}
			if len(op.Time) != k || len(op.Cost) != k {
				return nil, badRequest("ops[%d]: row has %d/%d entries, want %d", i, len(op.Time), len(op.Cost), k)
			}
			for j := 0; j < k; j++ {
				if op.Time[j] < 1 || op.Time[j] > maxTableEntry {
					return nil, badRequest("ops[%d]: time %d for type %d outside [1,%d]", i, op.Time[j], j, int64(maxTableEntry))
				}
				if op.Cost[j] < 0 || op.Cost[j] > maxTableEntry {
					return nil, badRequest("ops[%d]: cost %d for type %d outside [0,%d]", i, op.Cost[j], j, int64(maxTableEntry))
				}
			}
			re := rowEdit{
				times: append([]int(nil), op.Time...),
				costs: append([]int64(nil), op.Cost...),
			}
			if st.rows == nil {
				st.rows = make(map[int]rowEdit)
			}
			st.rows[v] = re
			st.incOps = append(st.incOps, incOp{kind: "row", node: v, row: re})
		case "add_edge":
			if op.From == nil || op.To == nil {
				return nil, badRequest("ops[%d]: add_edge requires from and to", i)
			}
			u, v := *op.From, *op.To
			if u < 0 || u >= n || v < 0 || v >= n {
				return nil, badRequest("ops[%d]: edge (%d,%d) references unknown node", i, u, v)
			}
			if op.Delays < 0 || op.Delays > maxDeadline {
				return nil, badRequest("ops[%d]: edge delays %d outside [0,%d]", i, op.Delays, maxDeadline)
			}
			if u == v && op.Delays == 0 {
				return nil, badRequest("ops[%d]: zero-delay self-loop on node %d", i, u)
			}
			if !st.structural {
				edges = append([]dfg.Edge(nil), edges...)
				st.structural = true
			}
			edges = append(edges, dfg.Edge{From: dfg.NodeID(u), To: dfg.NodeID(v), Delays: op.Delays})
			st.incOps = append(st.incOps, incOp{kind: "add", u: dfg.NodeID(u), v: dfg.NodeID(v), delays: op.Delays})
		case "remove_edge":
			if op.From == nil || op.To == nil {
				return nil, badRequest("ops[%d]: remove_edge requires from and to", i)
			}
			u, v := *op.From, *op.To
			if u < 0 || u >= n || v < 0 || v >= n {
				return nil, badRequest("ops[%d]: edge (%d,%d) references unknown node", i, u, v)
			}
			if !st.structural {
				edges = append([]dfg.Edge(nil), edges...)
				st.structural = true
			}
			idx := -1
			for j, e := range edges {
				if e.From == dfg.NodeID(u) && e.To == dfg.NodeID(v) {
					idx = j
					break
				}
			}
			if idx < 0 {
				return nil, badRequest("ops[%d]: no edge (%d,%d) to remove", i, u, v)
			}
			removed := edges[idx]
			edges = append(edges[:idx], edges[idx+1:]...)
			st.incOps = append(st.incOps, incOp{kind: "remove", u: dfg.NodeID(u), v: dfg.NodeID(v), delays: removed.Delays})
		case "set_deadline":
			if op.Deadline < 1 || op.Deadline > maxDeadline {
				return nil, badRequest("ops[%d]: deadline %d outside [1,%d]", i, op.Deadline, maxDeadline)
			}
			st.deadline = op.Deadline
			st.incOps = append(st.incOps, incOp{kind: "deadline", deadline: op.Deadline})
		default:
			return nil, badRequest("ops[%d]: unknown op %q (want set_row, add_edge, remove_edge or set_deadline)", i, op.Op)
		}
	}
	st.edges = edges
	if st.structural {
		g, err := buildSessionGraph(ss.nodes, edges)
		if err != nil {
			return nil, badRequest("patched graph invalid: %v", err)
		}
		st.graph = g
	} else {
		st.graph = ss.graph
	}
	st.treeOK = treeAlgo(ss.algoName) && (st.graph.IsOutForest() || st.graph.IsInForest())
	return st, nil
}

// ---- solving ----

// solveOut is the outcome of a session (re-)solve headed for commit.
type solveOut struct {
	res        *SolveResult
	source     string
	recomputed int
	infeasible bool
}

// reconcileInc brings the session's incremental solver in line with the
// staged patch: replay the deltas when the post-patch shape still admits
// the tree DP, rebuild the solver from the staged state when replay cannot
// express the change (e.g. the forest orientation flipped), and drop it
// when the instance stopped being a tree. Runs under ss.opMu.
func (s *Server) reconcileInc(ss *session, st *stagedPatch) {
	if st == nil {
		return
	}
	if ss.inc != nil {
		if st.treeOK && replayOnSolver(ss.inc, st) == nil {
			return
		}
		ss.inc.Close()
		ss.inc = nil
	}
	if !st.treeOK {
		return
	}
	prob := hap.Problem{Graph: st.graph, Table: st.stagedTable(ss.table), Deadline: st.deadline}
	if inc, err := hap.NewIncrementalSolver(prob); err == nil {
		ss.inc = inc
	}
}

// replayOnSolver applies the staged deltas, in patch order, to the live
// solver. Any error means the solver can no longer express the instance
// (the caller discards and rebuilds it), so a partial replay is harmless.
func replayOnSolver(inc *hap.IncrementalSolver, st *stagedPatch) error {
	for _, op := range st.incOps {
		var err error
		switch op.kind {
		case "row":
			err = inc.SetRow(op.node, op.row.times, op.row.costs)
		case "add":
			err = inc.AddEdge(op.u, op.v, op.delays)
		case "remove":
			err = inc.RemoveEdge(op.u, op.v, op.delays)
		case "deadline":
			err = inc.SetDeadline(op.deadline)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// solveSession produces the session's answer for prob — through the live
// incremental solver when one is attached (O(dirty ancestor paths) DP work),
// through a from-scratch solve otherwise — streaming incumbent frames to
// subscribers as they improve. A nil apiError means the outcome commits
// (including proven-infeasible states); a non-nil one aborts the patch.
// Runs under ss.opMu.
func (s *Server) solveSession(ctx context.Context, ss *session, prob hap.Problem, gen int64) (*solveOut, *apiError) {
	start := time.Now()
	out := &solveOut{}
	if ss.inc != nil {
		sol, err := ss.inc.Solve()
		out.source = "incremental"
		out.recomputed = ss.inc.Recomputed()
		switch {
		case err == nil:
			res := &SolveResult{
				Algorithm:  ss.algoName,
				Deadline:   prob.Deadline,
				Cost:       sol.Cost,
				Length:     sol.Length,
				Assignment: assignmentInts(sol.Assign),
				Quality:    string(hap.QualityExact),
				ElapsedMS:  float64(time.Since(start)) / float64(time.Millisecond),
			}
			if ss.anytime {
				gap, lb := 0.0, sol.Cost
				res.Gap = &gap
				res.LowerBound = &lb
				res.Stage = "tree"
			}
			out.res = res
			s.pushFrame(ss, "incumbent", sseIncumbent{Gen: gen, Stage: "tree", Cost: sol.Cost, LowerBound: sol.Cost})
		case isInfeasible(err):
			out.infeasible = true
		default:
			return nil, &apiError{Status: 500, Msg: err.Error()}
		}
		return out, nil
	}

	out.source = "solve"
	var sol hap.Solution
	var ar hap.AnytimeResult
	var err error
	if ss.anytime {
		obs := func(u hap.IncumbentUpdate) {
			s.pushFrame(ss, "incumbent", sseIncumbent{Gen: gen, Stage: u.Stage, Cost: u.Cost, LowerBound: u.LowerBound, Gap: u.Gap})
		}
		ar, err = hap.SolveAnytime(ctx, prob, hap.AnytimeOptions{Observer: obs})
		sol = ar.Solution
	} else {
		sol, err = hap.SolveCtx(ctx, prob, ss.algo)
	}
	switch {
	case err == nil:
	case isInfeasible(err):
		out.infeasible = true
		return out, nil
	default:
		return nil, classifySolveErr(solveErrCause(ctx, err))
	}
	res := &SolveResult{
		Algorithm:  ss.algoName,
		Deadline:   prob.Deadline,
		Cost:       sol.Cost,
		Length:     sol.Length,
		Assignment: assignmentInts(sol.Assign),
		Quality:    staticQuality(&solveSpec{prob: prob, algoName: ss.algoName}),
		ElapsedMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	if ss.anytime {
		res.Quality = string(ar.Quality)
		gap, lb := ar.Gap, ar.LowerBound
		res.Gap = &gap
		res.LowerBound = &lb
		res.Stage = ar.Stage
	}
	out.res = res
	return out, nil
}

// commitSession applies a staged patch (nil for the initial PUT) to the
// session's authoritative state, re-digests the instance in place through
// the retained canonical encoding, swaps the frontier-cache pin onto the new
// instance digest, publishes the view and pushes the terminal "settled" SSE
// frame. Runs under ss.opMu.
func (s *Server) commitSession(ss *session, st *stagedPatch, out *solveOut, gen int64) SessionView {
	if st != nil {
		for v, re := range st.rows {
			ss.table.MustSet(v, re.times, re.costs)
			//hetsynth:ignore retval SetRow checks only coordinates, which
			// staging already validated against the same dimensions.
			_ = ss.enc.SetRow(v, re.times, re.costs)
		}
		if st.structural {
			ss.edges = st.edges
			ss.graph = st.graph
			ss.enc.SetGraph(st.graph)
		}
		ss.deadline = st.deadline
	}
	reqD, instD := ss.enc.Keys(ss.deadline, ss.algoName)

	// Pin the cached frontier curve of the instance the session now is (when
	// one exists), and release the pin on whatever it was before: the curve
	// a client warmed with stateless solves stays resident for the session's
	// lifetime, and eviction of the session rebalances the refcount to zero.
	wantPin := ""
	if ss.inc != nil {
		wantPin = "inst/" + instD
	}
	if wantPin != ss.pinKey {
		if ss.pinKey != "" {
			s.cache.release(ss.pinKey)
			ss.pinKey = ""
		}
		if wantPin != "" {
			if _, ok := s.cache.acquire(wantPin); ok {
				ss.pinKey = wantPin
			}
		}
	}

	ss.gen = gen
	view := SessionView{
		ID:            ss.id,
		Gen:           gen,
		Digest:        instD,
		RequestDigest: reqD,
		Algorithm:     ss.algoName,
		Deadline:      ss.deadline,
		Nodes:         len(ss.nodes),
		Edges:         len(ss.edges),
		Tree:          ss.inc != nil,
		Infeasible:    out.infeasible,
		Source:        out.source,
		Recomputed:    out.recomputed,
		Result:        out.res,
	}
	ss.publishView(view)

	settled := sseSettled{
		Gen:        gen,
		Digest:     instD,
		Infeasible: out.infeasible,
		Source:     out.source,
		Recomputed: out.recomputed,
	}
	if out.res != nil {
		settled.Quality = out.res.Quality
		settled.Cost = out.res.Cost
		if out.res.Gap != nil {
			settled.Gap = *out.res.Gap
		}
	}
	s.pushFrame(ss, "settled", settled)
	//hetsynth:ignore pinpair the pin transfers to the session (ss.pinKey) and
	// is released by the next commit's juggle or by evictSession.
	return view
}

// ---- lifecycle ----

// evictSession tears a session down exactly once: cancel its solves, drop it
// from the store, close its incremental solver, release its frontier-cache
// pin, and deliver a terminal "evicted" frame to every subscriber before
// closing their streams. Safe to call concurrently and repeatedly.
func (s *Server) evictSession(ss *session, reason string) {
	subs, first := ss.beginEvict()
	if !first {
		return
	}
	ss.cancel(errSessionEvicted)
	s.sessions.remove(ss.id, ss)
	ss.opMu.Lock()
	if ss.inc != nil {
		ss.inc.Close()
		ss.inc = nil
	}
	if ss.pinKey != "" {
		s.cache.release(ss.pinKey)
		ss.pinKey = ""
	}
	ss.opMu.Unlock()
	if len(subs) > 0 {
		if data, err := json.Marshal(sseEvicted{Reason: reason}); err == nil {
			for _, sub := range subs {
				s.met.sseFrames.Add(1)
				if n := sub.offer(sseFrame{event: "evicted", data: data}); n > 0 {
					s.met.sseDropped.Add(int64(n))
				}
			}
		}
	}
	for _, sub := range subs {
		close(sub.done)
	}
	s.met.sessionsEvicted.Add(1)
}

// evictAllSessions evicts every live session; Run and Close call it before
// waiting on in-flight handlers so open SSE streams terminate and shutdown
// is not parked behind them.
func (s *Server) evictAllSessions(reason string) {
	for _, ss := range s.sessions.all() {
		s.evictSession(ss, reason)
	}
}

// enforceSessionMax evicts the longest-idle sessions (never keep) until the
// store fits the configured cap.
func (s *Server) enforceSessionMax(keep *session) {
	for s.sessions.len() > s.cfg.SessionMax {
		var victim *session
		var oldest time.Time
		for _, ss := range s.sessions.all() {
			if ss == keep {
				continue
			}
			if t := ss.idleSince(); victim == nil || t.Before(oldest) {
				victim, oldest = ss, t
			}
		}
		if victim == nil {
			return
		}
		s.evictSession(victim, "lru")
	}
}

// sessionJanitor sweeps for TTL-expired sessions until server shutdown. Its
// goroutine is joined through sessWG by Run and Close.
func (s *Server) sessionJanitor() {
	interval := s.cfg.SessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			cut := time.Now().Add(-s.cfg.SessionTTL)
			for _, ss := range s.sessions.all() {
				if ss.idleSince().Before(cut) {
					s.evictSession(ss, "ttl")
				}
			}
		}
	}
}

// sessionBudget resolves a session operation's compute budget from an
// effective timeout_ms (0 = server default), clamped by the server max.
func (s *Server) sessionBudget(timeoutMS int) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// ---- HTTP handlers ----

// handleSessionPut creates (201) or replaces (200) the session at {id} from
// a standard solve request body, runs the initial solve, and returns the
// session view. Replacing evicts the previous session under the id.
func (s *Server) handleSessionPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validSessionID(id) {
		s.met.badRequests.Add(1)
		writeErr(w, badRequest("invalid instance id (want 1-64 chars of [A-Za-z0-9._-])"))
		return
	}
	spec, err := readSolveRequest(r.Body)
	if err != nil {
		s.met.badRequests.Add(1)
		writeErr(w, err.(*apiError))
		return
	}
	if spec.schedule {
		s.met.badRequests.Add(1)
		writeErr(w, badRequest("sessions solve phase 1 only: unset schedule"))
		return
	}
	if aerr := applyComputeDeadline(spec, r); aerr != nil {
		s.met.badRequests.Add(1)
		writeErr(w, aerr)
		return
	}
	if s.draining.Load() {
		writeErr(w, &apiError{Status: 503, Msg: "server is draining"})
		return
	}

	ss := &session{
		id:       id,
		algoName: spec.algoName,
		algo:     spec.algo,
		anytime:  spec.anytime,
		timeout:  spec.timeout,
		nodes:    spec.prob.Graph.Nodes(),
		edges:    spec.prob.Graph.Edges(),
		graph:    spec.prob.Graph,
		table:    spec.prob.Table,
		deadline: spec.prob.Deadline,
		enc:      canon.NewInstanceEnc(spec.prob.Graph, spec.prob.Table),
		lastUsed: time.Now(),
	}
	ss.ctx, ss.cancel = context.WithCancelCause(s.baseCtx)
	if spec.tree {
		if inc, ierr := hap.NewIncrementalSolver(spec.prob); ierr == nil {
			ss.inc = inc
		}
	}

	ctx, cancel := context.WithTimeout(ss.ctx, s.solveBudget(spec))
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()
	if s.preSolve != nil {
		s.preSolve(ctx)
	}
	var out *solveOut
	var aerr *apiError
	if cerr := ctx.Err(); cerr != nil {
		aerr = classifySolveErr(solveErrCause(ctx, cerr))
	} else {
		out, aerr = s.solveSession(ctx, ss, spec.prob, 1)
	}
	if aerr != nil {
		ss.cancel(nil)
		if ss.inc != nil {
			ss.inc.Close()
			ss.inc = nil
		}
		writeErr(w, aerr)
		return
	}
	view := s.commitSession(ss, nil, out, 1)

	status := http.StatusCreated
	if old := s.sessions.put(id, ss); old != nil {
		s.evictSession(old, "replaced")
		status = http.StatusOK
	}
	s.met.sessionsCreated.Add(1)
	s.enforceSessionMax(ss)
	writeJSON(w, status, view)
}

// handleSessionPatch applies a delta batch to the session at {id}: stage and
// validate every op (400 leaves the state untouched), re-solve — through the
// live incremental solver when the instance is tree-shaped — and commit,
// returning the new session view.
func (s *Server) handleSessionPatch(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiError{Status: 404, Msg: "no such instance session"})
		return
	}
	ss.touch()

	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req PatchRequest
	if derr := dec.Decode(&req); derr != nil {
		s.met.badRequests.Add(1)
		s.met.patchesRejected.Add(1)
		writeErr(w, badRequest("invalid patch JSON: %v", derr))
		return
	}
	if dec.More() {
		s.met.badRequests.Add(1)
		s.met.patchesRejected.Add(1)
		writeErr(w, badRequest("trailing data after patch object"))
		return
	}
	if req.TimeoutMS < 0 || len(req.Ops) > maxPatchOps {
		s.met.badRequests.Add(1)
		s.met.patchesRejected.Add(1)
		writeErr(w, badRequest("invalid patch: timeout_ms must be >= 0 and ops at most %d", maxPatchOps))
		return
	}
	headerMS, aerr := computeDeadlineMS(r)
	if aerr != nil {
		s.met.badRequests.Add(1)
		s.met.patchesRejected.Add(1)
		writeErr(w, aerr)
		return
	}

	ss.opMu.Lock()
	defer ss.opMu.Unlock()
	if ss.isEvicted() {
		writeErr(w, &apiError{Status: 404, Msg: "instance session evicted"})
		return
	}

	st, aerr := ss.stage(req.Ops)
	if aerr != nil {
		s.met.patchesRejected.Add(1)
		writeErr(w, aerr)
		return
	}
	s.met.patches.Add(1)

	timeout := ss.timeout
	if req.TimeoutMS > 0 {
		timeout = req.TimeoutMS
	}
	if headerMS > 0 && (timeout == 0 || headerMS < timeout) {
		timeout = headerMS
	}
	ctx, cancel := context.WithTimeout(ss.ctx, s.sessionBudget(timeout))
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()

	if s.preSolve != nil {
		s.preSolve(ctx)
	}
	if cerr := ctx.Err(); cerr != nil {
		// Nothing staged has touched the session yet: a dead budget, a gone
		// client or an eviction aborts with the state exactly as it was.
		writeErr(w, classifySolveErr(solveErrCause(ctx, cerr)))
		return
	}

	s.reconcileInc(ss, st)
	prob := hap.Problem{Graph: st.graph, Table: st.stagedTable(ss.table), Deadline: st.deadline}
	out, aerr := s.solveSession(ctx, ss, prob, ss.gen+1)
	if aerr != nil {
		// The solve failed (budget, cancellation, algorithm/shape mismatch):
		// the authoritative state is unchanged, so drop the solver — it may
		// have absorbed staged deltas — and let the next patch rebuild it.
		if ss.inc != nil {
			ss.inc.Close()
			ss.inc = nil
		}
		writeErr(w, aerr)
		return
	}
	view := s.commitSession(ss, st, out, ss.gen+1)
	writeJSON(w, http.StatusOK, view)
}

// handleSessionGet returns the session view at {id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiError{Status: 404, Msg: "no such instance session"})
		return
	}
	ss.touch()
	writeJSON(w, http.StatusOK, ss.currentView())
}

// handleSessionDelete evicts the session at {id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiError{Status: 404, Msg: "no such instance session"})
		return
	}
	s.evictSession(ss, "deleted")
	writeJSON(w, http.StatusOK, map[string]any{"evicted": true})
}

// isInfeasible reports whether a solver error is a proven-infeasible
// verdict, which sessions commit as state rather than surface as a failure.
func isInfeasible(err error) bool { return errors.Is(err, hap.ErrInfeasible) }
