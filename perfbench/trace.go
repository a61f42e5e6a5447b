package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hetsynth/internal/benchdfg"
	"hetsynth/internal/canon"
	"hetsynth/internal/cluster"
	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
	"hetsynth/internal/rta"
	"hetsynth/internal/sched"
	"hetsynth/internal/server"
	"hetsynth/internal/sim"
)

// Traced-run shape. The sample stream owns a session but is never part of
// the measured window, so the sample's requests are ones the window did not
// send. The solver rungs run with capped effort: they are probes of the
// layer's cost on this workload's instances, not answers.
const (
	traceStream     = 1000
	traceSampleHot  = 200
	traceSampleCold = 40
	routeReps       = 1000 // Ring.Route calls per span; one call is ~40ns
	annealMoves     = 2000
	exactMaxStates  = 20_000
	rtaProbes       = 3
	rtaFixedConfig  = 3 // instances per type for the fixed-config verdict
	rtaMaxPerType   = 6
)

// span is one timed call. Parent is the causing span (-1 for a root); all
// spans of one request share Req.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"` // since the traced pass began
	End    int64   `json:"end_ns"`
	Allocs int64   `json:"allocs,omitempty"` // heap allocations inside the span
	Value  float64 `json:"value,omitempty"`  // a count the call returned
}

// tracer holds spans in memory until the run ends. It also times its own
// bookkeeping — the part of begin, end and the allocation counters that
// lies outside every span — which is the work tracing adds to a request.
type tracer struct {
	t0    time.Time
	spans []span
	cost  time.Duration
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (tr *tracer) begin(name string, parent, req int) int {
	t := time.Now()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	now := time.Now()
	tr.spans[id].Start = now.Sub(tr.t0).Nanoseconds()
	tr.cost += now.Sub(t)
	return id
}

func (tr *tracer) end(id int) {
	now := time.Now()
	tr.spans[id].End = now.Sub(tr.t0).Nanoseconds()
	tr.cost += time.Since(now)
}

// do records f as a span and returns its id.
func (tr *tracer) do(name string, parent, req int, f func()) int {
	id := tr.begin(name, parent, req)
	f()
	tr.end(id)
	return id
}

// doAllocs is do that also counts f's heap allocations. The counters are
// read outside the span, so the stop-the-world read is not timed as f but
// as the tracer's own cost.
func (tr *tracer) doAllocs(name string, parent, req int, f func()) int {
	var m0, m1 runtime.MemStats
	t := time.Now()
	runtime.ReadMemStats(&m0)
	tr.cost += time.Since(t)
	id := tr.do(name, parent, req, f)
	t = time.Now()
	runtime.ReadMemStats(&m1)
	tr.spans[id].Allocs = int64(m1.Mallocs - m0.Mallocs)
	tr.cost += time.Since(t)
	return id
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover.
func selfTimes(spans []span) []int64 {
	kids := map[int][]int{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		d := s.End - s.Start
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return spans[ch[i]].Start < spans[ch[j]].Start })
		cur := s.Start
		for _, c := range ch {
			lo, hi := max(spans[c].Start, cur), min(spans[c].End, s.End)
			if hi > lo {
				d -= hi - lo
				cur = hi
			}
		}
		self[s.ID] = d
	}
	return self
}

// layerMetric maps a per-layer metric onto the spans it summarizes: the
// median self time in the metric's unit, or the mean allocation count or
// returned value.
type layerMetric struct {
	name, span, stat, unit string
}

var layerMetrics = []layerMetric{
	{"cluster.key_json_us", "cluster.key_json", "time", "us"},
	{"cluster.key_bin_us", "cluster.key_bin", "time", "us"},
	{"cluster.route_ns", "cluster.route", "time", "ns"},
	{"http.floor_us", "http.floor", "time", "us"},
	{"server.handler_us", "server.handler", "time", "us"},
	{"server.decode_json_us", "server.decode_json", "time", "us"},
	{"server.decode_json_allocs", "server.decode_json", "allocs", "count"},
	{"server.encode_json_us", "server.encode_json", "time", "us"},
	{"canon.keys_us", "canon.keys", "time", "us"},
	{"canon.keys_encoded_us", "canon.keys_encoded", "time", "us"},
	{"canon.decode_bin_us", "canon.decode_bin", "time", "us"},
	{"canon.instance_bytes", "canon.decode_bin", "value", "bytes"},
	{"dfg.unmarshal_us", "dfg.unmarshal", "time", "us"},
	{"dfg.longest_path_us", "dfg.longest_path", "time", "us"},
	{"dfg.longest_path_allocs", "dfg.longest_path", "allocs", "count"},
	{"dfg.topo_order_allocs", "dfg.topo_order", "allocs", "count"},
	{"hap.tree_dp_ms", "hap.tree_dp", "time", "ms"},
	{"hap.tree_dp_allocs", "hap.tree_dp", "allocs", "count"},
	{"hap.solve_at_us", "hap.solve_at", "time", "us"},
	{"hap.repeat_ms", "hap.repeat", "time", "ms"},
	{"hap.greedy_ms", "hap.greedy", "time", "ms"},
	{"hap.anneal_ms", "hap.anneal", "time", "ms"},
	{"hap.anneal_allocs", "hap.anneal", "allocs", "count"},
	{"hap.exact_ms", "hap.exact", "time", "ms"},
	{"hap.exact_states", "hap.exact", "value", "count"},
	{"hap.patch_us", "hap.patch", "time", "us"},
	{"hap.patch_recomputed", "hap.patch", "value", "count"},
	{"rta.admit_ms", "rta.admit", "time", "ms"},
	{"rta.search_ms", "rta.search", "time", "ms"},
	{"rta.search_steps", "rta.search", "value", "count"},
	{"sched.min_r_ms", "sched.min_r", "time", "ms"},
	{"sched.fu_total", "sched.min_r", "value", "count"},
}

var unitNS = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// summarize computes every span-based layer metric. A metric no span fed
// is an error: the sample did not reach that layer.
func summarize(spans []span) ([]metric, error) {
	self := selfTimes(spans)
	byName := map[string][]int{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.ID)
	}
	var out []metric
	for _, lm := range layerMetrics {
		ids := byName[lm.span]
		if len(ids) == 0 {
			return nil, fmt.Errorf("no %s span: the sample never reached that layer", lm.span)
		}
		var v float64
		switch lm.stat {
		case "time":
			xs := make([]float64, len(ids))
			for i, id := range ids {
				xs[i] = float64(self[id]) / unitNS[lm.unit]
				if lm.span == "cluster.route" {
					xs[i] /= routeReps
				}
			}
			v = median(xs)
		case "allocs":
			for _, id := range ids {
				v += float64(spans[id].Allocs)
			}
			v /= float64(len(ids))
		case "value":
			for _, id := range ids {
				v += spans[id].Value
			}
			v /= float64(len(ids))
		}
		out = append(out, metric{lm.name, v, lm.unit})
	}
	return out, nil
}

// windowLayerMetrics derives the cache, cluster and solver-time rows from
// the measured window's /metrics deltas and verified answers.
func windowLayerMetrics(win *window, v *verifier, router cluster.RouterMetricsSnapshot) []metric {
	d := func(f func(*server.MetricsSnapshot) int64) float64 {
		return float64(win.after.nodeSum(f) - win.before.nodeSum(f))
	}
	// Every request a node answered: single solves, batches and patches.
	reqs := d(func(m *server.MetricsSnapshot) int64 { return m.Requests + m.BatchRequests + m.Patches })
	ratio := func(f func(*server.MetricsSnapshot) int64) float64 {
		if reqs == 0 {
			return 0
		}
		return d(f) / reqs
	}
	elapsed := 0.0
	if v.results > 0 {
		elapsed = v.elapsedMS / float64(v.results)
	}
	return []metric{
		{"cluster.affinity_rate", router.AffinityRate, "ratio"},
		{"cluster.failovers", float64(router.Failovers), "count"},
		{"server.raw_hit_ratio", ratio(func(m *server.MetricsSnapshot) int64 { return m.RawHits }), "ratio"},
		{"server.cache_hit_ratio", ratio(func(m *server.MetricsSnapshot) int64 { return m.CacheHits }), "ratio"},
		{"server.frontier_hit_ratio", ratio(func(m *server.MetricsSnapshot) int64 { return m.FrontierHits }), "ratio"},
		{"server.solves_per_req", ratio(func(m *server.MetricsSnapshot) int64 { return m.Solves }), "ratio"},
		{"server.elapsed_ms", elapsed, "ms"},
	}
}

// traceReport is what the traced run adds to a run's result.
type traceReport struct {
	metrics           []metric
	router            cluster.RouterMetricsSnapshot
	attempted, failed int
	wrong             int
}

// traceRun replays a seeded sample of the workload twice on fresh daemons:
// untraced, timing only each loopback call, then traced, where each
// loopback call is the parent span of in-process calls into every layer on
// the same inputs. Both passes verify every answer. The daemons are restarted and re-prepared before each
// pass so both see the same cache state. *tp is replaced by the topology of
// the traced pass.
func traceRun(o options, w Workload, tp **topology) (*traceReport, error) {
	n := traceSampleCold
	if w.Routed() {
		n = traceSampleHot
	}
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = w.Request(traceStream, i)
	}
	rep := &traceReport{}
	restart := func() error {
		(*tp).stop()
		*tp = nil
		t, err := boot(o, w, true)
		if err != nil {
			return err
		}
		*tp = t
		return prepare(w, t, []int{traceStream})
	}

	// Untraced pass: the sample's loopback calls alone, each answer
	// verified after its call.
	if err := restart(); err != nil {
		return nil, err
	}
	hc := loadClient()
	defer hc.CloseIdleConnections()
	base := (*tp).target(w.Routed())
	check := answerChecker(w)
	var untracedNS float64
	ok := 0
	for i, r := range reqs {
		t0 := time.Now()
		status, body, err := send(hc, base, r)
		dt := time.Since(t0)
		rep.attempted++
		if err != nil || status/100 != 2 {
			rep.failed++
			continue
		}
		untracedNS += float64(dt.Nanoseconds())
		ok++
		if err := check(r, body); err != nil {
			rep.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: untraced request %d (%s): %v\n", i, r.Kind, err)
		}
	}

	// Traced pass.
	if err := restart(); err != nil {
		return nil, err
	}
	base = (*tp).target(w.Routed())
	tc, err := newTraceCtx(o, w, *tp)
	if err != nil {
		return nil, err
	}
	defer tc.close()
	for i, r := range reqs {
		parent := tc.tr.begin("request", -1, i)
		status, body, err := send(hc, base, r)
		tc.tr.end(parent)
		rep.attempted++
		if err != nil || status/100 != 2 {
			rep.failed++
			continue
		}
		if err := tc.probe(parent, i, r, body); err != nil {
			rep.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: traced request %d (%s): %v\n", i, r.Kind, err)
		}
	}
	if err := tc.probeAdmission(n); err != nil {
		rep.wrong++
		fmt.Fprintln(os.Stderr, "perfbench: admission probe:", err)
	}
	if err := getJSON((*tp).router.base+"/metrics", &rep.router); err != nil {
		return nil, err
	}
	rep.failed += tc.failed

	if rep.metrics, err = summarize(tc.tr.spans); err != nil {
		return nil, err
	}
	if ok == 0 || len(tc.hops) == 0 {
		return nil, errors.New("traced run has no successful requests")
	}
	// The tracer's own bookkeeping over the traced pass, against the time
	// the same requests took untraced.
	rep.metrics = append(rep.metrics,
		metric{"cluster.hop_us", median(tc.hops) / 1e3, "us"},
		metric{"trace.overhead_frac", float64(tc.tr.cost.Nanoseconds()) / untracedNS, "ratio"})
	return rep, tc.dump(o, rep.metrics)
}

// answerChecker returns a check for the answers of the sample stream in
// send order: stateless answers against the verifier, session answers
// against a mirror of the sample stream's session.
func answerChecker(w Workload) func(*Request, []byte) error {
	v := newVerifier(w, nil)
	var m *sessionMirror
	if hot, ok := w.(*sweepHot); ok {
		m = newSessionMirror(hot, traceStream)
	}
	return func(r *Request, body []byte) error {
		if r.Kind == kindPatch {
			return m.apply(r.Op, body)
		}
		_, err := v.checkStateless(r, body)
		return err
	}
}

// traceCtx holds what the traced pass's in-process calls need.
type traceCtx struct {
	o      options
	w      Workload
	t      *topology
	tr     *tracer
	ring   *cluster.Ring
	srv    *server.Server
	h      http.Handler
	hc     *http.Client
	ver    *verifier
	mirror *sessionMirror         // checks the sample's session answers
	inc    *hap.IncrementalSolver // the sample session, solved in process
	hops   []float64              // routed − direct, ns, per cached request
	failed int                    // probe calls to the daemons that failed
}

func newTraceCtx(o options, w Workload, t *topology) (*traceCtx, error) {
	ring, err := cluster.NewRing(len(t.nodes), ringVnodes)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{CacheSize: hotNodeCache})
	tc := &traceCtx{o: o, w: w, t: t, tr: newTracer(1 << 16), ring: ring, srv: srv, h: srv.Handler(),
		hc: loadClient(), ver: newVerifier(w, nil)}
	// The in-process server starts in the daemons' state: sweep-hot's
	// working set cached and the sample session created.
	if hot, ok := w.(*sweepHot); ok {
		for _, r := range hot.readRequests() {
			if rec := tc.serve(r); rec.Code/100 != 2 {
				tc.close()
				return nil, fmt.Errorf("in-process warm-up: status %d", rec.Code)
			}
		}
		put := &Request{Method: "PUT", Path: "/v1/instances/" + sessionID("bench", traceStream), Body: hot.sessionPut(traceStream)}
		if rec := tc.serve(put); rec.Code/100 != 2 {
			tc.close()
			return nil, fmt.Errorf("in-process session: status %d", rec.Code)
		}
		tc.mirror = newSessionMirror(hot, traceStream)
		in := hot.session(traceStream)
		if tc.inc, err = hap.NewIncrementalSolver(hap.Problem{Graph: in.Graph, Table: in.Table, Deadline: hot.sessionDeadline(traceStream)}); err != nil {
			tc.close()
			return nil, err
		}
	}
	return tc, nil
}

func (tc *traceCtx) close() {
	if tc.inc != nil {
		tc.inc.Close()
	}
	tc.srv.Close()
	tc.hc.CloseIdleConnections()
}

// serve runs r through the in-process handler.
func (tc *traceCtx) serve(r *Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	tc.h.ServeHTTP(rec, tc.httpRequest(r))
	return rec
}

func (tc *traceCtx) httpRequest(r *Request) *http.Request {
	req := httptest.NewRequest(r.Method, r.Path, bytes.NewReader(r.Body))
	if r.Bin {
		req.Header.Set("Content-Type", server.BinContentType)
	}
	return req
}

// call sends r to base for a probe span, counting a failure.
func (tc *traceCtx) call(base string, r *Request) {
	if status, _, err := send(tc.hc, base, r); err != nil || status/100 != 2 {
		tc.failed++
	}
}

// probe verifies the parent call's answer and then records the child spans
// of request req.
func (tc *traceCtx) probe(parent, req int, r *Request, body []byte) error {
	tr := tc.tr
	node0 := tc.t.nodes[0].base
	tr.do("http.floor", parent, req, func() {
		tc.call(node0, &Request{Method: "GET", Path: "/healthz"})
	})
	hreq := tc.httpRequest(r)
	tr.do("server.handler", parent, req, func() {
		tc.h.ServeHTTP(httptest.NewRecorder(), hreq)
	})
	if r.Kind == kindPatch {
		return tc.probePatch(parent, req, r, body)
	}
	if _, err := tc.ver.checkStateless(r, body); err != nil {
		return err
	}
	in, d := r.Inst, r.Deadline
	p := hap.Problem{Graph: in.Graph, Table: in.Table, Deadline: d}
	batch := r.Kind == kindBatch
	single := in.inlineSolveRequest(d, r.Schedule)
	jsonForm, binForm := r.Body, r.Body
	if r.Bin {
		jsonForm = mustJSON(single)
	}
	if !r.Bin {
		binForm = binSolveBody(in, d, r.Schedule)
	}

	// Cluster: key extraction on both codecs, ring placement, and the hop
	// cost — the same now-cached request direct to its home node and then
	// through the router.
	var keyJSON, keyBin string
	var kerr error
	tr.do("cluster.key_json", parent, req, func() { keyJSON, kerr = cluster.AffinityKey(jsonForm, false, batch) })
	if kerr != nil {
		return fmt.Errorf("affinity key: %w", kerr)
	}
	tr.do("cluster.key_bin", parent, req, func() { keyBin, kerr = cluster.AffinityKey(binForm, true, false) })
	if kerr != nil {
		return fmt.Errorf("binary affinity key: %w", kerr)
	}
	key := keyJSON
	if r.Bin {
		key = keyBin
	}
	full := func(int) int { return 256 }
	buf := make([]int, 0, len(tc.t.nodes))
	home := 0
	tr.do("cluster.route", parent, req, func() {
		for k := 0; k < routeReps; k++ {
			home, _ = tc.ring.Route(key, full, buf[:0])
		}
	})
	direct := tr.do("cluster.direct", parent, req, func() { tc.call(tc.t.nodes[home].base, r) })
	routed := tr.do("cluster.routed", parent, req, func() { tc.call(tc.t.router.base, r) })
	sp := tr.spans
	tc.hops = append(tc.hops, float64((sp[routed].End-sp[routed].Start)-(sp[direct].End-sp[direct].Start)))

	// Server codec.
	var derr error
	tr.doAllocs("server.decode_json", parent, req, func() {
		if batch {
			var br server.BatchRequest
			if derr = json.Unmarshal(jsonForm, &br); derr == nil {
				_, _, derr = server.ResolveInstance(&br.Entries[0])
			}
			return
		}
		var sr server.SolveRequest
		if derr = json.Unmarshal(jsonForm, &sr); derr == nil {
			_, _, derr = server.ResolveInstance(&sr)
		}
	})
	if derr != nil {
		return fmt.Errorf("decode: %w", derr)
	}
	resp, err := decodeResponse(r, body)
	if err != nil {
		return err
	}
	tr.do("server.encode_json", parent, req, func() { _, err = json.Marshal(resp) })
	if err != nil {
		return err
	}

	// Canonicalization and digests.
	inst := canon.AppendInstance(nil, in.Graph, in.Table)
	tr.do("canon.keys", parent, req, func() { canon.Keys(in.Graph, in.Table, d, "auto") })
	tr.do("canon.keys_encoded", parent, req, func() { canon.KeysEncoded(inst, d, "auto") })
	id := tr.do("canon.decode_bin", parent, req, func() { _, _, _, _, err = canon.DecodeInstance(inst) })
	tr.spans[id].Value = float64(len(inst))
	if err != nil {
		return fmt.Errorf("canonical decode: %w", err)
	}

	// Graph layer, on the answer's own assignment.
	results, err := decodeResults(r, body)
	if err != nil {
		return err
	}
	a, times, err := assignmentOf(in.Table, results[0].Assignment)
	if err != nil {
		return err
	}
	tr.do("dfg.unmarshal", parent, req, func() { err = dfg.New().UnmarshalJSON(in.graphJSON()) })
	if err != nil {
		return err
	}
	tr.doAllocs("dfg.longest_path", parent, req, func() { _, _, err = in.Graph.LongestPath(times) })
	tr.doAllocs("dfg.topo_order", parent, req, func() { _, err = in.Graph.TopoOrder() })
	if err != nil {
		return err
	}

	// Solvers.
	ctx := context.Background()
	if in.Tree {
		var fs *hap.FrontierSolver
		tr.doAllocs("hap.tree_dp", parent, req, func() { fs, err = hap.NewFrontierSolver(p) })
		if err != nil {
			return fmt.Errorf("tree DP: %w", err)
		}
		tr.do("hap.solve_at", parent, req, func() { _, err = fs.SolveAt(d) })
		if err != nil {
			return fmt.Errorf("frontier traceback: %w", err)
		}
		if in.Name == "" {
			return tc.probeTreePatch(parent, req, p)
		}
		return nil
	}
	tr.do("hap.repeat", parent, req, func() { _, err = hap.AssignRepeatCtx(ctx, p) })
	if err != nil {
		return fmt.Errorf("repeat: %w", err)
	}
	tr.do("hap.greedy", parent, req, func() { _, err = hap.Greedy(p) })
	if err != nil {
		return fmt.Errorf("greedy: %w", err)
	}
	tr.doAllocs("hap.anneal", parent, req, func() {
		_, err = hap.AnnealCtx(ctx, p, hap.AnnealOptions{Seed: int64(req), Moves: annealMoves})
	})
	if err != nil {
		return fmt.Errorf("anneal: %w", err)
	}
	stats := &hap.SearchStats{}
	id = tr.do("hap.exact", parent, req, func() {
		_, err = hap.ExactCtx(ctx, p, hap.ExactOptions{MaxStates: exactMaxStates, Stats: stats})
	})
	tr.spans[id].Value = float64(stats.Explored())
	if err != nil && !errors.Is(err, hap.ErrSearchTooLarge) {
		return fmt.Errorf("exact: %w", err)
	}
	var cfg sched.Config
	id = tr.do("sched.min_r", parent, req, func() { _, cfg, err = sched.MinRSchedule(in.Graph, in.Table, a, d) })
	if err != nil {
		return fmt.Errorf("Min_R: %w", err)
	}
	tr.spans[id].Value = float64(cfg.Total())
	return nil
}

// probeTreePatch times a single-row edit and re-solve of a generated tree,
// the session write path's solver work.
func (tc *traceCtx) probeTreePatch(parent, req int, p hap.Problem) error {
	p.Table = p.Table.Clone()
	inc, err := hap.NewIncrementalSolver(p)
	if err != nil {
		return err
	}
	defer inc.Close()
	rng := rand.New(rand.NewSource(int64(req)))
	v := rng.Intn(p.Graph.N())
	row := fu.RandomTable(rng, 1, p.Table.K())
	id := tc.tr.do("hap.patch", parent, req, func() {
		if err = inc.SetRow(v, row.Time[0], row.Cost[0]); err == nil {
			_, err = inc.Solve()
		}
	})
	tc.tr.spans[id].Value = float64(inc.Recomputed())
	if errors.Is(err, hap.ErrInfeasible) {
		// A slower row can push the tree past its deadline; the edit was
		// still timed.
		err = nil
	}
	return err
}

// probePatch verifies a sample session answer against the mirror and
// records the session write path's in-process layers.
func (tc *traceCtx) probePatch(parent, req int, r *Request, body []byte) error {
	if err := tc.mirror.apply(r.Op, body); err != nil {
		return err
	}
	tr := tc.tr
	var err error
	tr.doAllocs("server.decode_json", parent, req, func() {
		var pr server.PatchRequest
		err = json.Unmarshal(r.Body, &pr)
	})
	if err != nil {
		return err
	}
	var view server.SessionView
	if err := json.Unmarshal(body, &view); err != nil {
		return err
	}
	tr.do("server.encode_json", parent, req, func() { _, err = json.Marshal(&view) })
	if err != nil {
		return err
	}
	id := tr.do("hap.patch", parent, req, func() {
		switch r.Op.Op {
		case "set_row":
			err = tc.inc.SetRow(*r.Op.Node, r.Op.Time, r.Op.Cost)
		default:
			err = tc.inc.SetDeadline(r.Op.Deadline)
		}
		if err == nil {
			_, err = tc.inc.Solve()
		}
	})
	tr.spans[id].Value = float64(tc.inc.Recomputed())
	if err != nil {
		return fmt.Errorf("incremental solve: %w", err)
	}
	g := tc.mirror.in.Graph
	_, times, err := assignmentOf(tc.mirror.in.Table, view.Result.Assignment)
	if err != nil {
		return err
	}
	tr.doAllocs("dfg.longest_path", parent, req, func() { _, _, err = g.LongestPath(times) })
	return err
}

// probeAdmission times admission analysis on seeded periodic task sets
// (2–3 tasks over the bundled registry, K=2, utilization 0.5–1.5): one
// fixed-configuration verdict and one cheapest-fit search each. No
// workload sends admission requests, so these are the rta layer's probe.
// Every admitted placement must replay with zero misses in the
// hyperperiod simulation.
func (tc *traceCtx) probeAdmission(reqBase int) error {
	ctx := context.Background()
	for j := 0; j < rtaProbes; j++ {
		rng := rngFor(tc.o.seed, -200, j)
		specs, err := benchdfg.TaskSet(benchdfg.TaskSetSpec{
			Tasks: 2 + rng.Intn(2), Utilization: 0.5 + rng.Float64(), Types: 2, Seed: rng.Int63(),
		})
		if err != nil {
			return err
		}
		set := make(rta.TaskSet, len(specs))
		for i, s := range specs {
			b, _ := benchdfg.Lookup(s.Bench)
			g := b.Build()
			set[i] = rta.Task{Name: s.Bench, Graph: g, Period: s.Period, Deadline: s.Deadline,
				Table: fu.RandomTable(rand.New(rand.NewSource(s.Seed)), g.N(), s.Types)}
		}
		req := reqBase + j
		parent := tc.tr.begin("rta.probe", -1, req)
		var v rta.Verdict
		tc.tr.do("rta.admit", parent, req, func() {
			v, err = rta.Admit(ctx, set, rta.Config{rtaFixedConfig, rtaFixedConfig}, rta.Options{})
		})
		if err != nil {
			return err
		}
		var sr rta.SearchResult
		id := tc.tr.do("rta.search", parent, req, func() {
			sr, err = rta.CheapestConfig(ctx, set, rta.SearchOptions{MaxPerType: rtaMaxPerType}, rta.Options{})
		})
		tc.tr.end(parent)
		tc.tr.spans[id].Value = float64(sr.Steps)
		if err != nil {
			return err
		}
		if v.Admitted {
			if err := replayAdmitted(set, v); err != nil {
				return fmt.Errorf("fixed-config verdict: %w", err)
			}
		}
		if sr.Found {
			if err := replayAdmitted(set, sr.Verdict); err != nil {
				return fmt.Errorf("search verdict: %w", err)
			}
		}
	}
	return nil
}

// replayAdmitted simulates an admitted verdict over one hyperperiod and
// demands zero deadline misses.
func replayAdmitted(set rta.TaskSet, v rta.Verdict) error {
	if len(v.Placements) != len(set) {
		return fmt.Errorf("admitted verdict places %d of %d tasks", len(v.Placements), len(set))
	}
	placed := make([]sim.PlacedTask, len(set))
	for _, p := range v.Placements {
		t := set[p.Task]
		placed[p.Task] = sim.PlacedTask{
			Task:  sim.PeriodicTask{Graph: t.Graph, Table: t.Table, Assign: p.Assign, Period: t.Period, Deadline: t.RelDeadline()},
			Heavy: p.Heavy, Partition: p.Partition, Channel: p.Channel,
		}
	}
	rep, err := sim.SimulatePeriodic(placed)
	if err != nil {
		return err
	}
	if rep.Missed != 0 {
		return fmt.Errorf("admitted set missed %d of %d job deadlines in simulation", rep.Missed, rep.Jobs)
	}
	return nil
}

// decodeResponse decodes an answer into the response struct the server
// encoded, for the encode probe.
func decodeResponse(r *Request, body []byte) (any, error) {
	if r.Kind == kindBatch {
		var br server.BatchResponse
		return &br, json.Unmarshal(body, &br)
	}
	if r.Bin {
		return server.DecodeBinSolveResponse(body)
	}
	var sr server.SolveResponse
	return &sr, json.Unmarshal(body, &sr)
}

// dump writes the spans, the total self time per span name and the
// span-derived layer metrics as JSON.
func (tc *traceCtx) dump(o options, ms []metric) error {
	self := selfTimes(tc.tr.spans)
	selfNS := map[string]int64{}
	for _, s := range tc.tr.spans {
		selfNS[s.Name] += self[s.ID]
	}
	out := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		NumCPU   int                `json:"nproc"`
		Go       string             `json:"go"`
		SelfNS   map[string]int64   `json:"self_ns_total"`
		Metrics  map[string]float64 `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{o.workload, o.seed, runtime.NumCPU(), runtime.Version(), selfNS, map[string]float64{}, tc.tr.spans}
	for _, m := range ms {
		out.Metrics[m.name] = m.value
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.spansOut), 0o755); err != nil {
		return err
	}
	fmt.Printf("# spans: %d written to %s\n", len(tc.tr.spans), o.spansOut)
	return os.WriteFile(o.spansOut, b, 0o644)
}
