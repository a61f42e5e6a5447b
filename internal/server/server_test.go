package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsynth/internal/benchdfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postJSON posts body to path and decodes the JSON response.
func postJSON(t *testing.T, ts *httptest.Server, method, path, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("bad response JSON (%d): %s", resp.StatusCode, raw)
		}
	}
	return resp.StatusCode, m
}

const volterraReq = `{"bench":"volterra","seed":1,"slack":5}`

func TestSolveBasicAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, m := postJSON(t, ts, "POST", "/v1/solve", volterraReq)
	if code != 200 {
		t.Fatalf("first solve: status %d: %v", code, m)
	}
	if m["source"] != "solve" {
		t.Fatalf("first solve source = %v, want solve", m["source"])
	}
	cost1 := m["cost"].(float64)

	code, m = postJSON(t, ts, "POST", "/v1/solve", volterraReq)
	if code != 200 || m["source"] != "cache" {
		t.Fatalf("second solve: status %d source %v, want 200/cache", code, m["source"])
	}
	if m["cost"].(float64) != cost1 {
		t.Fatalf("cache returned different cost: %v vs %v", m["cost"], cost1)
	}
	snap := s.Metrics()
	if snap.Solves != 1 || snap.CacheHits != 1 {
		t.Fatalf("metrics solves=%d cacheHits=%d, want 1/1", snap.Solves, snap.CacheHits)
	}
}

// TestCacheAndFrontierHitsBypassPool proves cached answers never touch the
// worker pool: after warming the cache the pool is drained outright, and both
// an identical request (result cache) and a deadline-only-changed request
// (frontier curve) still answer 200 while any genuine miss gets 503.
func TestCacheAndFrontierHitsBypassPool(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, m := postJSON(t, ts, "POST", "/v1/solve", `{"bench":"volterra","seed":1,"deadline":40}`)
	if code != 200 {
		t.Fatalf("warm solve: status %d: %v", code, m)
	}

	s.draining.Store(true)
	s.pool.drain()

	code, m = postJSON(t, ts, "POST", "/v1/solve", `{"bench":"volterra","seed":1,"deadline":40}`)
	if code != 200 || m["source"] != "cache" {
		t.Fatalf("cache hit on drained pool: status %d source %v", code, m["source"])
	}
	code, m = postJSON(t, ts, "POST", "/v1/solve", `{"bench":"volterra","seed":1,"deadline":35}`)
	if code != 200 || m["source"] != "frontier" {
		t.Fatalf("frontier hit on drained pool: status %d source %v", code, m["source"])
	}
	// A different instance genuinely needs a worker — and there are none.
	code, _ = postJSON(t, ts, "POST", "/v1/solve", `{"bench":"volterra","seed":2,"deadline":40}`)
	if code != 503 {
		t.Fatalf("miss on drained pool: status %d, want 503", code)
	}
}

// TestFrontierServesDeadlineSweep checks the frontier fast path end to end
// against the direct tree solver: one pool solve builds the curve, then a
// sweep of deadlines is answered from it, each matching TreeAssign exactly.
func TestFrontierServesDeadlineSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	b, _ := benchdfg.Lookup("volterra")
	g := b.Build()
	tab := fu.RandomTable(newRand(1), g.N(), 3)
	min, err := hap.MinMakespan(g, tab)
	if err != nil {
		t.Fatal(err)
	}

	code, m := postJSON(t, ts, "POST", "/v1/solve", fmt.Sprintf(`{"bench":"volterra","seed":1,"deadline":%d}`, min+4))
	if code != 200 || m["source"] != "solve" {
		t.Fatalf("warm: status %d source %v", code, m["source"])
	}
	if m["frontier"] == nil {
		t.Fatal("tree solve response missing frontier curve")
	}

	for L := min; L <= min+12; L++ {
		code, m := postJSON(t, ts, "POST", "/v1/solve", fmt.Sprintf(`{"bench":"volterra","seed":1,"deadline":%d}`, L))
		if code != 200 {
			t.Fatalf("L=%d: status %d: %v", L, code, m)
		}
		if src := m["source"]; src != "frontier" && src != "cache" {
			t.Fatalf("L=%d: source %v, want frontier or cache", L, src)
		}
		want, err := hap.TreeAssign(hap.Problem{Graph: g, Table: tab, Deadline: L})
		if err != nil {
			t.Fatalf("L=%d: reference TreeAssign: %v", L, err)
		}
		if int64(m["cost"].(float64)) != want.Cost {
			t.Fatalf("L=%d: cost %v, want %d", L, m["cost"], want.Cost)
		}
		if int(m["length"].(float64)) > L {
			t.Fatalf("L=%d: length %v exceeds deadline", L, m["length"])
		}
	}
	snap := s.Metrics()
	if snap.Solves != 1 {
		t.Fatalf("sweep ran %d pool solves, want 1 (rest from the curve)", snap.Solves)
	}
	// Below the curve is authoritative infeasibility, still without a solve.
	code, _ = postJSON(t, ts, "POST", "/v1/solve", fmt.Sprintf(`{"bench":"volterra","seed":1,"deadline":%d}`, min-1))
	if code != 422 {
		t.Fatalf("infeasible deadline: status %d, want 422", code)
	}
	if s.Metrics().Solves != 1 {
		t.Fatal("infeasible answer consumed a pool solve")
	}
}

// TestConcurrentIdenticalRequestsCoalesce fires identical requests at a
// solver blocked inside preSolve and checks exactly one solver execution
// happened; every request still gets the same correct answer.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 32})
	arrived := make(chan struct{}, 16)
	release := make(chan struct{})
	s.preSolve = func(ctx context.Context) {
		arrived <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	const N = 8
	body := `{"bench":"diffeq","seed":7,"slack":4,"algorithm":"repeat"}`
	type reply struct {
		code int
		m    map[string]any
	}
	replies := make(chan reply, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				replies <- reply{code: -1}
				return
			}
			defer resp.Body.Close()
			var m map[string]any
			json.NewDecoder(resp.Body).Decode(&m)
			replies <- reply{code: resp.StatusCode, m: m}
		}()
	}

	<-arrived                          // the leader is inside the solver
	time.Sleep(100 * time.Millisecond) // let the rest pile up behind it
	close(release)
	wg.Wait()
	close(replies)

	var cost float64 = -1
	for r := range replies {
		if r.code != 200 {
			t.Fatalf("request failed: %d %v", r.code, r.m)
		}
		c := r.m["cost"].(float64)
		if cost == -1 {
			cost = c
		} else if c != cost {
			t.Fatalf("divergent costs across coalesced requests: %v vs %v", c, cost)
		}
	}
	if got := len(arrived); got != 0 {
		t.Fatalf("%d extra solver executions beyond the leader", got)
	}
	if snap := s.Metrics(); snap.Solves != 1 {
		t.Fatalf("solves = %d, want 1 for %d identical in-flight requests", snap.Solves, N)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, m := postJSON(t, ts, "POST", "/v1/jobs", `{"bench":"diffeq","seed":3,"slack":4,"algorithm":"repeat"}`)
	if code != 201 {
		t.Fatalf("submit: status %d: %v", code, m)
	}
	id := m["id"].(string)

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, m = postJSON(t, ts, "GET", "/v1/jobs/"+id, "")
		if code != 200 {
			t.Fatalf("poll: status %d", code)
		}
		if st := m["status"]; st == JobDone || st == JobFailed || st == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m["status"] != JobDone {
		t.Fatalf("job status %v: %v", m["status"], m)
	}
	res := m["result"].(map[string]any)
	if res["cost"].(float64) <= 0 {
		t.Fatalf("job result has no cost: %v", res)
	}

	// A second submission of the same request completes instantly from cache.
	code, m = postJSON(t, ts, "POST", "/v1/jobs", `{"bench":"diffeq","seed":3,"slack":4,"algorithm":"repeat"}`)
	if code != 201 || m["status"] != JobDone || m["source"] != "cache" {
		t.Fatalf("cached job: status %d %v source %v", code, m["status"], m["source"])
	}

	code, _ = postJSON(t, ts, "GET", "/v1/jobs/nope", "")
	if code != 404 {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
}

func TestJobCancel(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	s.preSolve = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); close(release); s.Close() })

	code, m := postJSON(t, ts, "POST", "/v1/jobs", `{"bench":"diffeq","seed":9,"slack":4,"algorithm":"repeat"}`)
	if code != 201 {
		t.Fatalf("submit: status %d", code)
	}
	id := m["id"].(string)
	code, _ = postJSON(t, ts, "DELETE", "/v1/jobs/"+id, "")
	if code != 200 {
		t.Fatalf("cancel: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, m = postJSON(t, ts, "GET", "/v1/jobs/"+id, "")
		if st := m["status"]; st == JobCanceled || st == JobFailed || st == JobDone {
			if st != JobCanceled {
				t.Fatalf("canceled job ended as %v: %v", st, m)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never settled after cancel: %v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainCompletesInFlightJobs exercises Run's shutdown path: a job is
// blocked mid-solve when the serve context is cancelled; drain must wait for
// it to finish (status done), then Run returns.
func TestDrainCompletesInFlightJobs(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	s.preSolve = func(ctx context.Context) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"diffeq","seed":11,"slack":4,"algorithm":"repeat"}`))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("submit: status %d: %v", resp.StatusCode, m)
	}
	id := m["id"].(string)

	<-arrived // the job is on a worker, inside the solver
	cancel()  // begin drain while it is still blocked

	select {
	case err := <-runDone:
		t.Fatalf("Run returned before the in-flight job finished: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	close(release)

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after drain")
	}
	j, ok := s.jobs.get(id)
	if !ok {
		t.Fatal("job vanished across drain")
	}
	if v := j.view(); v.Status != JobDone {
		t.Fatalf("drained job status %q, want done: %+v", v.Status, v)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.preSolve = func(ctx context.Context) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); close(release); s.Close() })

	// Distinct instances (different seeds) so nothing coalesces: #1 occupies
	// the worker, #2 the queue slot, #3 must be load-shed with 429.
	submit := func(seed int) int {
		code, _ := postJSON(t, ts, "POST", "/v1/jobs",
			fmt.Sprintf(`{"bench":"diffeq","seed":%d,"slack":4,"algorithm":"repeat"}`, seed))
		return code
	}
	if code := submit(1); code != 201 {
		t.Fatalf("job 1: status %d", code)
	}
	<-started // worker busy
	if code := submit(2); code != 201 {
		t.Fatalf("job 2: status %d", code)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"diffeq","seed":3,"slack":4,"algorithm":"repeat"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429 (queue full)", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	m := s.Metrics()
	if m.QueueRejected == 0 {
		t.Fatal("queue_rejected metric not incremented")
	}
	if m.Shed == 0 {
		t.Fatal("shed metric not incremented")
	}
}

func TestSolveTimeout(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.preSolve = func(ctx context.Context) { <-ctx.Done() }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	code, m := postJSON(t, ts, "POST", "/v1/solve", `{"bench":"diffeq","seed":5,"slack":4,"algorithm":"repeat","timeout_ms":50}`)
	if code != 504 {
		t.Fatalf("timed-out solve: status %d: %v", code, m)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"bench":`},
		{"unknown field", `{"bench":"volterra","seed":1,"slack":2,"wat":true}`},
		{"missing deadline", `{"bench":"volterra","seed":1}`},
		{"deadline and slack", `{"bench":"volterra","seed":1,"deadline":30,"slack":2}`},
		{"unknown bench", `{"bench":"nope","seed":1,"slack":2}`},
		{"graph and bench", `{"bench":"volterra","graph":{"nodes":[],"edges":[]},"seed":1,"slack":2}`},
		{"no table source", `{"bench":"volterra","slack":2}`},
		{"two table sources", `{"bench":"volterra","seed":1,"catalog":"generic3","slack":2}`},
		{"bad algorithm", `{"bench":"volterra","seed":1,"slack":2,"algorithm":"magic"}`},
		{"negative slack", `{"bench":"volterra","seed":1,"slack":-1}`},
		{"bad graph payload", `{"graph":{"nodes":[{"name":"a","op":"add"}],"edges":[{"from":"a","to":"zzz"}]},"seed":1,"slack":2}`},
		{"ragged table", `{"bench":"volterra","table":{"time":[[1]],"cost":[[1]]},"slack":2}`},
		{"trailing data", `{"bench":"volterra","seed":1,"slack":2} {"x":1}`},
	}
	for _, tc := range cases {
		code, m := postJSON(t, ts, "POST", "/v1/solve", tc.body)
		if code != 400 {
			t.Errorf("%s: status %d (%v), want 400", tc.name, code, m)
		}
		if code == 400 && (m["error"] == nil || m["error"] == "") {
			t.Errorf("%s: 400 without error message", tc.name)
		}
	}
	// Shape mismatch surfaces as 400 too: tree algorithm on a non-tree graph.
	code, _ := postJSON(t, ts, "POST", "/v1/solve", `{"bench":"diffeq","seed":1,"slack":2,"algorithm":"tree"}`)
	if code != 400 {
		t.Errorf("tree algo on non-tree: status %d, want 400", code)
	}
}

// TestOversizeBodyRejectedOnEveryJSONSolveEndpoint: /v1/solve, /v1/jobs
// and session PUT all read their body through readBody, so one over the
// size cap is the same 400 everywhere.
func TestOversizeBodyRejectedOnEveryJSONSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"bench":"volterra","seed":1,"slack":2,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, ep := range []struct{ method, path string }{
		{"POST", "/v1/solve"},
		{"POST", "/v1/jobs"},
		{"PUT", "/v1/instances/big"},
	} {
		code, m := postJSON(t, ts, ep.method, ep.path, body)
		if msg, _ := m["error"].(string); code != 400 || !strings.Contains(msg, "exceeds") {
			t.Errorf("%s %s: status %d (%v), want 400 body-size rejection", ep.method, ep.path, code, msg)
		}
	}
}

func TestInlineGraphAndTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
		"graph": {"nodes":[{"name":"a","op":"mul"},{"name":"b","op":"add"}],
		          "edges":[{"from":"a","to":"b"}]},
		"table": {"time":[[2,1],[2,1]],"cost":[[1,9],[1,9]]},
		"deadline": 3,
		"schedule": true
	}`
	code, m := postJSON(t, ts, "POST", "/v1/solve", body)
	if code != 200 {
		t.Fatalf("inline solve: status %d: %v", code, m)
	}
	// Deadline 3 forces at least one fast-but-costly type-2 pick.
	if c := m["cost"].(float64); c != 10 {
		t.Fatalf("inline solve cost %v, want 10 (one fast, one cheap)", c)
	}
	if m["schedule"] == nil {
		t.Fatal("schedule requested but missing from response")
	}
	sched := m["schedule"].(map[string]any)
	if int(sched["length"].(float64)) > 3 {
		t.Fatalf("schedule length %v exceeds deadline 3", sched["length"])
	}
}

func TestCatalogSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, m := postJSON(t, ts, "POST", "/v1/solve", `{"bench":"elliptic","catalog":"lowpower","slack":6}`)
	if code != 200 {
		t.Fatalf("catalog solve: status %d: %v", code, m)
	}
	if m["cost"].(float64) <= 0 || len(m["assignment"].([]any)) == 0 {
		t.Fatalf("catalog solve incomplete: %v", m)
	}
}

func TestHealthzMetricsBenchmarks(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, m := postJSON(t, ts, "GET", "/healthz", "")
	if code != 200 || m["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, m)
	}
	code, m = postJSON(t, ts, "GET", "/v1/benchmarks", "")
	if code != 200 || m["benchmarks"] == nil || m["catalogs"] == nil {
		t.Fatalf("benchmarks: %d %v", code, m)
	}
	postJSON(t, ts, "POST", "/v1/solve", volterraReq)
	postJSON(t, ts, "POST", "/v1/solve", volterraReq)
	code, m = postJSON(t, ts, "GET", "/metrics", "")
	if code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if m["solves"].(float64) != 1 || m["cache_hits"].(float64) != 1 {
		t.Fatalf("metrics counters: %v", m)
	}
	if m["cache_hit_rate"].(float64) != 0.5 {
		t.Fatalf("cache_hit_rate = %v, want 0.5", m["cache_hit_rate"])
	}
	if m["solve_latency"] == nil {
		t.Fatal("metrics missing solve_latency histogram")
	}

	s.draining.Store(true)
	code, m = postJSON(t, ts, "GET", "/healthz", "")
	if code != 503 || m["status"] != "draining" {
		t.Fatalf("draining healthz: %d %v", code, m)
	}
}

// TestSolveMatchesDirectSolver cross-checks the HTTP answer against calling
// the solver library directly for both a tree and a general DAG.
func TestSolveMatchesDirectSolver(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		bench string
		algo  string
		seed  int64
	}{
		{"volterra", "auto", 1},
		{"4-stage-lattice", "tree", 2},
		{"diffeq", "repeat", 3},
		{"rls-laguerre", "once", 4},
	} {
		b, ok := benchdfg.Lookup(tc.bench)
		if !ok {
			t.Fatalf("missing bench %s", tc.bench)
		}
		g := b.Build()
		tab := fu.RandomTable(newRand(tc.seed), g.N(), 3)
		min, err := hap.MinMakespan(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		L := min + 5
		algo, _ := hap.ParseAlgorithm(tc.algo)
		want, err := hap.Solve(hap.Problem{Graph: g, Table: tab, Deadline: L}, algo)
		if err != nil {
			t.Fatalf("%s/%s: direct solve: %v", tc.bench, tc.algo, err)
		}
		code, m := postJSON(t, ts, "POST", "/v1/solve",
			fmt.Sprintf(`{"bench":%q,"seed":%d,"deadline":%d,"algorithm":%q}`, tc.bench, tc.seed, L, tc.algo))
		if code != 200 {
			t.Fatalf("%s/%s: status %d: %v", tc.bench, tc.algo, code, m)
		}
		if int64(m["cost"].(float64)) != want.Cost {
			t.Fatalf("%s/%s: HTTP cost %v, direct cost %d", tc.bench, tc.algo, m["cost"], want.Cost)
		}
	}
}

// TestResponseRoundTrip decodes a full response into the typed wire structs,
// ensuring the server payloads survive a JSON round trip.
func TestResponseRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"bench":"volterra","seed":1,"slack":6,"schedule":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var sr SolveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("decode into SolveResponse: %v", err)
	}
	if sr.Source != "solve" || sr.Cost <= 0 || len(sr.Assignment) == 0 || sr.Schedule == nil || len(sr.Frontier) == 0 {
		t.Fatalf("round-tripped response incomplete: %+v", sr)
	}
	re, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	var again SolveResponse
	if err := json.Unmarshal(re, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, sr), mustJSON(t, again)) {
		t.Fatal("SolveResponse not stable across marshal/unmarshal")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Metrics returns a point-in-time snapshot of the operational counters.
func (s *Server) Metrics() MetricsSnapshot { return s.met.snapshot(s.cache.len(), s.sessions.len()) }
