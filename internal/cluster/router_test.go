package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsynth/internal/server"
)

// stubBackend is a recording fake node: it answers /v1/peerz like a healthy
// hetsynthd and logs every other request it receives. status/retryAfter
// reprogram its solve answer on the fly.
type stubBackend struct {
	ts *httptest.Server

	mu         sync.Mutex
	hits       []string // method+path of each non-peerz request
	bodies     [][]byte
	headers    []http.Header
	status     int
	retryAfter string
	peerz      server.PeerzSnapshot
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	b := &stubBackend{status: http.StatusOK, peerz: server.PeerzSnapshot{Status: "ok", Workers: 1}}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/peerz" {
			b.mu.Lock()
			snap := b.peerz
			b.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(snap); err != nil {
				t.Errorf("peerz encode: %v", err)
			}
			return
		}
		body, _ := io.ReadAll(r.Body)
		b.mu.Lock()
		b.hits = append(b.hits, r.Method+" "+r.URL.RequestURI())
		b.bodies = append(b.bodies, body)
		b.headers = append(b.headers, r.Header.Clone())
		status, retryAfter := b.status, b.retryAfter
		b.mu.Unlock()
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"backend":%q}`, b.ts.URL)
	}))
	t.Cleanup(b.ts.Close)
	return b
}

func (b *stubBackend) hitCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.hits)
}

func (b *stubBackend) setStatus(status int, retryAfter string) {
	b.mu.Lock()
	b.status, b.retryAfter = status, retryAfter
	b.mu.Unlock()
}

// newTestRouter builds a router over the given backends with a probe
// interval fast enough for tests to observe recovery.
func newTestRouter(t *testing.T, cfg Config, urls ...string) *Router {
	t.Helper()
	cfg.Peers = urls
	if cfg.VNodes == 0 {
		cfg.VNodes = 64
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func solveBody(i int) string {
	return fmt.Sprintf(`{"bench":"elliptic","seed":%d,"types":3,"slack":4}`, i)
}

func postSolve(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouterAffinityStability is the core routing property over live
// backends: every repeat of a body lands on the backend its first send chose,
// the affinity rate is 1.0 on a healthy cluster, and the forwarded request
// carries the forwarded marker header.
func TestRouterAffinityStability(t *testing.T) {
	backs := []*stubBackend{newStubBackend(t), newStubBackend(t), newStubBackend(t)}
	rt := newTestRouter(t, Config{}, backs[0].ts.URL, backs[1].ts.URL, backs[2].ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const distinct, repeats = 40, 3
	owner := map[int]string{}
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < distinct; i++ {
			resp := postSolve(t, front.URL, solveBody(i))
			var got struct {
				Backend string `json:"backend"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
			if prev, ok := owner[i]; ok && prev != got.Backend {
				t.Fatalf("body %d moved from %s to %s on a healthy cluster", i, prev, got.Backend)
			}
			owner[i] = got.Backend
		}
	}

	spread := map[string]int{}
	for _, b := range owner {
		spread[b]++
	}
	if len(spread) != 3 {
		t.Errorf("40 distinct instances only reached %d of 3 backends: %v", len(spread), spread)
	}

	m := rt.Metrics()
	if m.Forwarded != distinct*repeats {
		t.Errorf("forwarded = %d, want %d", m.Forwarded, distinct*repeats)
	}
	if m.AffinityRate != 1.0 {
		t.Errorf("affinity_rate = %v on a healthy cluster, want 1.0", m.AffinityRate)
	}
	if m.KeyFallbacks != 0 {
		t.Errorf("key_fallbacks = %d for well-formed bodies", m.KeyFallbacks)
	}

	for _, b := range backs {
		b.mu.Lock()
		for _, h := range b.headers {
			if h.Get(server.ForwardedHeader) == "" {
				t.Errorf("backend %s saw a request without %s", b.ts.URL, server.ForwardedHeader)
			}
		}
		b.mu.Unlock()
	}
}

// TestRouterCodecEquivalence sends the same requests through both codecs and
// checks the router routes the JSON body and its binary twin to the same
// backend — the property that lets mixed-codec clients share one node's
// cache.
func TestRouterCodecEquivalence(t *testing.T) {
	backs := []*stubBackend{newStubBackend(t), newStubBackend(t), newStubBackend(t)}
	rt := newTestRouter(t, Config{}, backs[0].ts.URL, backs[1].ts.URL, backs[2].ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i := 0; i < 20; i++ {
		body := solveBody(i)
		respJSON := postSolve(t, front.URL, body)
		var a, b struct {
			Backend string `json:"backend"`
		}
		if err := json.NewDecoder(respJSON.Body).Decode(&a); err != nil {
			t.Fatal(err)
		}
		if err := respJSON.Body.Close(); err != nil {
			t.Fatal(err)
		}

		req := parseSolveRequest(t, body)
		bin, err := server.EncodeBinSolveRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		respBin, err := http.Post(front.URL+"/v1/solve", server.BinContentType, strings.NewReader(string(bin)))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(respBin.Body).Decode(&b); err != nil {
			t.Fatal(err)
		}
		if err := respBin.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if a.Backend != b.Backend {
			t.Errorf("body %d: JSON routed to %s, binary twin to %s", i, a.Backend, b.Backend)
		}
	}
	if m := rt.Metrics(); m.KeyFallbacks != 0 {
		t.Errorf("key_fallbacks = %d, want 0", m.KeyFallbacks)
	}
}

// TestRouterFailover kills one backend outright and checks its keyspace
// fails over: zero client-visible errors, failovers counted, the dead peer
// marked down — and its keys come home again once it recovers.
func TestRouterFailover(t *testing.T) {
	backs := []*stubBackend{newStubBackend(t), newStubBackend(t), newStubBackend(t)}
	// Long probe interval: the *request path* must discover the death.
	rt := newTestRouter(t, Config{ProbeInterval: time.Hour}, backs[0].ts.URL, backs[1].ts.URL, backs[2].ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	owner := map[int]string{}
	for i := 0; i < 30; i++ {
		resp := postSolve(t, front.URL, solveBody(i))
		var got struct {
			Backend string `json:"backend"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		owner[i] = got.Backend
	}

	dead := backs[1]
	dead.ts.Close()

	for i := 0; i < 30; i++ {
		resp := postSolve(t, front.URL, solveBody(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %d: status %d during failover, want 200", i, resp.StatusCode)
		}
		var got struct {
			Backend string `json:"backend"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if got.Backend == dead.ts.URL {
			t.Fatalf("body %d reached the dead backend", i)
		}
		if owner[i] != dead.ts.URL && got.Backend != owner[i] {
			t.Errorf("body %d moved from %s to %s though its owner is alive", i, owner[i], got.Backend)
		}
	}

	m := rt.Metrics()
	if m.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", m.Failovers)
	}
	if m.Unrouted != 0 {
		t.Errorf("unrouted = %d, want 0", m.Unrouted)
	}
	var deadStatus *PeerStatus
	for i := range m.Peers {
		if m.Peers[i].URL == dead.ts.URL {
			deadStatus = &m.Peers[i]
		}
	}
	if deadStatus == nil || deadStatus.Alive {
		t.Errorf("dead peer still marked alive: %+v", deadStatus)
	}
}

// TestRouterShedAndRecover drives the 429 backpressure loop end to end: a
// shedding backend loses weight (partially, never fully), the 429s are
// relayed to clients verbatim, and once the backend heals the prober ramps
// its weight back to full.
func TestRouterShedAndRecover(t *testing.T) {
	backs := []*stubBackend{newStubBackend(t), newStubBackend(t)}
	rt := newTestRouter(t, Config{}, backs[0].ts.URL, backs[1].ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	shed := backs[0]
	shed.setStatus(http.StatusTooManyRequests, "1")

	saw429 := false
	for i := 0; i < 60; i++ {
		resp := postSolve(t, front.URL, solveBody(i))
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 relayed without its Retry-After header")
			}
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !saw429 {
		t.Fatal("no request reached the shedding backend; cannot exercise the shed path")
	}

	m := rt.Metrics()
	if m.PeerSheds < 1 {
		t.Fatalf("peer_sheds = %d, want >= 1", m.PeerSheds)
	}
	p := rt.Peers()[0]
	if w := p.effectiveWeight(); w != WeightFloor {
		t.Fatalf("shed peer weight = %d after sustained 429s, want floor %d", w, WeightFloor)
	}
	if !p.alive.Load() {
		t.Fatal("shedding must not kill the peer outright")
	}

	// Heal the backend; the prober (20ms interval) should ramp the weight
	// back to full once the shed pause (1s Retry-After) expires.
	shed.setStatus(http.StatusOK, "")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.effectiveWeight() == WeightFull {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if w := p.effectiveWeight(); w != WeightFull {
		t.Fatalf("weight = %d after recovery window, want %d", w, WeightFull)
	}
}

// TestRouterSessionAffinity checks every verb of a session's lifecycle rides
// the same key, so the whole PUT/PATCH/GET/DELETE sequence stays on one
// node.
func TestRouterSessionAffinity(t *testing.T) {
	backs := []*stubBackend{newStubBackend(t), newStubBackend(t), newStubBackend(t)}
	rt := newTestRouter(t, Config{}, backs[0].ts.URL, backs[1].ts.URL, backs[2].ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	client := front.Client()
	for sess := 0; sess < 12; sess++ {
		id := fmt.Sprintf("sess-%d", sess)
		var ownerURL string
		for _, step := range []struct{ method, path, body string }{
			{http.MethodPut, "/v1/instances/" + id, solveBody(sess)},
			{http.MethodPatch, "/v1/instances/" + id, `{"deadline":50}`},
			{http.MethodGet, "/v1/instances/" + id, ""},
			{http.MethodDelete, "/v1/instances/" + id, ""},
		} {
			var rd io.Reader
			if step.body != "" {
				rd = strings.NewReader(step.body)
			}
			req, err := http.NewRequest(step.method, front.URL+step.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Backend string `json:"backend"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
			if ownerURL == "" {
				ownerURL = got.Backend
			} else if got.Backend != ownerURL {
				t.Fatalf("session %s: %s %s went to %s, lifecycle started on %s",
					id, step.method, step.path, got.Backend, ownerURL)
			}
		}
	}
}

// TestRouterAllPeersDown checks the terminal case: every peer dead yields a
// 503 with the unrouted counter bumped, and /healthz reports down.
func TestRouterAllPeersDown(t *testing.T) {
	back := newStubBackend(t)
	url := back.ts.URL
	back.ts.Close()
	rt := newTestRouter(t, Config{ProbeInterval: time.Hour}, url)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp := postSolve(t, front.URL, solveBody(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d with all peers dead, want 503", resp.StatusCode)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics(); m.Unrouted < 1 {
		t.Errorf("unrouted = %d, want >= 1", m.Unrouted)
	}

	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d with all peers dead, want 503", hresp.StatusCode)
	}
}

// TestRouterDrainingPeerSheds checks the heartbeat side of backpressure: a
// peer reporting "draining" on /v1/peerz loses weight without a single 429.
func TestRouterDrainingPeerSheds(t *testing.T) {
	back := newStubBackend(t)
	back.mu.Lock()
	back.peerz.Status = "draining"
	back.mu.Unlock()
	rt := newTestRouter(t, Config{}, back.ts.URL)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Peers()[0].effectiveWeight() < WeightFull {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if w := rt.Peers()[0].effectiveWeight(); w >= WeightFull {
		t.Fatalf("draining peer kept weight %d, want < %d", w, WeightFull)
	}
	if m := rt.Metrics(); m.PeerSheds < 1 {
		t.Errorf("peer_sheds = %d, want >= 1", m.PeerSheds)
	}
}

// TestRouterEndToEndCluster wires the router to two real hetsynthd servers
// and checks the full story: a repeated solve hits one node's cache (source
// "cache" on the repeat), the response matches a direct hit, and the node's
// forwarded_in counter sees the router's marker.
func TestRouterEndToEndCluster(t *testing.T) {
	var nodes []*httptest.Server
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		nodes = append(nodes, ts)
	}
	rt := newTestRouter(t, Config{}, nodes[0].URL, nodes[1].URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	body := `{"bench":"elliptic","seed":7,"types":3,"slack":4,"schedule":true}`
	read := func(resp *http.Response) map[string]any {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	first := read(postSolve(t, front.URL, body))
	second := read(postSolve(t, front.URL, body))
	if src := second["source"]; src != "cache" && src != "raw" {
		t.Errorf("repeat through router had source %v, want a cache hit", src)
	}
	if first["cost"] != second["cost"] {
		t.Errorf("cost changed between repeats: %v vs %v", first["cost"], second["cost"])
	}

	if m := rt.Metrics(); m.AffinityRate != 1.0 {
		t.Errorf("affinity_rate = %v over a healthy 2-node cluster", m.AffinityRate)
	}

	// Exactly one node must have seen the traffic, and it must have counted
	// the router's forwarded marker.
	touched := 0
	for i, ts := range nodes {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		fwd, _ := snap["forwarded_in"].(float64)
		if fwd > 0 {
			touched++
			if fwd != 2 {
				t.Errorf("node %d forwarded_in = %v, want 2", i, fwd)
			}
		}
	}
	if touched != 1 {
		t.Errorf("traffic touched %d nodes, want exactly 1 (affinity)", touched)
	}
}

// Peers exposes the peer table (for tests and status tooling).
func (rt *Router) Peers() []*Peer { return rt.peers }
