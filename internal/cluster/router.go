package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hetsynth/internal/server"
)

// Config tunes a Router. Zero values select sensible defaults.
type Config struct {
	// Peers are the backend node base URLs (e.g. "http://127.0.0.1:8081").
	// The set is fixed for the router's lifetime; failed nodes are weighted
	// out of the ring, not removed from it.
	Peers []string

	VNodes         int           // virtual nodes per peer; default 128
	ProbeInterval  time.Duration // health heartbeat period; default 250ms
	ProbeTimeout   time.Duration // per-probe HTTP timeout; default 2s
	MaxIdlePerHost int           // pooled connections per peer; default 64

	Logger *slog.Logger // default: discard
}

func (c Config) withDefaults() Config {
	if c.VNodes < 1 {
		c.VNodes = 128
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxIdlePerHost < 1 {
		c.MaxIdlePerHost = 64
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// routerMetrics are the router's operational counters; all atomics, served
// as JSON by the router's own /metrics.
type routerMetrics struct {
	forwarded    atomic.Int64 // requests relayed to a backend (any status)
	affinityHits atomic.Int64 // relayed to the key's home node
	failovers    atomic.Int64 // retried on a ring successor after a transport failure
	peerSheds    atomic.Int64 // weight reductions from 429/draining backpressure
	keyFallbacks atomic.Int64 // bodies routed by raw-byte hash (extraction failed)
	unrouted     atomic.Int64 // requests that failed on every live peer
}

// RouterMetricsSnapshot is the JSON layout of the router's GET /metrics.
type RouterMetricsSnapshot struct {
	Forwarded    int64        `json:"forwarded"`
	AffinityHits int64        `json:"affinity_hits"`
	AffinityRate float64      `json:"affinity_rate"`
	Failovers    int64        `json:"failovers"`
	PeerSheds    int64        `json:"peer_sheds"`
	KeyFallbacks int64        `json:"key_fallbacks"`
	Unrouted     int64        `json:"unrouted"`
	Peers        []PeerStatus `json:"peers"`
}

// Router consistent-hashes solve traffic onto a fixed set of hetsynthd
// nodes by canonical instance digest, so same-instance requests always land
// on the node already holding the pinned FrontierSolver and raw-response
// state. It proxies both codecs verbatim, probes peer health through
// GET /v1/peerz, and treats 429/Retry-After (or a draining heartbeat) as
// backpressure: the peer's virtual-node weight halves and the gated share
// of its keyspace spills to ring successors until recovery ramps it back.
type Router struct {
	cfg    Config
	log    *slog.Logger
	ring   *Ring
	peers  []*Peer
	client *http.Client
	met    routerMetrics

	// weightFn adapts the peer table for Ring.Route; built once so the
	// per-request path does not allocate a fresh closure.
	weightFn func(node int) int

	stop    chan struct{}
	probeWG sync.WaitGroup
	closed  atomic.Bool
}

// New builds a Router over the configured peer set and starts its health
// prober. Callers own shutdown via Close.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: at least one peer is required")
	}
	ring, err := NewRing(len(cfg.Peers), cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:  cfg,
		log:  cfg.Logger,
		ring: ring,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.MaxIdlePerHost * len(cfg.Peers),
			MaxIdleConnsPerHost: cfg.MaxIdlePerHost,
			IdleConnTimeout:     90 * time.Second,
		}},
		stop: make(chan struct{}),
	}
	for _, u := range cfg.Peers {
		rt.peers = append(rt.peers, newPeer(u))
	}
	rt.weightFn = func(node int) int { return rt.peers[node].effectiveWeight() }
	rt.probeWG.Add(1)
	go func() {
		defer rt.probeWG.Done()
		rt.probeLoop()
	}()
	return rt, nil
}

// Close stops the health prober and releases pooled connections.
func (rt *Router) Close() {
	if !rt.closed.CompareAndSwap(false, true) {
		return
	}
	close(rt.stop)
	rt.probeWG.Wait()
	rt.client.CloseIdleConnections()
}

// Metrics returns a point-in-time snapshot of the router counters.
func (rt *Router) Metrics() RouterMetricsSnapshot {
	s := RouterMetricsSnapshot{
		Forwarded:    rt.met.forwarded.Load(),
		AffinityHits: rt.met.affinityHits.Load(),
		Failovers:    rt.met.failovers.Load(),
		PeerSheds:    rt.met.peerSheds.Load(),
		KeyFallbacks: rt.met.keyFallbacks.Load(),
		Unrouted:     rt.met.unrouted.Load(),
	}
	if s.Forwarded > 0 {
		s.AffinityRate = float64(s.AffinityHits) / float64(s.Forwarded)
	}
	for _, p := range rt.peers {
		s.Peers = append(s.Peers, p.status())
	}
	return s
}

// Handler returns the router's HTTP routes: every node endpoint, proxied
// with cache affinity, plus the router's own /healthz and /metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		rt.handleSolveLike(w, r, false)
	})
	mux.HandleFunc("POST /v1/solve-batch", func(w http.ResponseWriter, r *http.Request) {
		rt.handleSolveLike(w, r, true)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		rt.handleSolveLike(w, r, false)
	})
	mux.HandleFunc("POST /v1/admit", rt.handleBodyHashed)
	mux.HandleFunc("POST /v1/admit/jobs", rt.handleBodyHashed)
	mux.HandleFunc("GET /v1/jobs", rt.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleFindFirst)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleFindFirst)
	mux.HandleFunc("PUT /v1/instances/{id}", rt.handleSession)
	mux.HandleFunc("PATCH /v1/instances/{id}", rt.handleSession)
	mux.HandleFunc("GET /v1/instances/{id}", rt.handleSession)
	mux.HandleFunc("DELETE /v1/instances/{id}", rt.handleSession)
	mux.HandleFunc("GET /v1/instances/{id}/events", rt.handleSessionEvents)
	mux.HandleFunc("GET /v1/benchmarks", rt.handleAnyPeer)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// handleSolveLike routes /v1/solve, /v1/solve-batch and /v1/jobs by
// canonical instance digest — the affinity path this whole package exists
// for.
func (rt *Router) handleSolveLike(w http.ResponseWriter, r *http.Request, batch bool) {
	buf := getBody()
	defer putBody(buf)
	body, aerr := readProxyBody(buf, r.Body)
	if aerr != "" {
		writeRouterErr(w, http.StatusBadRequest, aerr)
		return
	}
	bin := isBinContentType(r.Header.Get("Content-Type"))
	key, err := AffinityKey(body, bin, batch)
	if err != nil {
		rt.met.keyFallbacks.Add(1)
		key = FallbackKey(body)
	}
	rt.route(w, r, body, key, false)
}

// handleBodyHashed routes endpoints without an instance digest (/v1/admit)
// by raw body hash: identical admission requests still share one node's
// admit cache, and distinct ones spread evenly.
func (rt *Router) handleBodyHashed(w http.ResponseWriter, r *http.Request) {
	buf := getBody()
	defer putBody(buf)
	body, aerr := readProxyBody(buf, r.Body)
	if aerr != "" {
		writeRouterErr(w, http.StatusBadRequest, aerr)
		return
	}
	rt.route(w, r, body, FallbackKey(body), false)
}

// handleSession routes every verb of /v1/instances/{id} by session id, so a
// session's whole lifecycle — create, patch, read, delete — stays on the
// node holding its IncrementalSolver.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	buf := getBody()
	defer putBody(buf)
	body, aerr := readProxyBody(buf, r.Body)
	if aerr != "" {
		writeRouterErr(w, http.StatusBadRequest, aerr)
		return
	}
	rt.route(w, r, body, "sess/"+r.PathValue("id"), false)
}

// handleSessionEvents is handleSession for the SSE stream: same key, but
// the relay flushes per chunk so events pass through live.
func (rt *Router) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	rt.route(w, r, nil, "sess/"+r.PathValue("id"), true)
}

// route picks the key's first live ring node and forwards, failing over to
// ring successors on transport errors. Responses — including 429 sheds,
// which double as the backpressure signal — are relayed verbatim; the
// router never retries a request a node has answered.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, body []byte, key string, stream bool) {
	home, chain := rt.ring.Route(key, rt.weightFn, make([]int, 0, len(rt.peers)))
	for i, node := range chain {
		p := rt.peers[node]
		status, retryAfter, err := rt.forward(w, r, body, p, stream)
		if err != nil {
			p.errs.Add(1)
			if p.markDead() {
				rt.log.Warn("peer dead", "peer", p.URL, "err", err)
			}
			if i+1 < len(chain) {
				rt.met.failovers.Add(1)
			}
			continue
		}
		p.forwarded.Add(1)
		rt.met.forwarded.Add(1)
		if node == home {
			rt.met.affinityHits.Add(1)
		}
		if status == http.StatusTooManyRequests {
			if p.markShed(retryAfter, time.Now()) {
				rt.met.peerSheds.Add(1)
				rt.log.Info("peer shedding", "peer", p.URL, "retry_after", retryAfter)
			}
		}
		return
	}
	rt.met.unrouted.Add(1)
	writeRouterErr(w, http.StatusServiceUnavailable, "no live cluster peer could serve the request")
}

// handleFindFirst serves node-local resources reached by id (/v1/jobs/{id})
// whose owner the router cannot derive: it asks each live peer in turn and
// relays the first non-404 answer.
func (rt *Router) handleFindFirst(w http.ResponseWriter, r *http.Request) {
	for _, p := range rt.peers {
		if !p.alive.Load() {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, p.URL+r.URL.RequestURI(), nil)
		if err != nil {
			continue
		}
		copyHeaders(req.Header, r.Header)
		req.Header.Set(server.ForwardedHeader, "hetsynthrouter")
		resp, err := rt.client.Do(req)
		if err != nil {
			p.errs.Add(1)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			drainClose(resp.Body)
			continue
		}
		copyHeaders(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		bp := copyPool.Get().(*[]byte)
		//hetsynth:ignore retval a failed relay write means the client is
		// gone; the response status is already committed.
		_, _ = io.CopyBuffer(w, resp.Body, *bp)
		copyPool.Put(bp)
		drainClose(resp.Body)
		rt.met.forwarded.Add(1)
		return
	}
	writeRouterErr(w, http.StatusNotFound, "no such job on any live peer")
}

// handleJobList merges GET /v1/jobs across every live peer.
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	merged := make([]json.RawMessage, 0, 16)
	for _, p := range rt.peers {
		if !p.alive.Load() {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.URL+"/v1/jobs", nil)
		if err != nil {
			continue
		}
		req.Header.Set(server.ForwardedHeader, "hetsynthrouter")
		resp, err := rt.client.Do(req)
		if err != nil {
			p.errs.Add(1)
			continue
		}
		var page struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if resp.StatusCode == http.StatusOK {
			//hetsynth:ignore retval a peer page that fails to decode
			// contributes nothing to the merge; the other peers still answer.
			_ = json.NewDecoder(resp.Body).Decode(&page)
		}
		drainClose(resp.Body)
		merged = append(merged, page.Jobs...)
	}
	writeRouterJSON(w, http.StatusOK, map[string]any{"jobs": merged})
}

// handleAnyPeer serves peer-agnostic reads (/v1/benchmarks) from the first
// live peer.
func (rt *Router) handleAnyPeer(w http.ResponseWriter, r *http.Request) {
	rt.route(w, r, nil, r.URL.Path, false)
}

// handleHealthz reports router liveness: healthy while at least one peer is
// live.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := 0
	for _, p := range rt.peers {
		if p.alive.Load() {
			live++
		}
	}
	if live == 0 {
		writeRouterJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "down", "live_peers": 0})
		return
	}
	writeRouterJSON(w, http.StatusOK, map[string]any{"status": "ok", "live_peers": live})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeRouterJSON(w, http.StatusOK, rt.Metrics())
}

// ---- health prober ----

// probeLoop polls every peer's /v1/peerz at ProbeInterval: a failed probe
// kills the peer (weight zero, keys to successors), a healthy one revives
// it and ramps its weight back toward full, and a "draining" status sheds
// it exactly like a 429. The first sweep runs immediately so a router
// started against a dead node never routes to it.
func (rt *Router) probeLoop() {
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		rt.probeSweep()
		select {
		case <-rt.stop:
			return
		case <-tick.C:
		}
	}
}

// probeSweep probes each peer once, sequentially — cluster fan-in is small
// and sequential probing keeps the prober to one goroutine.
func (rt *Router) probeSweep() {
	now := time.Now()
	for _, p := range rt.peers {
		snap, err := rt.probeOne(p)
		if err != nil {
			p.errs.Add(1)
			if p.markDead() {
				rt.log.Warn("peer failed probe", "peer", p.URL, "err", err)
			}
			continue
		}
		if p.markAlive(now) {
			rt.log.Info("peer recovered", "peer", p.URL)
		}
		if snap.Status == "draining" {
			if p.markShed(rt.cfg.ProbeInterval*8, now) {
				rt.met.peerSheds.Add(1)
				rt.log.Info("peer draining", "peer", p.URL)
			}
			continue
		}
		p.recoverStep(now)
	}
}

// probeOne fetches one peer's /v1/peerz snapshot under the probe timeout.
func (rt *Router) probeOne(p *Peer) (*server.PeerzSnapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/v1/peerz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peerz status %d", resp.StatusCode)
	}
	var snap server.PeerzSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// ---- plumbing ----

// isBinContentType mirrors the node's content-type check for the binary
// codec (parameters after ';' tolerated).
func isBinContentType(ct string) bool {
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			ct = ct[:i]
			break
		}
	}
	for len(ct) > 0 && (ct[0] == ' ' || ct[0] == '\t') {
		ct = ct[1:]
	}
	for len(ct) > 0 && (ct[len(ct)-1] == ' ' || ct[len(ct)-1] == '\t') {
		ct = ct[:len(ct)-1]
	}
	return ct == server.BinContentType
}

// readProxyBody slurps a request body into buf under the proxy bound; the
// returned slice aliases buf. A non-empty string is the rejection message.
func readProxyBody(buf *bytes.Buffer, r io.Reader) ([]byte, string) {
	if _, err := buf.ReadFrom(io.LimitReader(r, maxProxyBodyBytes+1)); err != nil {
		return nil, "reading request body: " + err.Error()
	}
	if buf.Len() > maxProxyBodyBytes {
		return nil, fmt.Sprintf("request body exceeds %d bytes", maxProxyBodyBytes)
	}
	return buf.Bytes(), ""
}

// drainClose finishes a response body so the pooled connection is reusable.
func drainClose(body io.ReadCloser) {
	//hetsynth:ignore retval best-effort drain; a broken connection is
	// simply not returned to the pool.
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	//hetsynth:ignore retval close after drain has no recovery path.
	_ = body.Close()
}

func writeRouterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//hetsynth:ignore retval a failed write means the client is gone; the
	// response status is already committed.
	_ = json.NewEncoder(w).Encode(v)
}

func writeRouterErr(w http.ResponseWriter, status int, msg string) {
	writeRouterJSON(w, status, map[string]any{"error": msg})
}
