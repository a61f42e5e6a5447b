package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"

	"hetsynth/internal/benchdfg"
	"hetsynth/internal/canon"
	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
)

// maxBodyBytes bounds a request body; a graph big enough to exceed this is
// far past what the solvers handle interactively anyway.
const maxBodyBytes = 8 << 20

// maxDeadline caps client-supplied deadlines and slacks; DP horizons and
// path sums stay far away from integer overflow below it.
const maxDeadline = 1<<31 - 1

// maxTableEntry caps inline table times and costs (~1.1e12): with at most
// maxBodyBytes/8 entries, no longest-path or cost sum can overflow int64.
const maxTableEntry = 1 << 40

// DeadlineHeader is the request header carrying the per-request compute
// deadline in milliseconds. It bounds how long the server may spend solving
// (queue wait included); the effective budget is min(header, body
// timeout_ms, server max). Responses echo the degradation outcome in the
// QualityHeader.
const DeadlineHeader = "X-Hetsynth-Deadline-Ms"

// QualityHeader is the response header mirroring the result's quality field
// ("exact", "heuristic" or "timeout"), so load balancers and clients can
// spot degraded answers without parsing the body.
const QualityHeader = "X-Hetsynth-Quality"

// ForwardedHeader marks a request relayed by a cluster router
// (cmd/hetsynthrouter). Nodes count these under forwarded_in in /metrics, so
// an operator can read the share of a node's traffic arriving via affinity
// routing; the value is the router's identity and is otherwise uninterpreted.
const ForwardedHeader = "X-Hetsynth-Forwarded"

// PeerzSnapshot is the JSON body of GET /v1/peerz — the lightweight
// health/load summary cluster peers exchange. The router maps Status
// "draining" to a weight reduction exactly like a 429, so a node being shut
// down sheds its keys to ring successors before its listener closes.
type PeerzSnapshot struct {
	Status       string  `json:"status"` // "ok" or "draining"
	Workers      int     `json:"workers"`
	QueueDepth   int64   `json:"queue_depth"`
	InFlight     int64   `json:"in_flight"`
	MeanSolveMS  float64 `json:"mean_solve_ms"`
	CacheEntries int     `json:"cache_entries"`
	Sessions     int     `json:"sessions"`
}

// SolveRequest is the JSON body of POST /v1/solve and POST /v1/jobs.
//
// The graph comes from exactly one of:
//   - "graph": an inline DFG in the repository's JSON graph format
//     ({"nodes":[{"name","op"}],"edges":[{"from","to","delays"}]});
//   - "bench": a bundled benchmark name (see GET /v1/benchmarks).
//
// The time/cost table comes from exactly one of:
//   - "table": inline per-node rows, {"time":[[...]],"cost":[[...]]};
//   - "catalog": a named FU catalog, rows derived from node op classes;
//   - "seed": a paper-style random table ("types" selects K, default 3).
//
// The deadline comes from "deadline" (absolute control steps) or "slack"
// (steps above the instance's minimum makespan — the natural way to sweep a
// design space without knowing absolute path lengths).
type SolveRequest struct {
	Graph json.RawMessage `json:"graph,omitempty"`
	Bench string          `json:"bench,omitempty"`

	Table   *TablePayload `json:"table,omitempty"`
	Catalog string        `json:"catalog,omitempty"`
	Seed    *int64        `json:"seed,omitempty"`
	Types   int           `json:"types,omitempty"`

	Deadline int  `json:"deadline,omitempty"`
	Slack    *int `json:"slack,omitempty"`

	Algorithm string `json:"algorithm,omitempty"` // default "auto"
	Schedule  bool   `json:"schedule,omitempty"`  // also run phase 2
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// TablePayload is the inline table wire form.
type TablePayload struct {
	Time [][]int   `json:"time"`
	Cost [][]int64 `json:"cost"`
}

// SolveResult is the cacheable outcome of one solve (everything but the
// per-response source annotation).
//
// Quality reports how good the answer provably is: "exact" (proven
// optimal), "heuristic" (completed heuristic, no optimality proof), or
// "timeout" (best feasible incumbent when the compute deadline expired).
// Degraded ("timeout") and anytime results also carry Gap — the relative
// optimality gap (cost − lower_bound)/max(lower_bound, 1), always finite —
// and the proven LowerBound itself; Stage names the ladder rung that
// produced the assignment.
type SolveResult struct {
	Algorithm  string                 `json:"algorithm"`
	Deadline   int                    `json:"deadline"`
	Cost       int64                  `json:"cost"`
	Length     int                    `json:"length"`
	Assignment []int                  `json:"assignment"`
	Quality    string                 `json:"quality,omitempty"`
	Gap        *float64               `json:"gap,omitempty"`
	LowerBound *int64                 `json:"lower_bound,omitempty"`
	Stage      string                 `json:"stage,omitempty"`
	Frontier   []FrontierPointPayload `json:"frontier,omitempty"`
	Schedule   *SchedulePayload       `json:"schedule,omitempty"`
	ElapsedMS  float64                `json:"elapsed_ms"`
}

// FrontierPointPayload is one (deadline, cost) breakpoint of a tree
// instance's cost/deadline tradeoff curve, included for tree-shaped solves.
type FrontierPointPayload struct {
	Deadline int   `json:"deadline"`
	Cost     int64 `json:"cost"`
}

// SchedulePayload is the phase-2 result wire form.
type SchedulePayload struct {
	Start    []int `json:"start"`    // 1-based control step per node
	Instance []int `json:"instance"` // FU instance within its type
	Length   int   `json:"length"`
	Config   []int `json:"config"` // FU instances per type
}

// SolveResponse is SolveResult plus how the answer was produced.
type SolveResponse struct {
	Source string `json:"source"` // "solve", "cache", "frontier" or "coalesced"
	SolveResult
}

// apiError carries an HTTP status with a client-facing message.
// RetryAfter, when positive, is surfaced as a Retry-After header (seconds)
// — set on 429 load-shed rejections so clients back off instead of
// hammering a saturated pool.
type apiError struct {
	Status     int
	Msg        string
	RetryAfter int
}

func (e *apiError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: 400, Msg: fmt.Sprintf(format, args...)}
}

// solveSpec is a fully resolved request: concrete problem, canonical keys.
type solveSpec struct {
	prob     hap.Problem
	algo     hap.Algorithm
	algoName string
	schedule bool
	timeout  int // milliseconds; 0 = server default

	key     string // result-cache / single-flight key
	instKey string // deadline-independent instance key (frontier cache)
	tree    bool   // frontier fast path applies
	anytime bool   // solve through the anytime ladder, report quality + gap
}

// readSolveRequest reads a JSON solve request body through readBody — so an
// oversize body is the same 400 /v1/solve answers — and decodes it with
// decodeSolveRequestBytes. The pooled body buffer is recycled on return; the
// decoded spec holds no reference into it.
func readSolveRequest(r io.Reader) (*solveSpec, error) {
	buf := getBuf()
	defer putBuf(buf)
	body, aerr := readBody(buf, r)
	if aerr != nil {
		return nil, aerr
	}
	return decodeSolveRequestBytes(body)
}

// decodeSolveRequestBytes parses and resolves a JSON request body into a
// solveSpec. The caller has already size-checked the body (readBody enforces
// maxBodyBytes). Errors are *apiError (status 400).
func decodeSolveRequestBytes(b []byte) (*solveSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("invalid request JSON: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after request object")
	}
	return resolve(&req)
}

// ResolveInstance materializes the problem instance a request describes —
// graph and table only, deadline and algorithm ignored. It exists for the
// cluster router (internal/cluster), whose routing key is the
// deadline-independent canonical instance digest of exactly this pair; going
// through the same resolution code as the node guarantees the router and the
// node derive identical digests for every JSON body.
func ResolveInstance(req *SolveRequest) (*dfg.Graph, *fu.Table, error) {
	g, err := resolveGraph(req)
	if err != nil {
		return nil, nil, err
	}
	tab, err := resolveTable(req, g)
	if err != nil {
		return nil, nil, err
	}
	return g, tab, nil
}

// resolve turns the wire request into a concrete problem and canonical keys.
func resolve(req *SolveRequest) (*solveSpec, error) {
	g, err := resolveGraph(req)
	if err != nil {
		return nil, err
	}
	tab, err := resolveTable(req, g)
	if err != nil {
		return nil, err
	}
	return resolveWith(g, tab, req, nil)
}

// resolveWith finishes resolution for an already-materialized graph and
// table: deadline/slack arithmetic, validation, canonical keys, fast-path
// flags. instEnc, when non-nil, must be the canonical instance encoding of
// (g, tab); the keys are then digested straight from those bytes
// (canon.KeysEncoded) instead of re-encoding the problem — this is how the
// binary wire path skips the canonicalize re-marshal.
func resolveWith(g *dfg.Graph, tab *fu.Table, req *SolveRequest, instEnc []byte) (*solveSpec, error) {
	algoName := req.Algorithm
	if algoName == "" {
		algoName = "auto"
	}
	algo, err := hap.ParseAlgorithm(algoName)
	if err != nil {
		return nil, badRequest("%v", err)
	}

	deadline := req.Deadline
	if deadline < 0 {
		return nil, badRequest("negative deadline %d", deadline)
	}
	switch {
	case deadline > 0 && req.Slack != nil:
		return nil, badRequest("use either deadline or slack, not both")
	case deadline > 0:
	case req.Slack != nil:
		if *req.Slack < 0 {
			return nil, badRequest("negative slack %d", *req.Slack)
		}
		if *req.Slack > maxDeadline {
			return nil, badRequest("slack %d exceeds the supported maximum %d", *req.Slack, maxDeadline)
		}
		min, err := hap.MinMakespan(g, tab)
		if err != nil {
			return nil, badRequest("cannot derive deadline: %v", err)
		}
		deadline = min + *req.Slack
	default:
		return nil, badRequest("deadline (or slack) is required")
	}
	if deadline > maxDeadline {
		return nil, badRequest("deadline %d exceeds the supported maximum %d", deadline, maxDeadline)
	}
	if req.TimeoutMS < 0 {
		return nil, badRequest("negative timeout_ms %d", req.TimeoutMS)
	}

	p := hap.Problem{Graph: g, Table: tab, Deadline: deadline}
	if err := p.Validate(); err != nil {
		return nil, badRequest("invalid problem: %v", err)
	}

	spec := &solveSpec{
		prob:     p,
		algo:     algo,
		algoName: algoName,
		schedule: req.Schedule,
		timeout:  req.TimeoutMS,
	}
	if instEnc != nil {
		spec.key, spec.instKey = canon.KeysEncoded(instEnc, deadline, algoName)
	} else {
		spec.key, spec.instKey = canon.Keys(g, tab, deadline, algoName)
	}
	spec.instKey = "inst/" + spec.instKey
	// The frontier fast path serves only the algorithms for which the tree
	// DP *is* the answer: auto (which dispatches trees to Tree_Assign),
	// tree, and anytime (whose ladder short-circuits forests to the same
	// optimal DP). Heuristics like once/repeat coincide with the optimum on
	// trees by the paper's Theorem, but may return different assignments,
	// and greedy/exact have their own contracts — those always solve.
	if algoName == "auto" || algoName == "tree" || algoName == "anytime" {
		spec.tree = g.IsOutForest() || g.IsInForest()
	}
	spec.anytime = algoName == "anytime"
	return spec, nil
}

func resolveGraph(req *SolveRequest) (*dfg.Graph, error) {
	switch {
	case len(req.Graph) > 0 && req.Bench != "":
		return nil, badRequest("use either graph or bench, not both")
	case len(req.Graph) > 0:
		g := dfg.New()
		if err := g.UnmarshalJSON(req.Graph); err != nil {
			return nil, badRequest("invalid graph: %v", err)
		}
		if g.N() == 0 {
			return nil, badRequest("invalid graph: no nodes")
		}
		return g, nil
	case req.Bench != "":
		b, ok := benchdfg.Lookup(req.Bench)
		if !ok {
			return nil, badRequest("unknown benchmark %q (known: %s)", req.Bench, strings.Join(benchdfg.Names(), ", "))
		}
		return b.Build(), nil
	default:
		return nil, badRequest("a graph is required: set graph or bench")
	}
}

func resolveTable(req *SolveRequest, g *dfg.Graph) (*fu.Table, error) {
	sources := 0
	if req.Table != nil {
		sources++
	}
	if req.Catalog != "" {
		sources++
	}
	if req.Seed != nil {
		sources++
	}
	if sources > 1 {
		return nil, badRequest("use exactly one of table, catalog or seed")
	}
	switch {
	case req.Table != nil:
		if len(req.Table.Time) != g.N() || len(req.Table.Cost) != g.N() {
			return nil, badRequest("table covers %d/%d nodes, graph has %d",
				len(req.Table.Time), len(req.Table.Cost), g.N())
		}
		k := 0
		if g.N() > 0 {
			k = len(req.Table.Time[0])
		}
		tab := fu.NewTable(g.N(), k)
		for v := 0; v < g.N(); v++ {
			if len(req.Table.Time[v]) != k || len(req.Table.Cost[v]) != k {
				return nil, badRequest("ragged table row %d", v)
			}
			for j := 0; j < k; j++ {
				if req.Table.Time[v][j] > maxTableEntry || req.Table.Cost[v][j] > maxTableEntry {
					return nil, badRequest("table entry at node %d exceeds the supported maximum %d", v, int64(maxTableEntry))
				}
			}
			if err := tab.Set(v, req.Table.Time[v], req.Table.Cost[v]); err != nil {
				return nil, badRequest("invalid table: %v", err)
			}
		}
		if err := tab.Validate(); err != nil {
			return nil, badRequest("invalid table: %v", err)
		}
		return tab, nil
	case req.Catalog != "":
		cat, err := fu.LookupCatalog(req.Catalog)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		tab, err := cat.TableFor(g.N(), func(v int) string { return g.Node(dfg.NodeID(v)).Op })
		if err != nil {
			return nil, badRequest("catalog %q cannot cover this graph: %v", req.Catalog, err)
		}
		return tab, nil
	case req.Seed != nil:
		types := req.Types
		if types == 0 {
			types = 3
		}
		if types < 1 || types > 16 {
			return nil, badRequest("types must be in [1,16], got %d", types)
		}
		return fu.RandomTable(rand.New(rand.NewSource(*req.Seed)), g.N(), types), nil
	default:
		return nil, badRequest("a table is required: set table, catalog or seed")
	}
}

// applyComputeDeadline folds the X-Hetsynth-Deadline-Ms request header into
// the spec's compute budget: when present it must be a positive integer
// millisecond count, and the effective timeout becomes the minimum of the
// header and any body timeout_ms (the server-side cap still applies on top).
// A malformed header is a 400 — silently ignoring it would let a client
// believe a deadline is being honored when it is not.
func applyComputeDeadline(spec *solveSpec, r *http.Request) *apiError {
	ms, aerr := computeDeadlineMS(r)
	if aerr != nil {
		return aerr
	}
	if ms > 0 && (spec.timeout == 0 || ms < spec.timeout) {
		spec.timeout = ms
	}
	return nil
}

// computeDeadlineMS parses the DeadlineHeader: 0 when absent, the positive
// millisecond count when well-formed, a 400 apiError otherwise.
func computeDeadlineMS(r *http.Request) (int, *apiError) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || ms <= 0 {
		return 0, badRequest("invalid %s header %q: want a positive integer millisecond count", DeadlineHeader, h)
	}
	return ms, nil
}

// errSessionEvicted is the cancellation cause of a session's context: a
// solve it kills was aborted by a DELETE, TTL, LRU or shutdown eviction, not
// by the client, so the request answers 404 ("evicted → re-PUT").
var errSessionEvicted = errors.New("instance session evicted")

// solveErrCause swaps a solve's context error for ctx's cancellation cause,
// telling an evicted session (errSessionEvicted) apart from a client that
// went away (context.Canceled) and a spent budget. Other errors pass through.
func solveErrCause(ctx context.Context, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}

// classifySolveErr maps solver errors onto HTTP statuses: infeasible and
// oversized instances are unprocessable (the request was well-formed), shape
// errors are the client picking the wrong algorithm (400), timeouts are 504,
// a session eviction (errSessionEvicted, see solveErrCause) is 404, other
// cancellations 499 (client closed request, nginx-style), anything else 500.
func classifySolveErr(err error) *apiError {
	switch {
	case errors.Is(err, errSessionEvicted):
		return &apiError{Status: 404, Msg: "instance session evicted"}
	case errors.Is(err, hap.ErrInfeasible):
		return &apiError{Status: 422, Msg: "infeasible: no assignment meets the timing constraint"}
	case errors.Is(err, hap.ErrShape):
		return &apiError{Status: 400, Msg: err.Error()}
	case errors.Is(err, hap.ErrSearchTooLarge):
		return &apiError{Status: 422, Msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{Status: 504, Msg: "solve exceeded its time budget"}
	case errors.Is(err, context.Canceled):
		return &apiError{Status: 499, Msg: "solve canceled"}
	default:
		return &apiError{Status: 500, Msg: err.Error()}
	}
}
