package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"hetsynth/internal/benchdfg"
	"hetsynth/internal/canon"
	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
	"hetsynth/internal/server"
)

// Request kinds. Each generated request carries one; latency breakdowns and
// the verifier dispatch on it.
const (
	kindReadJSON = "read-json"  // sweep-hot: single /v1/solve, JSON, bench by name
	kindReadBin  = "read-bin"   // sweep-hot: single /v1/solve, HSB1 inline instance
	kindBatch    = "read-batch" // sweep-hot: 16-entry /v1/solve-batch deadline sweep
	kindPatch    = "patch"      // sweep-hot: single-op session PATCH
	kindTreeJSON = "tree-json"  // inline-cold: fresh out-tree, JSON
	kindTreeBin  = "tree-bin"   // inline-cold: fresh out-tree, HSB1
	kindDAGJSON  = "dag-json"   // inline-cold: fresh sparse DAG with schedule, JSON
	kindDAGBin   = "dag-bin"    // inline-cold: fresh sparse DAG with schedule, HSB1
)

// Request is one generated HTTP request. Everything the verifier and the
// traced run need to re-derive the expected answer travels with it, so a
// request is self-describing once generated.
type Request struct {
	Kind   string
	Method string
	Path   string
	Bin    bool // HSB1 body and response
	Body   []byte

	// Solve requests: the instance, its deadline and whether phase 2 ran.
	// Batch requests hold the shared instance and the first deadline; the
	// entries sweep Deadline..Deadline+batchSize-1.
	Inst     *Instance
	Deadline int
	Schedule bool

	// Patch requests: the session's owner and the single op sent.
	Client int
	Op     server.PatchOp
}

// Instance is one problem instance (graph + table) with the facts the
// generator and verifier share.
type Instance struct {
	Name  string // bench name, or "" for generated graphs
	TSeed int64  // table seed for bench instances
	Graph *dfg.Graph
	Table *fu.Table
	MinMk int  // minimum makespan: the slack-0 deadline
	Tree  bool // out- or in-forest: the tree DP is the answer
	gjson []byte
	tpay  *server.TablePayload
}

// Workload generates requests deterministically from a seed: request i of
// client c depends only on (seed, c, i), so the verifier and the traced run
// can regenerate any request without storing it.
type Workload interface {
	// Request returns request i of client c.
	Request(c, i int) *Request
	// Routed reports whether the measured load goes through the router in
	// front of two nodes (true) or straight to one node (false).
	Routed() bool
}

// workloadNames lists the workloads the command accepts.
var workloadNames = []string{"sweep-hot", "inline-cold"}

// newWorkload builds the named workload for a seed.
func newWorkload(name string, seed int64) (Workload, error) {
	switch name {
	case "sweep-hot":
		return newSweepHot(seed)
	case "inline-cold":
		return &inlineCold{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// rngFor returns the generator of request i of client c under seed. The
// three coordinates are hashed together so neighbouring requests draw
// unrelated streams. The source is a splitmix64 generator: a fresh
// math/rand source per request would allocate ~5 KB each, and at sweep-hot's
// request rate the load generator's garbage collection would compete with
// the daemons for the same cores.
func rngFor(seed int64, c, i int) *rand.Rand {
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(c))
	binary.LittleEndian.PutUint64(b[16:], uint64(i))
	h.Write(b[:])
	return rand.New(&splitmix{state: h.Sum64()})
}

// splitmix is the splitmix64 generator as a math/rand source.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// newInstance wraps a graph and table, computing the derived facts once.
func newInstance(name string, tseed int64, g *dfg.Graph, tab *fu.Table) *Instance {
	mk, err := hap.MinMakespan(g, tab)
	if err != nil {
		panic(fmt.Sprintf("generated instance has no makespan: %v", err))
	}
	return &Instance{Name: name, TSeed: tseed, Graph: g, Table: tab, MinMk: mk,
		Tree: g.IsOutForest() || g.IsInForest()}
}

// graphJSON returns the instance's graph in the server's JSON graph format.
func (in *Instance) graphJSON() []byte {
	if in.gjson == nil {
		b, err := in.Graph.MarshalJSON()
		if err != nil {
			panic(err)
		}
		in.gjson = b
	}
	return in.gjson
}

// tablePayload returns the instance's table in wire form.
func (in *Instance) tablePayload() *server.TablePayload {
	if in.tpay == nil {
		in.tpay = &server.TablePayload{Time: in.Table.Time, Cost: in.Table.Cost}
	}
	return in.tpay
}

// inlineSolveRequest is the inline-instance solve body for in at deadline.
func (in *Instance) inlineSolveRequest(deadline int, schedule bool) *server.SolveRequest {
	return &server.SolveRequest{Graph: in.graphJSON(), Table: in.tablePayload(),
		Deadline: deadline, Schedule: schedule}
}

// byNameSolveRequest is the bench-by-name solve body for a bench instance.
func (in *Instance) byNameSolveRequest(deadline int) *server.SolveRequest {
	seed := in.TSeed
	return &server.SolveRequest{Bench: in.Name, Seed: &seed, Deadline: deadline}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// binSolveBody encodes an inline-instance /v1/solve request for in at
// deadline as an HSB1 frame. server.EncodeBinSolveRequest builds the same
// bytes from a JSON-shaped request, but only by parsing the graph's JSON
// back; encoding straight from the graph keeps the load generator's CPU —
// which competes with the daemons for the same cores — to a fraction.
// TestBinSolveBodyMatchesServerEncoder pins the two encodings together.
func binSolveBody(in *Instance, deadline int, schedule bool) []byte {
	b := []byte{'H', 'S', 'B', '1', binMsgSolveReq, 0, 0, 0, 0}
	var flags byte
	if schedule {
		flags |= binFlagSchedule
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(deadline))
	b = binary.AppendUvarint(b, 0) // algorithm: "" (auto)
	b = append(b, binSrcInline)
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	b = canon.AppendInstance(b, in.Graph, in.Table)
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	binary.LittleEndian.PutUint32(b[5:], uint32(len(b)-9))
	return b
}

// HSB1 solve-request constants (see server/wire.go).
const (
	binMsgSolveReq  = 1
	binFlagSchedule = 1 << 0
	binSrcInline    = 0
)

// ---- sweep-hot ----

// Sweep-hot shape. The working set is the paper's six benchmarks times
// hotTableSeeds random tables times hotSlacks deadlines; every read hits it.
const (
	hotTableSeeds = 3
	hotSlacks     = 16 // slack 0..15 above the minimum makespan
	batchSize     = hotSlacks
	sessionNodes  = 2047
	sessionTypes  = 3
	hotWriteShare = 0.10
	hotBatchShare = 0.10 // of reads; the rest split evenly JSON/HSB1
	// sessionTrees is how many distinct session trees the working set
	// holds; stream s edits tree s mod sessionTrees.
	sessionTrees = 4
)

// paperBenchmarks are the six DSP benchmarks of the paper's Tables 1-2.
var paperBenchmarks = []string{"4-stage-lattice", "8-stage-lattice", "volterra", "diffeq", "rls-laguerre", "elliptic"}

// sweepHot is the cached-read + session-write workload behind the router.
// Its working set — bench instances, table seeds and session trees — is
// fixed; the seed drives the request mix, the order and the session edits.
type sweepHot struct {
	seed  int64
	insts []*Instance
	// Pre-encoded read bodies, [inst][slack].
	json, bin [][][]byte
	batch     [][]byte // [inst], deadlines minMk .. minMk+15
	// Session trees and their safe deadlines.
	sessions []*Instance
	bases    []int
}

func newSweepHot(seed int64) (*sweepHot, error) {
	w := &sweepHot{seed: seed}
	for _, name := range paperBenchmarks {
		b, ok := benchdfg.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("benchmark %q missing from the registry", name)
		}
		for ts := int64(1); ts <= hotTableSeeds; ts++ {
			g := b.Build()
			// The same draw the server performs for {"seed": ts} (types 3).
			tab := fu.RandomTable(rand.New(rand.NewSource(ts)), g.N(), 3)
			w.insts = append(w.insts, newInstance(name, ts, g, tab))
		}
	}
	w.json = make([][][]byte, len(w.insts))
	w.bin = make([][][]byte, len(w.insts))
	w.batch = make([][]byte, len(w.insts))
	for i, in := range w.insts {
		w.json[i] = make([][]byte, hotSlacks)
		w.bin[i] = make([][]byte, hotSlacks)
		entries := make([]server.SolveRequest, hotSlacks)
		for s := 0; s < hotSlacks; s++ {
			d := in.MinMk + s
			w.json[i][s] = mustJSON(in.byNameSolveRequest(d))
			w.bin[i][s] = binSolveBody(in, d, false)
			entries[s] = *in.byNameSolveRequest(d)
		}
		w.batch[i] = mustJSON(&server.BatchRequest{Entries: entries})
	}
	// The session trees are part of the fixed working set, like the bench
	// instances: one tree's depth profile sets the cost of every edit to
	// it, so drawing the trees from the seed would make the seed, not the
	// code, decide the write cost. The seed drives the edits themselves.
	for c := 0; c < sessionTrees; c++ {
		rng := rngFor(0, -1-c, 0)
		g := dfg.RandomTree(rng, sessionNodes)
		in := newInstance("", 0, g, fu.RandomTable(rng, g.N(), sessionTypes))
		w.sessions = append(w.sessions, in)
		w.bases = append(w.bases, safeDeadline(in))
	}
	return w, nil
}

func (w *sweepHot) Routed() bool { return true }

// readRequests lists every distinct read of the working set once: the
// cache-filling pass of set-up.
func (w *sweepHot) readRequests() []*Request {
	var out []*Request
	for i := range w.insts {
		for s := 0; s < hotSlacks; s++ {
			out = append(out, w.read(kindReadJSON, i, s), w.read(kindReadBin, i, s))
		}
		out = append(out, w.read(kindBatch, i, 0))
	}
	return out
}

func (w *sweepHot) read(kind string, i, s int) *Request {
	in := w.insts[i]
	r := &Request{Kind: kind, Method: "POST", Path: "/v1/solve", Inst: in, Deadline: in.MinMk + s}
	switch kind {
	case kindReadJSON:
		r.Body = w.json[i][s]
	case kindReadBin:
		r.Body, r.Bin = w.bin[i][s], true
	case kindBatch:
		r.Path, r.Body, r.Deadline = "/v1/solve-batch", w.batch[i], in.MinMk
	}
	return r
}

// Request draws a read (90%) or a session write (10%).
func (w *sweepHot) Request(c, i int) *Request {
	rng := rngFor(w.seed, c, i)
	if rng.Float64() < hotWriteShare {
		return w.patch(c, rng)
	}
	inst := rng.Intn(len(w.insts))
	slack := rng.Intn(hotSlacks)
	switch u := rng.Float64(); {
	case u < hotBatchShare:
		return w.read(kindBatch, inst, 0)
	case u < hotBatchShare+(1-hotBatchShare)/2:
		return w.read(kindReadJSON, inst, slack)
	default:
		return w.read(kindReadBin, inst, slack)
	}
}

// sessionID names stream c's session.
func sessionID(prefix string, c int) string { return fmt.Sprintf("%s-c%d", prefix, c) }

// session returns a fresh copy of stream c's initial session instance: a
// random out-tree of sessionNodes nodes with a K=3 random table. Callers
// may mutate the copy (it is a client-side mirror).
func (w *sweepHot) session(c int) *Instance {
	in := w.sessions[c%sessionTrees]
	return &Instance{Graph: in.Graph, Table: in.Table.Clone(), MinMk: in.MinMk, Tree: true}
}

// sessionDeadline is stream c's initial (safe) session deadline.
func (w *sweepHot) sessionDeadline(c int) int { return w.bases[c%sessionTrees] }

// safeDeadline is a deadline every table the session can ever hold meets:
// fastest-type times are at most 3 steps (fu.RandomTable), so three steps
// per level of the tree bound the minimum makespan whatever rows set_row
// installs. Patches therefore never make the session infeasible.
func safeDeadline(in *Instance) int {
	depth := make([]int, in.Graph.N())
	order, _ := in.Graph.TopoOrder()
	max := 0
	for _, v := range order {
		for _, u := range in.Graph.Pred(v) {
			if depth[u]+1 > depth[v] {
				depth[v] = depth[u] + 1
			}
		}
		if depth[v] > max {
			max = depth[v]
		}
	}
	return 3 * (max + 1)
}

// sessionPut is the PUT body creating stream c's session.
func (w *sweepHot) sessionPut(c int) []byte {
	return mustJSON(w.sessions[c%sessionTrees].inlineSolveRequest(w.sessionDeadline(c), false))
}

// patch draws one single-op PATCH: a fresh random row for a random node, or
// a deadline retarget within 15 steps above the safe deadline.
func (w *sweepHot) patch(c int, rng *rand.Rand) *Request {
	var op server.PatchOp
	if rng.Intn(2) == 0 {
		node := rng.Intn(sessionNodes)
		row := fu.RandomTable(rng, 1, sessionTypes)
		op = server.PatchOp{Op: "set_row", Node: &node, Time: row.Time[0], Cost: row.Cost[0]}
	} else {
		op = server.PatchOp{Op: "set_deadline", Deadline: w.sessionDeadline(c) + rng.Intn(hotSlacks)}
	}
	return &Request{Kind: kindPatch, Method: "PATCH", Path: "/v1/instances/" + sessionID("bench", c),
		Body: mustJSON(&server.PatchRequest{Ops: []server.PatchOp{op}}), Client: c, Op: op}
}

// ---- inline-cold ----

// Inline-cold shape: out-trees of 256..4095 nodes (K=4) and sparse DAGs of
// 40..200 nodes scheduled through phase 2 (K=3), each kind split evenly
// between JSON and HSB1. Every request is a fresh instance. Trees are 60%
// of the mix, not half: scheduled DAGs answer several times faster than
// trees, and at an even split the median would sit in the gap between the
// two populations, where it jumps from run to run.
const (
	coldTreeShare = 0.6
	coldTreeMin   = 256
	coldTreeMax   = 4095
	coldTreeK     = 4
	coldDAGMin    = 40
	coldDAGMax    = 200
	coldDAGK      = 3
	coldSlacks    = 16
)

type inlineCold struct{ seed int64 }

func (w *inlineCold) Routed() bool { return false }

// Request draws a fresh tree or scheduled DAG instance.
func (w *inlineCold) Request(c, i int) *Request {
	rng := rngFor(w.seed, c, i)
	tree := rng.Float64() < coldTreeShare
	bin := rng.Intn(2) == 0
	var in *Instance
	if tree {
		n := coldTreeMin + rng.Intn(coldTreeMax-coldTreeMin+1)
		g := dfg.RandomTree(rng, n)
		in = newInstance("", 0, g, fu.RandomTable(rng, n, coldTreeK))
	} else {
		n := coldDAGMin + rng.Intn(coldDAGMax-coldDAGMin+1)
		g := dfg.RandomDAG(rng, n, 1.5/float64(n))
		in = newInstance("", 0, g, fu.RandomTable(rng, n, coldDAGK))
	}
	d := in.MinMk + rng.Intn(coldSlacks)
	r := &Request{Method: "POST", Path: "/v1/solve", Inst: in, Deadline: d, Schedule: !tree, Bin: bin}
	if bin {
		r.Body = binSolveBody(in, d, !tree)
	} else {
		r.Body = mustJSON(in.inlineSolveRequest(d, !tree))
	}
	switch {
	case tree && bin:
		r.Kind = kindTreeBin
	case tree:
		r.Kind = kindTreeJSON
	case bin:
		r.Kind = kindDAGBin
	default:
		r.Kind = kindDAGJSON
	}
	return r
}
