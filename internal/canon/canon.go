// Package canon computes canonical digests of synthesis requests so that a
// serving layer can key caches and collapse duplicate work. Two requests
// that describe the same computation — same graph structure (names, op
// classes, edges with delays), same time/cost table, same deadline, same
// algorithm — always hash to the same digest, regardless of how the request
// arrived (inline JSON, benchmark name, catalog name): digests are computed
// over the *resolved* problem, never over the request encoding.
//
// Two key spaces are exposed:
//
//   - Instance(graph, table): deadline- and algorithm-independent. Keys the
//     per-instance artifacts that amortize across a design-space
//     exploration, e.g. a tree's cost-versus-deadline frontier.
//   - Request(graph, table, deadline, algo): the full solve key.
//
// Keys computes both in one pass over the problem; serving hot paths use it
// so the instance encoding — by far the bulk of the work — is built once.
//
// The digest is SHA-256 over an unambiguous binary encoding: every variable-
// length field is length-prefixed, every integer is fixed-width, and section
// tags separate the graph, table, and scalar parts, so no two distinct
// problems can serialize to the same byte stream. The encoding is built in a
// pooled scratch buffer and hashed in one shot, so digesting allocates only
// the returned hex strings regardless of problem size.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// encPool recycles the encoding scratch buffers. Buffers grow to the largest
// problem they have seen and are reused verbatim; the pool hands them out
// exclusively, so no two digests ever share a live buffer.
var encPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// appendUvarint appends a varint; used only for lengths and tags, which are
// unambiguous because every field is written in a fixed order.
func appendUvarint(b []byte, x uint64) []byte {
	return binary.AppendUvarint(b, x)
}

func appendInt(b []byte, x int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(x))
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendGraph(b []byte, g *dfg.Graph) []byte {
	b = append(b, 'G')
	n := g.N()
	b = appendUvarint(b, uint64(n))
	for v := 0; v < n; v++ {
		node := g.Node(dfg.NodeID(v))
		b = appendString(b, node.Name)
		b = appendString(b, node.Op)
	}
	m := g.M()
	b = appendUvarint(b, uint64(m))
	for i := 0; i < m; i++ {
		e := g.Edge(i)
		b = appendInt(b, int64(e.From))
		b = appendInt(b, int64(e.To))
		b = appendInt(b, int64(e.Delays))
	}
	return b
}

func appendTable(b []byte, t *fu.Table) []byte {
	b = append(b, 'T')
	b = appendUvarint(b, uint64(t.N()))
	b = appendUvarint(b, uint64(t.K()))
	for v := range t.Time {
		for k := range t.Time[v] {
			b = appendInt(b, int64(t.Time[v][k]))
		}
	}
	for v := range t.Cost {
		for k := range t.Cost[v] {
			b = appendInt(b, t.Cost[v][k])
		}
	}
	return b
}

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Instance digests the deadline-independent part of a problem: the graph
// and the time/cost table. Artifacts valid across deadlines (frontiers,
// reusable solvers) are keyed by it.
//
// hetsynth:hotpath
func Instance(g *dfg.Graph, t *fu.Table) string {
	bp := encPool.Get().(*[]byte)
	b := appendTable(appendGraph((*bp)[:0], g), t)
	d := hexSum(b)
	*bp = b
	encPool.Put(bp)
	return d
}

// AdmitTask is the resolved per-task content digested into an admission
// key: one periodic HAP instance plus its period and relative deadline.
type AdmitTask struct {
	Graph    *dfg.Graph
	Table    *fu.Table
	Period   int
	Deadline int
}

// AdmitKey digests a resolved admission request — the ordered task set plus
// either a fixed configuration (cfg non-nil) or the search parameters
// (prices, maxPerType) — together with the analysis option maxCandidates.
// Like Request, it hashes the resolved problem, so the same fleet submitted
// via benchmarks or inline graphs keys identically. One pass, one SHA-256.
func AdmitKey(tasks []AdmitTask, cfg []int, prices []int64, maxPerType, maxCandidates int) string {
	bp := encPool.Get().(*[]byte)
	b := append((*bp)[:0], 'A')
	b = appendUvarint(b, uint64(len(tasks)))
	for _, t := range tasks {
		b = appendTable(appendGraph(b, t.Graph), t.Table)
		b = append(b, 'P')
		b = appendInt(b, int64(t.Period))
		b = appendInt(b, int64(t.Deadline))
	}
	if cfg != nil {
		b = append(b, 'C')
		b = appendUvarint(b, uint64(len(cfg)))
		for _, m := range cfg {
			b = appendInt(b, int64(m))
		}
	} else {
		b = append(b, 'S')
		b = appendUvarint(b, uint64(len(prices)))
		for _, p := range prices {
			b = appendInt(b, p)
		}
		b = appendInt(b, int64(maxPerType))
	}
	b = appendInt(b, int64(maxCandidates))
	d := hexSum(b)
	*bp = b
	encPool.Put(bp)
	return d
}

// Keys digests a request and its instance in one pass: the instance encoding
// is built once and hashed, then extended with the deadline/algorithm suffix
// and hashed again. The two digests are byte-identical to what Request and
// Instance return separately.
//
// hetsynth:hotpath
func Keys(g *dfg.Graph, t *fu.Table, deadline int, algo string) (request, instance string) {
	bp := encPool.Get().(*[]byte)
	b := appendTable(appendGraph((*bp)[:0], g), t)
	instance = hexSum(b)
	b = append(b, 'R')
	b = appendInt(b, int64(deadline))
	b = appendString(b, algo)
	request = hexSum(b)
	*bp = b
	encPool.Put(bp)
	return request, instance
}
