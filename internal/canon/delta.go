package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// InstanceEnc is a retained canonical instance encoding that absorbs deltas
// without re-encoding the whole problem: a row edit overwrites the row's
// fixed-width span in the table section in place, and a structural edit
// re-encodes only the graph section. Digesting after a delta is then one
// SHA-256 over the retained bytes — no graph walk, no table walk — which is
// what makes a patched session's digest cheap while staying byte-identical
// to Instance/Keys of the equivalent whole instance.
//
// The encoding layout is exactly the one Instance and Keys hash: the graph
// section ('G', nodes, edges) followed by the table section ('T', N, K,
// times, costs), each integer fixed-width. InstanceEnc is not safe for
// concurrent use; callers (a session holding one) serialize access.
type InstanceEnc struct {
	graph []byte // 'G' section
	table []byte // 'T' section
	n, k  int
	thdr  int // table-section header length: tag + uvarint(N) + uvarint(K)
}

// NewInstanceEnc builds the retained encoding of (g, t). The table must
// cover the graph's nodes; table dimensions are frozen (deltas cannot add
// nodes or types — that is a new instance).
func NewInstanceEnc(g *dfg.Graph, t *fu.Table) *InstanceEnc {
	e := &InstanceEnc{n: t.N(), k: t.K()}
	e.graph = appendGraph(nil, g)
	e.table = appendTable(nil, t)
	e.thdr = 1 + uvarintLen(uint64(e.n)) + uvarintLen(uint64(e.k))
	return e
}

// SetRow overwrites node v's time and cost spans in the table section, in
// place: O(K) byte writes, no reallocation. The caller has already
// validated the row values; only the coordinates are checked here.
func (e *InstanceEnc) SetRow(v int, times []int, costs []int64) error {
	if v < 0 || v >= e.n {
		return fmt.Errorf("canon: SetRow node %d out of range [0,%d)", v, e.n)
	}
	if len(times) != e.k || len(costs) != e.k {
		return fmt.Errorf("canon: SetRow row has %d/%d entries, want %d", len(times), len(costs), e.k)
	}
	off := e.thdr + v*e.k*8
	for j, x := range times {
		binary.LittleEndian.PutUint64(e.table[off+j*8:], uint64(x))
	}
	off = e.thdr + (e.n+v)*e.k*8
	for j, x := range costs {
		binary.LittleEndian.PutUint64(e.table[off+j*8:], uint64(x))
	}
	return nil
}

// SetGraph re-encodes the graph section from g after a structural delta
// (edge insertion/removal). The node set must be unchanged; only the edge
// list differs, so the table section is untouched.
func (e *InstanceEnc) SetGraph(g *dfg.Graph) {
	e.graph = appendGraph(e.graph[:0], g)
}

// Keys returns the request and instance digests for the current encoding
// plus a deadline and algorithm — byte-identical to canon.Keys of the
// equivalent whole problem.
func (e *InstanceEnc) Keys(deadline int, algo string) (request, instance string) {
	h := sha256.New()
	h.Write(e.graph)
	h.Write(e.table)
	instance = hex.EncodeToString(h.Sum(nil))
	var sfx []byte
	sfx = append(sfx, 'R')
	sfx = appendInt(sfx, int64(deadline))
	sfx = appendString(sfx, algo)
	h.Write(sfx)
	request = hex.EncodeToString(h.Sum(nil))
	return request, instance
}
