package canon

import (
	"errors"
	"fmt"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// This file turns the digest encoding into a wire format. The canonical
// instance bytes ('G' graph section + 'T' table section) were designed to be
// unambiguous for hashing; the same property makes them self-delimiting, so a
// binary protocol can embed them verbatim and the server can digest the wire
// bytes directly — no decode-then-re-encode round trip on the hot path.
//
// That shortcut is sound only if decoding is *strict*: every byte stream that
// decodes successfully must re-encode to the identical bytes. Two rules
// enforce it — varints must be minimal (a padded length would hash
// differently than its canonical form), and every value must pass the same
// validation the JSON path applies (so a digest never keys an instance the
// server would have rejected). DecodeInstance checks both.

// MaxEntry caps decoded table times, costs, and edge delay counts. It mirrors
// the serving layer's inline-table bound: with at most one entry per 8 wire
// bytes, no longest-path or cost sum can overflow int64 below it.
const MaxEntry = 1 << 40

// ErrTruncated reports an encoding that ended mid-field.
var ErrTruncated = errors.New("canon: truncated encoding")

// AppendInstance appends the full instance encoding — exactly the bytes
// Instance digests.
func AppendInstance(b []byte, g *dfg.Graph, t *fu.Table) []byte {
	return appendTable(appendGraph(b, g), t)
}

// InstanceDigest is Instance over a pre-built instance encoding: inst must
// be the exact bytes AppendInstance produces. The digest is byte-identical
// to what Instance returns for the decoded problem, which is what lets a
// router key cache-affinity routing straight off the wire bytes of a binary
// request — one SHA-256, no decode, no re-encode.
//
// hetsynth:hotpath
func InstanceDigest(inst []byte) string { return hexSum(inst) }

// KeysEncoded is Keys over a pre-built instance encoding: inst must be the
// exact bytes AppendInstance produces (DecodeInstance guarantees this for
// validated wire input). The digests are byte-identical to what Keys returns
// for the decoded problem.
func KeysEncoded(inst []byte, deadline int, algo string) (request, instance string) {
	instance = hexSum(inst)
	bp := encPool.Get().(*[]byte)
	b := append((*bp)[:0], inst...)
	b = append(b, 'R')
	b = appendInt(b, int64(deadline))
	b = appendString(b, algo)
	request = hexSum(b)
	*bp = b
	encPool.Put(bp)
	return request, instance
}

// uvarintLen is the minimal encoded size of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// dec is a strict cursor over an encoding.
type dec struct {
	b   []byte
	off int
}

func (d *dec) remaining() int { return len(d.b) - d.off }

// uvarint reads a minimally-encoded varint.
func (d *dec) uvarint() (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; ; i++ {
		if d.off >= len(d.b) {
			return 0, ErrTruncated
		}
		if i == 10 {
			return 0, errors.New("canon: varint overflows uint64")
		}
		c := d.b[d.off]
		d.off++
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, errors.New("canon: non-minimal varint")
			}
			if i == 9 && c > 1 {
				return 0, errors.New("canon: varint overflows uint64")
			}
			return x | uint64(c)<<shift, nil
		}
		x |= uint64(c&0x7f) << shift
		shift += 7
	}
}

// int64 reads a fixed 8-byte little-endian integer.
func (d *dec) int64() (int64, error) {
	if d.remaining() < 8 {
		return 0, ErrTruncated
	}
	b := d.b[d.off:]
	d.off += 8
	return int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56), nil
}

// str reads a length-prefixed string.
func (d *dec) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", ErrTruncated
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *dec) tag(want byte) error {
	if d.off >= len(d.b) {
		return ErrTruncated
	}
	if d.b[d.off] != want {
		return fmt.Errorf("canon: expected section %q, found byte 0x%02x", want, d.b[d.off])
	}
	d.off++
	return nil
}

// DecodeInstance parses one canonical instance encoding from the front of b,
// returning the problem pieces, the instance bytes consumed (aliasing b), and
// the unconsumed tail. Decoding is strict: the consumed bytes are guaranteed
// to equal AppendInstance(nil, g, t), so digesting them (KeysEncoded) matches
// digesting the decoded problem (Keys). Every value is validated to the same
// bounds the JSON request path enforces; any violation fails the decode.
func DecodeInstance(b []byte) (g *dfg.Graph, t *fu.Table, inst, rest []byte, err error) {
	d := &dec{b: b}
	if err = d.tag('G'); err != nil {
		return nil, nil, nil, nil, err
	}
	nn, err := d.uvarint()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Each node contributes at least two length prefixes, each edge 24
	// bytes, each table entry 8: claimed counts beyond what the buffer can
	// hold are rejected before any allocation is sized by them.
	if nn == 0 || nn > uint64(d.remaining())/2 {
		return nil, nil, nil, nil, fmt.Errorf("canon: implausible node count %d", nn)
	}
	n := int(nn)
	g = dfg.New()
	g.Grow(n, 0)
	for v := 0; v < n; v++ {
		name, err := d.str()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		op, err := d.str()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if _, err := g.AddNode(name, op); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	mm, err := d.uvarint()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if mm > uint64(d.remaining())/24 {
		return nil, nil, nil, nil, fmt.Errorf("canon: implausible edge count %d", mm)
	}
	m := int(mm)
	g.Grow(0, m)
	for i := 0; i < m; i++ {
		from, err := d.int64()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		to, err := d.int64()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		delays, err := d.int64()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if from < 0 || from >= int64(n) || to < 0 || to >= int64(n) {
			return nil, nil, nil, nil, fmt.Errorf("canon: edge %d references node out of range", i)
		}
		if delays < 0 || delays > MaxEntry {
			return nil, nil, nil, nil, fmt.Errorf("canon: edge %d delay count %d out of range", i, delays)
		}
		if err := g.AddEdge(dfg.NodeID(from), dfg.NodeID(to), int(delays)); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if err = d.tag('T'); err != nil {
		return nil, nil, nil, nil, err
	}
	tn, err := d.uvarint()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if tn != nn {
		return nil, nil, nil, nil, fmt.Errorf("canon: table covers %d nodes, graph has %d", tn, nn)
	}
	kk, err := d.uvarint()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if kk == 0 || kk > uint64(d.remaining())/8 {
		return nil, nil, nil, nil, fmt.Errorf("canon: implausible type count %d", kk)
	}
	// nn and kk are individually buffer-bounded, so the product cannot
	// overflow; reject tables whose entries outrun the remaining bytes.
	if 2*nn*kk > uint64(d.remaining())/8 {
		return nil, nil, nil, nil, ErrTruncated
	}
	k := int(kk)
	t = fu.NewTable(n, k)
	for v := 0; v < n; v++ {
		for j := 0; j < k; j++ {
			x, err := d.int64()
			if err != nil {
				return nil, nil, nil, nil, err
			}
			if x < 1 || x > MaxEntry {
				return nil, nil, nil, nil, fmt.Errorf("canon: node %d type %d time %d out of range", v, j, x)
			}
			t.Time[v][j] = int(x)
		}
	}
	for v := 0; v < n; v++ {
		for j := 0; j < k; j++ {
			x, err := d.int64()
			if err != nil {
				return nil, nil, nil, nil, err
			}
			if x < 0 || x > MaxEntry {
				return nil, nil, nil, nil, fmt.Errorf("canon: node %d type %d cost %d out of range", v, j, x)
			}
			t.Cost[v][j] = x
		}
	}
	return g, t, b[:d.off], b[d.off:], nil
}
