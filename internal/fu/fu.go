// Package fu models libraries of heterogeneous functional-unit (FU) types
// and the per-node execution-time/cost tables the assignment algorithms
// consume.
//
// A Library describes the K available FU types (the paper's P1..PK). A
// Table binds a concrete graph to the library: Time[v][k] and Cost[v][k]
// give the execution time (in control steps) and execution cost of node v
// when it runs on an FU of type k. The cost dimension is deliberately
// abstract — the paper uses the same machinery for energy, monetary cost
// and reliability cost (see ReliabilityCosts).
package fu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// TypeID indexes an FU type within a Library: 0..K-1.
type TypeID int

// Type describes one FU type.
type Type struct {
	Name string
	// FailureRate is the per-time-unit failure rate λ used by the
	// reliability cost model; zero when reliability is not modeled.
	FailureRate float64
}

// Library is an ordered set of FU types.
type Library struct {
	types []Type
}

// NewLibrary builds a library from the given type descriptors.
func NewLibrary(types ...Type) (*Library, error) {
	if len(types) == 0 {
		return nil, errors.New("fu: library needs at least one FU type")
	}
	seen := make(map[string]bool, len(types))
	for _, ft := range types {
		if ft.Name == "" {
			return nil, errors.New("fu: empty FU type name")
		}
		if seen[ft.Name] {
			return nil, fmt.Errorf("fu: duplicate FU type name %q", ft.Name)
		}
		if ft.FailureRate < 0 {
			return nil, fmt.Errorf("fu: negative failure rate for %q", ft.Name)
		}
		seen[ft.Name] = true
	}
	return &Library{types: append([]Type(nil), types...)}, nil
}

// MustLibrary is NewLibrary for hand-built libraries; it panics on error.
func MustLibrary(types ...Type) *Library {
	lib, err := NewLibrary(types...)
	if err != nil {
		panic(err)
	}
	return lib
}

// StandardLibrary returns the paper's default three-type library: P1 is the
// quickest and most expensive type, P3 the slowest and cheapest.
func StandardLibrary() *Library {
	return MustLibrary(Type{Name: "P1"}, Type{Name: "P2"}, Type{Name: "P3"})
}

// K reports the number of FU types.
func (l *Library) K() int { return len(l.types) }

// Type returns the descriptor of type k.
func (l *Library) Type(k TypeID) Type {
	if k < 0 || int(k) >= len(l.types) {
		panic(fmt.Sprintf("fu: invalid type id %d (library has %d types)", k, len(l.types)))
	}
	return l.types[k]
}

// Name is shorthand for Type(k).Name.
func (l *Library) Name(k TypeID) string { return l.Type(k).Name }

// Table holds the per-(node, type) execution times and costs for one graph.
// Index [v][k]: node ID v, FU type k.
type Table struct {
	Time [][]int   // control steps; must be >= 1
	Cost [][]int64 // abstract cost; must be >= 0
}

// NewTable allocates an n-node table for a k-type library, zero-filled.
// Callers must populate every entry; Validate enforces it.
func NewTable(n, k int) *Table {
	// All rows are carved out of two flat arenas, so building a table costs
	// four allocations instead of 2n+2. Rows are full-slice expressions, so
	// an append to one row can never clobber its neighbor.
	t := &Table{Time: make([][]int, n), Cost: make([][]int64, n)}
	timeArena := make([]int, n*k)
	costArena := make([]int64, n*k)
	for v := 0; v < n; v++ {
		t.Time[v] = timeArena[v*k : (v+1)*k : (v+1)*k]
		t.Cost[v] = costArena[v*k : (v+1)*k : (v+1)*k]
	}
	return t
}

// N reports the number of nodes covered by the table.
func (t *Table) N() int { return len(t.Time) }

// K reports the number of FU types covered by the table.
func (t *Table) K() int {
	if len(t.Time) == 0 {
		return 0
	}
	return len(t.Time[0])
}

// Set fills the row of node v: one (time, cost) pair per FU type.
func (t *Table) Set(v int, times []int, costs []int64) error {
	if v < 0 || v >= len(t.Time) {
		return fmt.Errorf("fu: node %d out of table range %d", v, len(t.Time))
	}
	if len(times) != t.K() || len(costs) != t.K() {
		return fmt.Errorf("fu: row for node %d has %d/%d entries, want %d", v, len(times), len(costs), t.K())
	}
	copy(t.Time[v], times)
	copy(t.Cost[v], costs)
	return nil
}

// MustSet is Set for hand-built tables; it panics on error.
func (t *Table) MustSet(v int, times []int, costs []int64) {
	if err := t.Set(v, times, costs); err != nil {
		panic(err)
	}
}

// Validate checks that the table is rectangular, that every execution time
// is at least one control step, and that no cost is negative.
func (t *Table) Validate() error {
	k := t.K()
	if k == 0 {
		return errors.New("fu: table covers no FU types")
	}
	for v := range t.Time {
		if len(t.Time[v]) != k || len(t.Cost[v]) != k {
			return fmt.Errorf("fu: ragged table row %d", v)
		}
		for j := 0; j < k; j++ {
			if t.Time[v][j] < 1 {
				return fmt.Errorf("fu: node %d type %d has execution time %d (< 1)", v, j, t.Time[v][j])
			}
			if t.Cost[v][j] < 0 {
				return fmt.Errorf("fu: node %d type %d has negative cost %d", v, j, t.Cost[v][j])
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	c := NewTable(t.N(), t.K())
	for v := range t.Time {
		copy(c.Time[v], t.Time[v])
		copy(c.Cost[v], t.Cost[v])
	}
	return c
}

// MinTime returns the smallest execution time of node v over all types.
func (t *Table) MinTime(v int) int {
	best := t.Time[v][0]
	for _, x := range t.Time[v][1:] {
		if x < best {
			best = x
		}
	}
	return best
}

// MaxTime returns the largest execution time of node v over all types.
func (t *Table) MaxTime(v int) int {
	best := t.Time[v][0]
	for _, x := range t.Time[v][1:] {
		if x > best {
			best = x
		}
	}
	return best
}

// MinCostType returns the type with the smallest cost for node v (ties: the
// faster type, then the lower index, so results are deterministic).
func (t *Table) MinCostType(v int) TypeID {
	best := TypeID(0)
	for k := 1; k < t.K(); k++ {
		switch {
		case t.Cost[v][k] < t.Cost[v][best]:
			best = TypeID(k)
		case t.Cost[v][k] == t.Cost[v][best] && t.Time[v][k] < t.Time[v][best]:
			best = TypeID(k)
		}
	}
	return best
}

// MinTimeType returns the type with the smallest execution time for node v
// (ties: the cheaper type, then the lower index).
func (t *Table) MinTimeType(v int) TypeID {
	best := TypeID(0)
	for k := 1; k < t.K(); k++ {
		switch {
		case t.Time[v][k] < t.Time[v][best]:
			best = TypeID(k)
		case t.Time[v][k] == t.Time[v][best] && t.Cost[v][k] < t.Cost[v][best]:
			best = TypeID(k)
		}
	}
	return best
}

// RandomTable draws a paper-style table for n nodes over a k-type library:
// execution times strictly increase with the type index while costs strictly
// decrease, matching "a FU with type P1 is the quickest with the highest
// cost and a FU with type PK is the slowest with the lowest cost". Times
// fall in [1, 3k]; costs start at 1..4 for the slowest type and climb by
// 1..16 per speed grade, giving the multi-x cost spread between fast and
// slow implementations that energy-model FU libraries show.
func RandomTable(rng *rand.Rand, n, k int) *Table {
	t := NewTable(n, k)
	for v := 0; v < n; v++ {
		tm := 1 + rng.Intn(3) // fastest type: 1..3 steps
		for j := 0; j < k; j++ {
			t.Time[v][j] = tm
			tm += 1 + rng.Intn(3)
		}
		c := int64(1 + rng.Intn(4)) // cheapest (slowest) type: 1..4 units
		for j := k - 1; j >= 0; j-- {
			t.Cost[v][j] = c
			c += int64(1 + rng.Intn(16))
		}
	}
	return t
}

// UniformTable gives every node the same rows; handy in tests and examples.
// hetsynth:keep test generator shared by several packages' tests
func UniformTable(n int, times []int, costs []int64) *Table {
	t := NewTable(n, len(times))
	for v := 0; v < n; v++ {
		t.MustSet(v, times, costs)
	}
	return t
}

// OpClassTable derives a table from per-operation-class rows: ops maps an
// operation class (e.g. "mul") to its (times, costs) rows, and opOf yields
// the class of each node. Nodes with an unknown class get the fallback rows
// registered under "", if present.
func OpClassTable(n, k int, opOf func(v int) string, ops map[string]Rows) (*Table, error) {
	t := NewTable(n, k)
	for v := 0; v < n; v++ {
		rows, ok := ops[opOf(v)]
		if !ok {
			rows, ok = ops[""]
		}
		if !ok {
			return nil, fmt.Errorf("fu: no rows for op class %q of node %d", opOf(v), v)
		}
		if err := t.Set(v, rows.Times, rows.Costs); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Rows couples the per-type times and costs of one operation class.
type Rows struct {
	Times []int
	Costs []int64
}

// ReliabilityCosts derives a reliability-cost table from execution times and
// the library's failure rates, following §2 of the paper: the reliability
// cost of node v on type k is T_k(v) · λ_k, scaled by `scale` and rounded to
// the nearest integer so the integer-cost algorithms apply. Minimizing the
// summed reliability cost maximizes the probability that the system does not
// fail while executing the DFG (product of per-node exp(−T·λ) terms).
func ReliabilityCosts(lib *Library, times [][]int, scale float64) (*Table, error) {
	if scale <= 0 {
		return nil, errors.New("fu: reliability cost scale must be positive")
	}
	k := lib.K()
	t := NewTable(len(times), k)
	for v := range times {
		if len(times[v]) != k {
			return nil, fmt.Errorf("fu: times row %d has %d entries, want %d", v, len(times[v]), k)
		}
		for j := 0; j < k; j++ {
			t.Time[v][j] = times[v][j]
			t.Cost[v][j] = int64(math.Round(float64(times[v][j]) * lib.Type(TypeID(j)).FailureRate * scale))
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// SystemReliability converts a summed reliability cost back to the
// probability that the system survives one execution of the DFG,
// exp(−cost/scale). It is the inverse view of ReliabilityCosts for
// reporting.
func SystemReliability(totalCost int64, scale float64) float64 {
	return math.Exp(-float64(totalCost) / scale)
}
