package ilp

import (
	"fmt"
	"math"
)

// Model is a mixed-integer linear program: minimize c·x subject to linear
// constraints, with every variable bounded below by 0 and optionally marked
// binary (branch-and-bound then forces it to {0, 1}).
type Model struct {
	nvars   int
	obj     []float64
	binary  []bool
	upper   []float64 // +Inf when unbounded above
	name    []string
	constrs []Constraint
}

// Constraint is one linear constraint: sum of Coef[v]·x_v Rel RHS.
type Constraint struct {
	Coef map[int]float64
	Rel  Rel
	RHS  float64
}

// NewModel returns an empty minimization model.
func NewModel() *Model { return &Model{} }

// AddVar adds a continuous variable with objective coefficient c and lower
// bound 0, returning its index.
func (m *Model) AddVar(name string, c float64) int {
	m.obj = append(m.obj, c)
	m.binary = append(m.binary, false)
	m.upper = append(m.upper, math.Inf(1))
	m.name = append(m.name, name)
	m.nvars++
	return m.nvars - 1
}

// AddBinary adds a 0/1 variable with objective coefficient c.
func (m *Model) AddBinary(name string, c float64) int {
	v := m.AddVar(name, c)
	m.binary[v] = true
	m.upper[v] = 1
	return v
}

// SetUpper bounds variable v above by ub.
func (m *Model) SetUpper(v int, ub float64) { m.upper[v] = ub }

// Add appends the constraint sum(coef_v · x_v) rel rhs.
func (m *Model) Add(coef map[int]float64, rel Rel, rhs float64) error {
	for v := range coef {
		if v < 0 || v >= m.nvars {
			return fmt.Errorf("%w: constraint references unknown variable %d", errModel, v)
		}
	}
	c := make(map[int]float64, len(coef))
	for v, x := range coef {
		c[v] = x
	}
	m.constrs = append(m.constrs, Constraint{Coef: c, Rel: rel, RHS: rhs})
	return nil
}

// MustAdd is Add for hand-built models; it panics on error.
func (m *Model) MustAdd(coef map[int]float64, rel Rel, rhs float64) {
	if err := m.Add(coef, rel, rhs); err != nil {
		panic(err)
	}
}

// relax builds the dense LP relaxation, folding in the variable bounds
// currently imposed (model bounds tightened by branch-and-bound fixings).
func (m *Model) relax(lo, hi []float64) lp {
	p := lp{c: append([]float64(nil), m.obj...)}
	for _, c := range m.constrs {
		a := make([]float64, m.nvars)
		for v, x := range c.Coef {
			a[v] = x
		}
		p.rows = append(p.rows, row{a: a, rel: c.Rel, b: c.RHS})
	}
	for v := 0; v < m.nvars; v++ {
		if !math.IsInf(hi[v], 1) {
			a := make([]float64, m.nvars)
			a[v] = 1
			p.rows = append(p.rows, row{a: a, rel: LE, b: hi[v]})
		}
		if lo[v] > 0 {
			a := make([]float64, m.nvars)
			a[v] = 1
			p.rows = append(p.rows, row{a: a, rel: GE, b: lo[v]})
		}
	}
	return p
}

// Result is the outcome of a MIP solve.
type Result struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int // branch-and-bound nodes explored
}

// Options tunes SolveMIP.
type Options struct {
	// MaxNodes bounds branch-and-bound nodes; 0 means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes is the default branch-and-bound budget.
const DefaultMaxNodes = 200_000

const intTol = 1e-6

// SolveMIP solves the model by LP-relaxation branch-and-bound on the binary
// variables (depth-first, most-fractional branching, incumbent pruning).
func SolveMIP(m *Model, opts Options) (Result, error) {
	budget := opts.MaxNodes
	if budget <= 0 {
		budget = DefaultMaxNodes
	}
	lo := make([]float64, m.nvars)
	hi := append([]float64(nil), m.upper...)

	best := Result{Status: Infeasible, Obj: math.Inf(1)}
	nodes := 0

	var rec func(lo, hi []float64) error
	rec = func(lo, hi []float64) error {
		nodes++
		if nodes > budget {
			return fmt.Errorf("ilp: branch-and-bound exceeded %d nodes", budget)
		}
		x, obj, st := solveSimplex(m.relax(lo, hi), 0)
		switch st {
		case Infeasible:
			return nil
		case Unbounded:
			// A relaxation unbounded below means the MIP is unbounded or
			// the model lacks bounds; surface it.
			return fmt.Errorf("ilp: LP relaxation unbounded")
		case IterLimit:
			return fmt.Errorf("ilp: simplex iteration limit")
		}
		if obj >= best.Obj-1e-9 {
			return nil // bound: cannot improve the incumbent
		}
		// Find the most fractional binary variable.
		branch := -1
		worst := intTol
		for v := 0; v < m.nvars; v++ {
			if !m.binary[v] {
				continue
			}
			f := math.Abs(x[v] - math.Round(x[v]))
			if f > worst {
				worst = f
				branch = v
			}
		}
		if branch < 0 {
			// Integral: new incumbent.
			best = Result{Status: Optimal, X: append([]float64(nil), x...), Obj: obj}
			return nil
		}
		// Explore the side the relaxation leans toward first.
		first, second := 1.0, 0.0
		if x[branch] < 0.5 {
			first, second = 0.0, 1.0
		}
		for _, val := range []float64{first, second} {
			lo2 := append([]float64(nil), lo...)
			hi2 := append([]float64(nil), hi...)
			lo2[branch], hi2[branch] = val, val
			if err := rec(lo2, hi2); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(lo, hi); err != nil {
		return Result{}, err
	}
	best.Nodes = nodes
	if best.Status != Optimal {
		return Result{Status: Infeasible, Nodes: nodes}, nil
	}
	return best, nil
}
