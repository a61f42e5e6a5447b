package ilp

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimplexTextbookLP(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (as min of the
	// negation): optimum x=2, y=6, objective 36.
	p := lp{
		c: []float64{-3, -5},
		rows: []row{
			{a: []float64{1, 0}, rel: LE, b: 4},
			{a: []float64{0, 2}, rel: LE, b: 12},
			{a: []float64{3, 2}, rel: LE, b: 18},
		},
	}
	x, obj, st := solveSimplex(p, 0)
	if st != Optimal {
		t.Fatalf("status %v", st)
	}
	if !almost(x[0], 2) || !almost(x[1], 6) || !almost(obj, -36) {
		t.Fatalf("x=%v obj=%v", x, obj)
	}
}

func TestSimplexGEAndEQ(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x == 4 -> x=4, y=6, obj 26.
	p := lp{
		c: []float64{2, 3},
		rows: []row{
			{a: []float64{1, 1}, rel: GE, b: 10},
			{a: []float64{1, 0}, rel: EQ, b: 4},
		},
	}
	x, obj, st := solveSimplex(p, 0)
	if st != Optimal {
		t.Fatalf("status %v", st)
	}
	if !almost(x[0], 4) || !almost(x[1], 6) || !almost(obj, 26) {
		t.Fatalf("x=%v obj=%v", x, obj)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3 (i.e. x >= 3): x=3.
	p := lp{
		c:    []float64{1},
		rows: []row{{a: []float64{-1}, rel: LE, b: -3}},
	}
	x, obj, st := solveSimplex(p, 0)
	if st != Optimal || !almost(x[0], 3) || !almost(obj, 3) {
		t.Fatalf("x=%v obj=%v st=%v", x, obj, st)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x >= 5 and x <= 2 cannot hold.
	p := lp{
		c: []float64{1},
		rows: []row{
			{a: []float64{1}, rel: GE, b: 5},
			{a: []float64{1}, rel: LE, b: 2},
		},
	}
	if _, _, st := solveSimplex(p, 0); st != Infeasible {
		t.Fatalf("status %v, want infeasible", st)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// min -x with only x >= 1: unbounded below.
	p := lp{
		c:    []float64{-1},
		rows: []row{{a: []float64{1}, rel: GE, b: 1}},
	}
	if _, _, st := solveSimplex(p, 0); st != Unbounded {
		t.Fatalf("status %v, want unbounded", st)
	}
}

func TestModelValidation(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 1)
	if err := m.Add(map[int]float64{x + 5: 1}, LE, 1); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if m.VarName(x) != "x" {
		t.Fatalf("VarName = %q", m.VarName(x))
	}
}

func TestSolveMIPKnapsack(t *testing.T) {
	// 0/1 knapsack as a MIP: max 60a + 50b + 70c + 30d, 5a+4b+6c+3d <= 10.
	// Optimum 120 (b and c).
	m := NewModel()
	a := m.AddBinary("a", -60)
	b := m.AddBinary("b", -50)
	c := m.AddBinary("c", -70)
	d := m.AddBinary("d", -30)
	m.MustAdd(map[int]float64{a: 5, b: 4, c: 6, d: 3}, LE, 10)
	res, err := SolveMIP(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !almost(res.Obj, -120) {
		t.Fatalf("obj=%v status=%v", res.Obj, res.Status)
	}
	if !almost(res.X[b], 1) || !almost(res.X[c], 1) || !almost(res.X[a], 0) || !almost(res.X[d], 0) {
		t.Fatalf("x=%v", res.X)
	}
}

func TestSolveMIPForcesIntegrality(t *testing.T) {
	// LP optimum is fractional (x=y=0.5); the MIP must pay the integral
	// price: min x + y s.t. x + y >= 1 with both binary gives 1, but
	// 2x + 2y >= 3 forces x = y = 1 (cost 2) since 1.5 is unreachable.
	m := NewModel()
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.MustAdd(map[int]float64{x: 2, y: 2}, GE, 3)
	res, err := SolveMIP(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !almost(res.Obj, 2) {
		t.Fatalf("obj=%v status=%v", res.Obj, res.Status)
	}
}

func TestSolveMIPInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	m.MustAdd(map[int]float64{x: 1}, GE, 2) // binary cannot reach 2
	res, err := SolveMIP(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestSolveMIPNodeBudget(t *testing.T) {
	m := NewModel()
	// A model engineered to branch: many symmetric binaries summing to a
	// half-integral target.
	coef := map[int]float64{}
	for i := 0; i < 12; i++ {
		v := m.AddBinary("v", 1)
		coef[v] = 2
	}
	m.MustAdd(coef, GE, 11)
	if _, err := SolveMIP(m, Options{MaxNodes: 2}); err == nil {
		t.Fatal("node budget not enforced")
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 10b + s  s.t. s >= 4 - 6b, s >= 0, b binary.
	// b=0 -> s=4 cost 4; b=1 -> s=0 cost 10. Optimum 4.
	m := NewModel()
	b := m.AddBinary("b", 10)
	s := m.AddVar("s", 1)
	m.SetUpper(s, 100)
	m.MustAdd(map[int]float64{s: 1, b: 6}, GE, 4)
	res, err := SolveMIP(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !almost(res.Obj, 4) {
		t.Fatalf("obj=%v status=%v x=%v", res.Obj, res.Status, res.X)
	}
}

// NumVars reports the number of variables.
func (m *Model) NumVars() int { return m.nvars }

// VarName returns the label of variable v.
func (m *Model) VarName(v int) string { return m.name[v] }
