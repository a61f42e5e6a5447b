package fu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLibraryValidation(t *testing.T) {
	if _, err := NewLibrary(); err == nil {
		t.Error("empty library accepted")
	}
	if _, err := NewLibrary(Type{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewLibrary(Type{Name: "P1"}, Type{Name: "P1"}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := NewLibrary(Type{Name: "P1", FailureRate: -1}); err == nil {
		t.Error("negative failure rate accepted")
	}
	lib, err := NewLibrary(Type{Name: "P1"}, Type{Name: "P2"})
	if err != nil {
		t.Fatal(err)
	}
	if lib.K() != 2 || lib.Name(1) != "P2" {
		t.Fatalf("library misbuilt: K=%d", lib.K())
	}
}

func TestLibraryLookup(t *testing.T) {
	lib := StandardLibrary()
	if lib.K() != 3 {
		t.Fatalf("standard library has %d types, want 3", lib.K())
	}
	// Types are looked up by id; names follow the paper's P1..P3.
	for k, want := range []string{"P1", "P2", "P3"} {
		if got := lib.Name(TypeID(k)); got != want || lib.Type(TypeID(k)).Name != want {
			t.Fatalf("type %d named %q, want %q", k, got, want)
		}
	}
}

func TestTypePanicsOnBadID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid type id")
		}
	}()
	StandardLibrary().Type(5)
}

func TestTableSetAndValidate(t *testing.T) {
	tab := NewTable(2, 3)
	if err := tab.Validate(); err == nil {
		t.Error("zero-filled table validated (times must be >= 1)")
	}
	if err := tab.Set(5, []int{1, 2, 3}, []int64{3, 2, 1}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := tab.Set(0, []int{1, 2}, []int64{3, 2, 1}); err == nil {
		t.Error("short row accepted")
	}
	tab.MustSet(0, []int{1, 2, 3}, []int64{9, 5, 1})
	tab.MustSet(1, []int{2, 4, 6}, []int64{8, 4, 2})
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	tab.Cost[1][0] = -1
	if err := tab.Validate(); err == nil {
		t.Error("negative cost validated")
	}
}

func TestTableSelectors(t *testing.T) {
	tab := NewTable(1, 4)
	tab.MustSet(0, []int{5, 2, 2, 7}, []int64{1, 6, 4, 1})
	if got := tab.MinTime(0); got != 2 {
		t.Errorf("MinTime = %d, want 2", got)
	}
	if got := tab.MaxTime(0); got != 7 {
		t.Errorf("MaxTime = %d, want 7", got)
	}
	// Min cost is 1, shared by types 0 and 3; type 0 is faster.
	if got := tab.MinCostType(0); got != 0 {
		t.Errorf("MinCostType = %d, want 0", got)
	}
	// Min time is 2, shared by types 1 and 2; type 2 is cheaper.
	if got := tab.MinTimeType(0); got != 2 {
		t.Errorf("MinTimeType = %d, want 2", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tab := UniformTable(2, []int{1, 2}, []int64{5, 1})
	c := tab.Clone()
	c.Time[0][0] = 99
	c.Cost[1][1] = 99
	if tab.Time[0][0] != 1 || tab.Cost[1][1] != 1 {
		t.Fatal("mutating clone changed original")
	}
}

func TestRandomTableMonotoneAndValid(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 1+rng.Intn(20), 2+rng.Intn(4)
		tab := RandomTable(rng, n, k)
		if tab.Validate() != nil {
			return false
		}
		for v := 0; v < n; v++ {
			for j := 1; j < k; j++ {
				if tab.Time[v][j] <= tab.Time[v][j-1] {
					return false // times must strictly increase
				}
				if tab.Cost[v][j] >= tab.Cost[v][j-1] {
					return false // costs must strictly decrease
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOpClassTable(t *testing.T) {
	ops := map[string]Rows{
		"mul": {Times: []int{2, 4}, Costs: []int64{8, 3}},
		"":    {Times: []int{1, 2}, Costs: []int64{4, 1}},
	}
	opOf := func(v int) string {
		if v == 0 {
			return "mul"
		}
		return "add" // unknown: falls back to ""
	}
	tab, err := OpClassTable(2, 2, opOf, ops)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Time[0][1] != 4 || tab.Cost[1][0] != 4 {
		t.Fatalf("table misderived: %+v", tab)
	}
	delete(ops, "")
	if _, err := OpClassTable(2, 2, opOf, ops); err == nil {
		t.Fatal("missing fallback row accepted")
	}
}

func TestReliabilityCosts(t *testing.T) {
	lib := MustLibrary(
		Type{Name: "fast", FailureRate: 0.004},
		Type{Name: "slow", FailureRate: 0.001},
	)
	times := [][]int{{1, 3}, {2, 5}}
	tab, err := ReliabilityCosts(lib, times, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// node 0: fast = 1*0.004*1000 = 4, slow = 3*0.001*1000 = 3.
	if tab.Cost[0][0] != 4 || tab.Cost[0][1] != 3 {
		t.Fatalf("node 0 costs = %v", tab.Cost[0])
	}
	// node 1: fast = 8, slow = 5.
	if tab.Cost[1][0] != 8 || tab.Cost[1][1] != 5 {
		t.Fatalf("node 1 costs = %v", tab.Cost[1])
	}
	if _, err := ReliabilityCosts(lib, [][]int{{1}}, 1000); err == nil {
		t.Error("ragged times row accepted")
	}
	if _, err := ReliabilityCosts(lib, times, 0); err == nil {
		t.Error("zero scale accepted")
	}
	// Choosing all-slow: total cost 3+5 = 8 -> reliability exp(-0.008).
	got := SystemReliability(8, 1000)
	want := math.Exp(-0.008)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("SystemReliability = %g, want %g", got, want)
	}
}

func TestUniformTable(t *testing.T) {
	tab := UniformTable(3, []int{1, 2, 3}, []int64{10, 5, 2})
	if tab.N() != 3 || tab.K() != 3 {
		t.Fatalf("dims %dx%d", tab.N(), tab.K())
	}
	for v := 0; v < 3; v++ {
		if tab.Time[v][2] != 3 || tab.Cost[v][0] != 10 {
			t.Fatalf("row %d wrong: %v %v", v, tab.Time[v], tab.Cost[v])
		}
	}
	if NewTable(0, 0).K() != 0 {
		t.Error("empty table K != 0")
	}
}
