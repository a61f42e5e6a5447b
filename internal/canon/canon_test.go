package canon

import (
	"bytes"
	"math/rand"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

func instance(seed int64) (*dfg.Graph, *fu.Table) {
	rng := rand.New(rand.NewSource(seed))
	g := dfg.RandomDAG(rng, 12, 0.2)
	t := fu.RandomTable(rng, g.N(), 3)
	return g, t
}

func TestDigestDeterministic(t *testing.T) {
	g, tab := instance(1)
	if Instance(g, tab) != Instance(g, tab) {
		t.Fatal("Instance digest not deterministic")
	}
	if requestKey(g, tab, 20, "auto") != requestKey(g, tab, 20, "auto") {
		t.Fatal("Request digest not deterministic")
	}
}

func TestDigestSurvivesJSONRoundTrip(t *testing.T) {
	g, tab := instance(2)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := dfg.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if Instance(g, tab) != Instance(g2, tab) {
		t.Fatal("digest changed across a JSON round trip of the same graph")
	}
}

func TestDigestSensitivity(t *testing.T) {
	g, tab := instance(3)
	base := requestKey(g, tab, 20, "auto")

	if requestKey(g, tab, 21, "auto") == base {
		t.Error("deadline change did not change the digest")
	}
	if requestKey(g, tab, 20, "repeat") == base {
		t.Error("algorithm change did not change the digest")
	}

	t2 := tab.Clone()
	t2.Time[0][0]++
	if requestKey(g, t2, 20, "auto") == base {
		t.Error("table time change did not change the digest")
	}
	t3 := tab.Clone()
	t3.Cost[1][1]++
	if requestKey(g, t3, 20, "auto") == base {
		t.Error("table cost change did not change the digest")
	}

	g2 := g.Clone()
	g2.MustAddNode("extra", "add")
	t4 := fu.NewTable(g2.N(), tab.K())
	for v := 0; v < tab.N(); v++ {
		t4.MustSet(v, tab.Time[v], tab.Cost[v])
	}
	t4.MustSet(g2.N()-1, []int{1, 2, 3}, []int64{3, 2, 1})
	if Instance(g2, t4) == Instance(g, tab) {
		t.Error("node addition did not change the digest")
	}
}

func TestDigestSeparatesOpAndName(t *testing.T) {
	// "ab"+"c" vs "a"+"bc" must not collide: fields are length-prefixed.
	g1 := dfg.New()
	g1.MustAddNode("ab", "c")
	g2 := dfg.New()
	g2.MustAddNode("a", "bc")
	tab := fu.UniformTable(1, []int{1}, []int64{1})
	if Instance(g1, tab) == Instance(g2, tab) {
		t.Fatal("name/op boundary ambiguity: digests collide")
	}
}

func TestDigestDistinguishesDelays(t *testing.T) {
	mk := func(delays int) *dfg.Graph {
		g := dfg.New()
		a := g.MustAddNode("a", "")
		b := g.MustAddNode("b", "")
		g.MustAddEdge(a, b, delays)
		return g
	}
	tab := fu.UniformTable(2, []int{1, 2}, []int64{2, 1})
	if Instance(mk(0), tab) == Instance(mk(1), tab) {
		t.Fatal("edge delay ignored by digest")
	}
}

// requestKey digests a complete solve request: instance plus deadline and
// algorithm name. It is the result-cache and single-flight key.
func requestKey(g *dfg.Graph, t *fu.Table, deadline int, algo string) string {
	req, _ := Keys(g, t, deadline, algo)
	return req
}
