package canon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// TestInstanceEncDifferential drives random delta sequences through an
// InstanceEnc and checks after every step that its digests are
// byte-identical to Instance/Keys of the equivalently rebuilt whole
// problem — the property that lets a patched session reuse the digest
// space of stateless solves.
func TestInstanceEncDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(12)
		k := 2 + rng.Intn(3)
		var edges []dfg.Edge
		for v := 1; v < n; v++ {
			if rng.Intn(4) > 0 {
				edges = append(edges, dfg.Edge{From: dfg.NodeID(rng.Intn(v)), To: dfg.NodeID(v), Delays: rng.Intn(2)})
			}
		}
		build := func() (*dfg.Graph, error) {
			g := dfg.New()
			for v := 0; v < n; v++ {
				g.MustAddNode(fmt.Sprintf("n%d", v), "op")
			}
			for _, e := range edges {
				if err := g.AddEdge(e.From, e.To, e.Delays); err != nil {
					return nil, err
				}
			}
			return g, nil
		}
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		tab := fu.RandomTable(rng, n, k)
		enc := NewInstanceEnc(g, tab)

		check := func(step string) {
			t.Helper()
			fresh, err := build()
			if err != nil {
				t.Fatalf("trial %d %s: rebuild: %v", trial, step, err)
			}
			if got, want := enc.Instance(), Instance(fresh, tab); got != want {
				t.Fatalf("trial %d %s: delta instance digest %s != whole-instance %s", trial, step, got, want)
			}
			deadline := 1 + rng.Intn(100)
			gotReq, gotInst := enc.Keys(deadline, "auto")
			wantReq, wantInst := Keys(fresh, tab, deadline, "auto")
			if gotReq != wantReq || gotInst != wantInst {
				t.Fatalf("trial %d %s: delta keys (%s,%s) != whole keys (%s,%s)",
					trial, step, gotReq, gotInst, wantReq, wantInst)
			}
		}
		check("initial")

		for step := 0; step < 10; step++ {
			switch rng.Intn(3) {
			case 0: // row edit
				v := rng.Intn(n)
				times := make([]int, k)
				costs := make([]int64, k)
				for j := range times {
					times[j] = 1 + rng.Intn(20)
					costs[j] = int64(rng.Intn(100))
				}
				if err := enc.SetRow(v, times, costs); err != nil {
					t.Fatalf("trial %d step %d: SetRow: %v", trial, step, err)
				}
				tab.MustSet(v, times, costs)
			case 1: // edge removal
				if len(edges) == 0 {
					continue
				}
				i := rng.Intn(len(edges))
				edges = append(edges[:i:i], edges[i+1:]...)
				fresh, err := build()
				if err != nil {
					t.Fatal(err)
				}
				enc.SetGraph(fresh)
			default: // edge insertion (appended, like a session patch)
				u, v := dfg.NodeID(rng.Intn(n)), dfg.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				edges = append(edges, dfg.Edge{From: u, To: v, Delays: rng.Intn(3)})
				fresh, err := build()
				if err != nil {
					// The random edge broke graph validity; undo and skip.
					edges = edges[:len(edges)-1]
					continue
				}
				enc.SetGraph(fresh)
			}
			check(fmt.Sprintf("step %d", step))
		}
	}
}

// TestInstanceEncRejects covers SetRow's coordinate validation.
func TestInstanceEncRejects(t *testing.T) {
	g := dfg.New()
	g.MustAddNode("a", "op")
	g.MustAddNode("b", "op")
	g.MustAddEdge(0, 1, 0)
	tab := fu.UniformTable(2, []int{1, 2}, []int64{3, 1})
	enc := NewInstanceEnc(g, tab)
	if err := enc.SetRow(2, []int{1, 1}, []int64{1, 1}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := enc.SetRow(-1, []int{1, 1}, []int64{1, 1}); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := enc.SetRow(0, []int{1}, []int64{1, 1}); err == nil {
		t.Fatal("short row accepted")
	}
}

// Instance returns the instance digest of the current encoding —
// byte-identical to what canon.Instance reports for the equivalent whole
// problem.
func (e *InstanceEnc) Instance() string {
	h := sha256.New()
	h.Write(e.graph)
	h.Write(e.table)
	return hex.EncodeToString(h.Sum(nil))
}
