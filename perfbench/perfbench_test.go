package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetsynth/internal/hap"
	"hetsynth/internal/server"
)

// streamBytes renders the first n requests of streams 0 and 1 as one byte
// string: method, path and body of each.
func streamBytes(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	w, err := newWorkload(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for c := 0; c < 2; c++ {
		for i := 0; i < n; i++ {
			r := w.Request(c, i)
			b.WriteString(r.Method + " " + r.Path + "\n")
			b.Write(r.Body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		n := 200
		if name == "inline-cold" {
			n = 24
		}
		a, b := streamBytes(t, name, 7, n), streamBytes(t, name, 7, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request streams", name)
		}
		if c := streamBytes(t, name, 8, n); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", name)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	w, err := newWorkload("inline-cold", 7)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(w.Request(0, 0).Body, w.Request(1, 0).Body) {
		t.Error("two streams of one seed start with the same request")
	}
}

func TestBinSolveBodyMatchesServerEncoder(t *testing.T) {
	cold := &inlineCold{seed: 3}
	for i := 0; i < 12; i++ {
		r := cold.Request(0, i)
		want, err := server.EncodeBinSolveRequest(r.Inst.inlineSolveRequest(r.Deadline, r.Schedule))
		if err != nil {
			t.Fatal(err)
		}
		if got := binSolveBody(r.Inst, r.Deadline, r.Schedule); !bytes.Equal(got, want) {
			t.Fatalf("request %d (%s): hand-built HSB1 frame differs from server.EncodeBinSolveRequest", i, r.Kind)
		}
	}
}

func TestTailLatencyNeedsThousandSamples(t *testing.T) {
	lats := make([]float64, minTailSamples-1)
	for i := range lats {
		lats[i] = float64(i)
	}
	if _, err := tailLatency(lats); err == nil {
		t.Fatalf("p99 reported from %d samples", len(lats))
	}
	lats = append(lats, float64(len(lats)))
	p, err := tailLatency(lats)
	if err != nil {
		t.Fatalf("p99 refused at %d samples: %v", len(lats), err)
	}
	if p != 989 {
		t.Fatalf("p99 of 0..999 = %v, want 989", p)
	}
	for i := len(lats) - 11; i < len(lats); i++ {
		lats[i] = math.Inf(1)
	}
	if _, err := tailLatency(lats); err == nil {
		t.Fatal("p99 reported although it lands on a failed request")
	}
}

// TestRunRefusesShortWindow checks the rule where the run applies it: every
// round's window must hold minTailSamples requests for its p99.
func TestRunRefusesShortWindow(t *testing.T) {
	win := func(n int) *window {
		w := &window{tick: []time.Duration{0, time.Second}, cpu: []float64{0, 1}, slow: 1}
		ss := make([]sample, n)
		for i := range ss {
			ss[i] = sample{idx: i, status: 200, at: time.Duration(i) * time.Microsecond, lat: time.Millisecond}
		}
		w.samples = [][]sample{ss}
		return w
	}
	full, short := win(minTailSamples), win(minTailSamples-1)
	if _, _, _, err := endToEnd([]*window{full, full}, []float64{1, 1}, newVerifier(nil, nil)); err != nil {
		t.Fatalf("rounds of %d requests refused: %v", minTailSamples, err)
	}
	if _, _, _, err := endToEnd([]*window{full, short}, []float64{1, 1}, newVerifier(nil, nil)); err == nil {
		t.Fatalf("p99 reported although a round holds %d requests", minTailSamples-1)
	}
}

// TestEndToEndScalesBySlowdown checks that a window's timings are divided by
// its slowdown, and that time spent on reference requests does not count
// against the workload's rate.
func TestEndToEndScalesBySlowdown(t *testing.T) {
	w := &window{tick: []time.Duration{0, time.Second}, cpu: []float64{0, 300}, slow: 2}
	ss := make([]sample, minTailSamples)
	for i := range ss {
		ss[i] = sample{idx: i, status: 200, at: time.Duration(i) * 500 * time.Microsecond, lat: 400 * time.Microsecond}
	}
	w.samples = [][]sample{ss}
	for i := 0; i < 100; i++ {
		w.ref = append(w.ref, refSample{at: time.Duration(i) * 5 * time.Millisecond, lat: 5 * time.Millisecond})
	}
	ms, _, _, err := endToEnd([]*window{w}, []float64{0.5}, newVerifier(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"p50_ms":         0.2,
		"p99_ms":         0.2,
		"req_per_s":      2 * minTailSamples / 0.5, // half the cell went to reference requests
		"cpu_ms_per_req": 300.0 / minTailSamples / 2,
		"setup_s":        0.25,
	}
	for _, m := range ms {
		if x, ok := want[m.name]; ok && math.Abs(m.value-x) > 1e-9*x {
			t.Errorf("%s = %v, want %v", m.name, m.value, x)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps its sibling
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 10, 20, 30, 30, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got, want[i])
		}
	}
}

// answerOf sends r to a fresh in-process server and returns the answer
// body, which must be a 2xx.
func answerOf(t *testing.T, srv *server.Server, r *Request) []byte {
	t.Helper()
	req := httptest.NewRequest(r.Method, r.Path, bytes.NewReader(r.Body))
	if r.Bin {
		req.Header.Set("Content-Type", server.BinContentType)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		t.Fatalf("%s %s: status %d: %s", r.Method, r.Path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// corruptions are edits a wrong answer could carry; each must be caught.
var corruptions = map[string]func(*server.SolveResult){
	"cost":       func(res *server.SolveResult) { res.Cost++ },
	"length":     func(res *server.SolveResult) { res.Length++ },
	"deadline":   func(res *server.SolveResult) { res.Deadline++ },
	"short":      func(res *server.SolveResult) { res.Assignment = res.Assignment[1:] },
	"bad type":   func(res *server.SolveResult) { res.Assignment[0] = 99 },
	"schedule":   func(res *server.SolveResult) { res.Schedule.Start[len(res.Schedule.Start)-1] = 0 },
	"no config":  func(res *server.SolveResult) { res.Schedule.Config = res.Schedule.Config[:0] },
	"too few FU": func(res *server.SolveResult) { res.Schedule.Config[0] = 0 },
}

func TestVerifierAcceptsRealAnswersAndRejectsCorrupted(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	cold := &inlineCold{seed: 5}
	var tree, dag *Request
	for i := 0; tree == nil || dag == nil; i++ {
		r := cold.Request(0, i)
		if r.Inst.Tree && !r.Bin && tree == nil {
			tree = r
		}
		if !r.Inst.Tree && !r.Bin && dag == nil {
			dag = r
		}
	}
	for _, r := range []*Request{tree, dag} {
		body := answerOf(t, srv, r)
		v := newVerifier(cold, nil)
		if _, err := v.checkStateless(r, body); err != nil {
			t.Fatalf("%s: real answer rejected: %v", r.Kind, err)
		}
		for name, corrupt := range corruptions {
			if r.Inst.Tree && (name == "schedule" || name == "no config" || name == "too few FU") {
				continue
			}
			var resp server.SolveResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			corrupt(&resp.SolveResult)
			bad, _ := json.Marshal(&resp)
			if _, err := v.checkStateless(r, bad); err == nil {
				t.Errorf("%s: answer with corrupted %s passed verification", r.Kind, name)
			}
		}
	}
}

// makeCostlier moves one node of res to its fastest type (type 0, the
// dearest in fu.RandomTable) and restates cost and length to match: the
// answer stays feasible and internally consistent but costs strictly more.
// It reports false when every node already runs on type 0.
func makeCostlier(in *Instance, res *server.SolveResult) bool {
	for v, k := range res.Assignment {
		if k == 0 {
			continue
		}
		res.Assignment[v] = 0
		a, times, err := assignmentOf(in.Table, res.Assignment)
		if err != nil {
			panic(err)
		}
		res.Length, _, _ = in.Graph.LongestPath(times)
		res.Cost = hap.CostOf(in.Table, a)
		return true
	}
	return false
}

func TestVerifierRejectsSuboptimalTreeAnswer(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	hot, err := newSweepHot(1)
	if err != nil {
		t.Fatal(err)
	}
	// volterra (a tree) at slack 8: a feasible answer other than the
	// optimum must fail the Tree_Assign comparison even though it is
	// internally consistent.
	var r *Request
	for i, in := range hot.insts {
		if in.Name == "volterra" {
			r = hot.read(kindReadJSON, i, 8)
			break
		}
	}
	body := answerOf(t, srv, r)
	var resp server.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !makeCostlier(r.Inst, &resp.SolveResult) {
		t.Skip("optimum already runs every node on its fastest type")
	}
	bad, _ := json.Marshal(&resp)
	_, err = newVerifier(hot, nil).checkStateless(r, bad)
	if err == nil || !strings.Contains(err.Error(), "Tree_Assign") {
		t.Fatalf("suboptimal tree answer: err = %v, want a Tree_Assign mismatch", err)
	}
}

func TestSessionMirrorRejectsCorruptedAnswer(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	hot, err := newSweepHot(2)
	if err != nil {
		t.Fatal(err)
	}
	const c = 0
	put := &Request{Method: "PUT", Path: "/v1/instances/" + sessionID("bench", c), Body: hot.sessionPut(c)}
	answerOf(t, srv, put)
	// good checks the real answers. The shadows follow the same edits but
	// are shown each answer altered: broken moves one node to another type
	// and leaves cost and length stale; costlier moves one node to a dearer
	// type and restates them, so only the fresh-solve comparison catches it.
	good, broken, costlier := newSessionMirror(hot, c), newSessionMirror(hot, c), newSessionMirror(hot, c)
	patches := 0
	for i := 0; patches < 6; i++ {
		r := hot.Request(c, i)
		if r.Kind != kindPatch {
			continue
		}
		patches++
		body := answerOf(t, srv, r)
		if err := good.apply(r.Op, body); err != nil {
			t.Fatalf("patch %d (%s): real session answer rejected: %v", i, r.Op.Op, err)
		}
		alter := func(f func(*server.SolveResult)) []byte {
			var view server.SessionView
			if err := json.Unmarshal(body, &view); err != nil {
				t.Fatal(err)
			}
			f(view.Result)
			b, _ := json.Marshal(&view)
			return b
		}
		bad := alter(func(res *server.SolveResult) { res.Assignment[0] = (res.Assignment[0] + 1) % sessionTypes })
		if err := broken.apply(r.Op, bad); err == nil {
			t.Errorf("patch %d (%s): corrupted session answer passed verification", i, r.Op.Op)
		}
		dear := alter(func(res *server.SolveResult) {
			if !makeCostlier(good.in, res) {
				t.Fatal("session optimum runs every node on its fastest type")
			}
		})
		if err := costlier.apply(r.Op, dear); err == nil || !strings.Contains(err.Error(), "Tree_Assign") {
			t.Errorf("patch %d (%s): costlier session answer: err = %v, want a fresh-solve mismatch", i, r.Op.Op, err)
		}
	}
}
