package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runDiff captures diff's stderr (where gate failures go) while discarding
// the stdout table.
func runDiff(t *testing.T, old, new Report, gate string, maxNs, maxAllocs float64) (bool, string) {
	t.Helper()
	origOut, origErr := os.Stdout, os.Stderr
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = devnull, w
	pass := diff(old, new, regexp.MustCompile(gate), maxNs, maxAllocs)
	w.Close()
	os.Stdout, os.Stderr = origOut, origErr
	devnull.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return pass, string(out)
}

func TestDiffGateFailureNamesBenchmarkAndMetric(t *testing.T) {
	old := Report{Results: []Result{
		{Name: "BenchmarkSolve-8", NsPerOp: 100, AllocsPerOp: 2},
		{Name: "BenchmarkCachedPath-8", NsPerOp: 50, AllocsPerOp: 0},
	}}
	// Solve regresses on time only; CachedPath regresses on allocs only.
	cur := Report{Results: []Result{
		{Name: "BenchmarkSolve-8", NsPerOp: 200, AllocsPerOp: 2},
		{Name: "BenchmarkCachedPath-8", NsPerOp: 50, AllocsPerOp: 3},
	}}
	pass, stderr := runDiff(t, old, cur, "Benchmark", 0.10, 0.0)
	if pass {
		t.Fatal("regressed benchmarks must fail the gate")
	}
	if !strings.Contains(stderr, "BenchmarkSolve-8: ns/op 100 -> 200") {
		t.Errorf("failure output must name BenchmarkSolve-8 and its ns/op delta, got:\n%s", stderr)
	}
	if strings.Contains(stderr, "BenchmarkSolve-8: allocs/op") {
		t.Errorf("BenchmarkSolve-8 allocs did not regress, yet stderr blames allocs/op:\n%s", stderr)
	}
	if !strings.Contains(stderr, "BenchmarkCachedPath-8: allocs/op 0 -> 3") {
		t.Errorf("failure output must name BenchmarkCachedPath-8 and its allocs/op delta, got:\n%s", stderr)
	}
	if strings.Contains(stderr, "BenchmarkCachedPath-8: ns/op") {
		t.Errorf("BenchmarkCachedPath-8 time did not regress, yet stderr blames ns/op:\n%s", stderr)
	}
	if !strings.Contains(stderr, "tolerance") {
		t.Errorf("failure output should state the broken tolerance, got:\n%s", stderr)
	}
}

func TestDiffWithinToleranceIsQuiet(t *testing.T) {
	old := Report{Results: []Result{{Name: "BenchmarkSolve-8", NsPerOp: 100, AllocsPerOp: 2}}}
	cur := Report{Results: []Result{{Name: "BenchmarkSolve-8", NsPerOp: 104, AllocsPerOp: 2}}}
	pass, stderr := runDiff(t, old, cur, "Benchmark", 0.10, 0.0)
	if !pass {
		t.Fatal("within-tolerance run must pass the gate")
	}
	if stderr != "" {
		t.Errorf("passing gate should write nothing to stderr, got:\n%s", stderr)
	}
}

func TestParseStripsGOMAXPROCSSuffix(t *testing.T) {
	out := bytes.NewBufferString(`goos: linux
cpu: Some CPU @ 2.00GHz
BenchmarkHTTPSolveCached/conc64-4   	  50000	     24000 ns/op	    2048 B/op	      24 allocs/op
BenchmarkRingRoute-4                	1000000	        40.5 ns/op	       0 B/op	       0 allocs/op
`)
	rep := parse(out)
	if rep.CPU != "Some CPU @ 2.00GHz" || rep.GOMAXPROCS != 4 {
		t.Fatalf("header cpu %q gomaxprocs %d, want Some CPU @ 2.00GHz / 4", rep.CPU, rep.GOMAXPROCS)
	}
	if len(rep.Results) != 2 || rep.Results[0].Name != "BenchmarkHTTPSolveCached/conc64" || rep.Results[1].Name != "BenchmarkRingRoute" {
		t.Fatalf("names not stripped of the -N suffix: %+v", rep.Results)
	}
	// At GOMAXPROCS=1 go test appends no suffix; the name stays whole.
	one := parse(bytes.NewBufferString("BenchmarkHTTPFloor/conc1 \t 100 \t 20000 ns/op\n"))
	if one.GOMAXPROCS != 1 || one.Results[0].Name != "BenchmarkHTTPFloor/conc1" {
		t.Fatalf("unsuffixed line: gomaxprocs %d name %q", one.GOMAXPROCS, one.Results[0].Name)
	}
}

func TestDiffGateMatchingNothingFails(t *testing.T) {
	old := Report{Results: []Result{{Name: "BenchmarkSolve", NsPerOp: 100}}}
	cur := Report{Results: []Result{{Name: "BenchmarkSolve-2", NsPerOp: 100}}}
	pass, stderr := runDiff(t, old, cur, "BenchmarkSolve", 0.10, 0.0)
	if pass || !strings.Contains(stderr, "zero paired benchmarks") {
		t.Fatalf("a gate pairing nothing must fail naming the cause; pass %v stderr:\n%s", pass, stderr)
	}
}

func TestDiffGatesNsOnlyOnSameCPU(t *testing.T) {
	old := Report{CPU: "Intel(R) Xeon(R)", Results: []Result{{Name: "BenchmarkSolve", NsPerOp: 100, AllocsPerOp: 2}}}
	slower := Report{CPU: "AMD EPYC", Results: []Result{{Name: "BenchmarkSolve", NsPerOp: 300, AllocsPerOp: 2}}}
	if pass, stderr := runDiff(t, old, slower, "Benchmark", 0.10, 0.0); !pass {
		t.Fatalf("ns/op must not gate across different cpus, got failure:\n%s", stderr)
	}
	slower.CPU = old.CPU
	if pass, _ := runDiff(t, old, slower, "Benchmark", 0.10, 0.0); pass {
		t.Fatal("ns/op regression on the same cpu must fail the gate")
	}
}

func TestDiffGatesAllocsAcrossCPUs(t *testing.T) {
	old := Report{CPU: "Intel(R) Xeon(R)", Results: []Result{{Name: "BenchmarkSolve", NsPerOp: 100, AllocsPerOp: 2}}}
	cur := Report{CPU: "AMD EPYC", Results: []Result{{Name: "BenchmarkSolve", NsPerOp: 100, AllocsPerOp: 5}}}
	pass, stderr := runDiff(t, old, cur, "Benchmark", 0.10, 0.10)
	if pass || !strings.Contains(stderr, "BenchmarkSolve: allocs/op 2 -> 5") {
		t.Fatalf("allocs/op regression must gate on any cpu; pass %v stderr:\n%s", pass, stderr)
	}
}
