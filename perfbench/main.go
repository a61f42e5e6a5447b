// Command perfbench is hetsynth's end-to-end serving benchmark. It boots
// real hetsynthd (and, for routed workloads, hetsynthrouter) processes,
// drives one generated workload at them from this single load-generator
// process, verifies every answer off the timed path, and prints each
// end-to-end metric with its unit; the last stdout line is a JSON object
// {"correct","attempted","failed","metrics"}.
//
// With --trace 1 it runs the same set-up and window, then replays a seeded
// sample of the workload's requests twice — untraced, then traced with
// in-process calls into each layer's public functions as child spans — and
// reports the per-layer metrics instead. Spans are dumped as JSON at the end.
//
// Run with -reference, the binary serves one link of the reference chain
// that sweep-hot's timings are scaled by (reference.go).
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin DIR --workload sweep-hot|inline-cold --seed N --seconds S --trace 0|1
//
// RATIONALE.md explains each workload and metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	bin      string
	workload string
	seed     int64
	seconds  int
	trace    bool
	spansOut string // traced run: where the spans are written
}

// setups is how many times an untraced run boots and sets up the daemons.
const setups = 15

// windows is how many of a run's set-ups are followed by a measured window;
// the run's seconds are split evenly between them. Each window must hold
// minTailSamples requests for its p99. Sweep-hot answers thousands a
// second and measures after every set-up; inline-cold answers a few
// hundred, so it measures in fewer, longer windows that keep a wide margin
// over that floor even on a host running at half speed.
func windows(w Workload) int {
	if _, ok := w.(*inlineCold); ok {
		return 5
	}
	return setups
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the hetsynthd and hetsynthrouter binaries")
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced replay")
	reference := flag.String("reference", "", `serve one link of the reference chain: "origin", or the base URL of the next link`)
	flag.Parse()
	if *reference != "" {
		if err := serveReference(*reference); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	if o.workload == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.spansOut = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// loadClients is the number of load connections. Inline-cold keeps both
// cores busy with two, or fewer on a smaller machine, so the generator never
// has more connections than cores. Sweep-hot uses one: its requests are
// short hops through three processes, and with one request in flight no
// hop waits for a core another request holds, so its latencies measure the
// code rather than the scheduler; it also leaves the reference requests a
// quiet chain to time.
func loadClients(w Workload) int {
	if refScaled(w) {
		return 1
	}
	return min(2, runtime.NumCPU())
}

// refScaled reports whether a workload's timings are scaled by the
// reference chain timed inside its windows (sweep-hot, bound by loopback
// round trips) rather than by hostProbe after each round (inline-cold,
// bound by computation).
func refScaled(w Workload) bool {
	_, ok := w.(*sweepHot)
	return ok
}

// printEnv records what the numbers depend on, so results stay comparable
// across machines.
func printEnv(o options, w Workload) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("# env workload=%s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d clients=%d cpu=%q go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), loadClients(w), cpu, runtime.Version())
}

// boot starts the topology a workload runs against: two nodes behind the
// router for routed workloads, else one node (plus an idle router when
// withRouter, for the traced run's router-hop probe).
func boot(o options, w Workload, withRouter bool) (*topology, error) {
	if w.Routed() {
		return startTopology(o.bin, 2, true, hotNodeCache)
	}
	return startTopology(o.bin, 1, withRouter, 0)
}

// prepare brings a freshly booted topology to the state a window
// measures: sweep-hot creates each stream's session and fills the caches
// with one pass over the working set; inline-cold sends a few fresh
// requests so connections and heaps are warm.
func prepare(w Workload, t *topology, streams []int) error {
	base := t.target(w.Routed())
	switch w := w.(type) {
	case *sweepHot:
		for _, c := range streams {
			put := &Request{Method: "PUT", Path: "/v1/instances/" + sessionID("bench", c), Body: w.sessionPut(c)}
			if _, err := sendOK(adminClient, base, put); err != nil {
				return err
			}
		}
		for _, r := range w.readRequests() {
			if _, err := sendOK(adminClient, base, r); err != nil {
				return err
			}
		}
	case *inlineCold:
		// The warm-up inputs do not depend on the run's seed, so set-up
		// does the same work in every run.
		warm := &inlineCold{}
		for i := 0; i < coldWarmRequests; i++ {
			if _, err := sendOK(adminClient, base, warm.Request(warmStream, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stream ids outside the measured range, so their requests never repeat
// one a window sends.
const (
	warmStream       = 100
	coldWarmRequests = 8
)

// window is the outcome of one measured closed-loop window on one
// topology.
type window struct {
	samples [][]sample // per stream, in send order
	// The window is cut into cells of about cellDur at the instants in
	// tick; cpu holds the daemons' cumulative CPU milliseconds read at each.
	// tick[0] is the window's start and the last tick is taken after the
	// last request completed.
	tick []time.Duration
	cpu  []float64
	// ref holds the window's reference requests, if the workload sends any;
	// slow is the host's slowdown against the reference machine while the
	// window ran, which the window's timings are divided by.
	ref    []refSample
	slow   float64
	rssMB  float64 // Σ VmHWM after the window
	before counters
	after  counters
}

// cellDur is the length of one measurement cell. Rates, median latency
// and CPU per request are medians over cells: a burst of outside load (the
// daemons share their cores and memory bandwidth with whatever else the
// machine runs) spoils a few cells rather than the run.
const cellDur = time.Second

// measure runs the closed loop on streams for dur and takes the outside
// accounting around it. When the topology has a reference chain, its
// requests are interleaved and set the window's slowdown.
func measure(w Workload, t *topology, streams []int, dur time.Duration, store *bodyStore) (*window, error) {
	ds := t.all()
	win := &window{}
	var err error
	if win.before, err = scrape(t); err != nil {
		return nil, err
	}
	cells := max(1, int(dur/cellDur))
	cpu0, err := cpuTotal(ds)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	win.tick, win.cpu = []time.Duration{0}, []float64{cpu0}
	tickErr := make(chan error, 1)
	go func() {
		// Reads at the interior cell boundaries; the loop below owns the
		// slices again once this goroutine has reported.
		for k := 1; k < cells; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / time.Duration(cells))))
			ms, err := cpuTotal(ds)
			if err != nil {
				tickErr <- err
				return
			}
			win.tick, win.cpu = append(win.tick, time.Since(start)), append(win.cpu, ms)
		}
		tickErr <- nil
	}()
	ref := ""
	if t.ref != nil {
		ref = t.ref.relay.base
	}
	win.samples, win.ref, err = closedLoop(w, t.target(w.Routed()), ref, streams, start, dur, store)
	if err := <-tickErr; err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	if len(win.ref) > 0 {
		lats := make([]float64, len(win.ref))
		for i, r := range win.ref {
			lats[i] = float64(r.lat)
		}
		win.slow = median(lats) / float64(refBase)
	}
	ms, err := cpuTotal(ds)
	if err != nil {
		return nil, err
	}
	win.tick, win.cpu = append(win.tick, time.Since(start)), append(win.cpu, ms)
	if win.after, err = scrape(t); err != nil {
		return nil, err
	}
	if win.rssMB, err = rssTotal(ds); err != nil {
		return nil, err
	}
	return win, nil
}

// run makes the rounds of set-up and measurement, each on freshly booted
// daemons with its own load streams; metrics are medians over the rounds,
// so one unlucky process start or burst of outside load moves the result
// little. The traced run makes one round and then the traced replay.
func run(o options) error {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	printEnv(o, w)
	clients := loadClients(w)
	rounds, nwin := setups, windows(w)
	if o.trace {
		rounds, nwin = 1, 1
	}
	var topo *topology
	defer func() {
		if topo != nil {
			topo.stop()
		}
	}()
	store := newBodyStore()
	steal0, runStart := stealMS(), time.Now()
	var setupS []float64
	var wins []*window
	var tr *traceReport
	for k := 0; k < rounds; k++ {
		streams := make([]int, clients)
		for c := range streams {
			streams[c] = k*clients + c
		}
		t0 := time.Now()
		if topo, err = boot(o, w, o.trace); err != nil {
			return err
		}
		if err := prepare(w, topo, streams); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k < nwin {
			// A fresh reference chain per window, like the daemons, so no
			// chain's own luck lasts longer than one round. Otherwise the
			// host probe runs right before and right after the window,
			// with the daemons idle: the host's speed drifts within
			// seconds, so a probe any further away misreads it.
			var probe time.Duration
			if refScaled(w) {
				if topo.ref, err = startReference(); err != nil {
					return fmt.Errorf("reference chain: %w", err)
				}
			} else {
				probe = hostProbe()
			}
			win, err := measure(w, topo, streams, time.Duration(o.seconds)*time.Second/time.Duration(nwin), store)
			if err != nil {
				return err
			}
			if !refScaled(w) {
				win.slow = float64(probe+hostProbe()) / 2 / float64(probeRef)
			}
			wins = append(wins, win)
		}
		if o.trace {
			if tr, err = traceRun(o, w, &topo); err != nil {
				return fmt.Errorf("traced run: %w", err)
			}
		}
		topo.stop()
		topo = nil
	}

	if steal0 >= 0 {
		fmt.Printf("# host steal %.0f ms of %.0f ms CPU while measuring\n", stealMS()-steal0,
			time.Since(runStart).Seconds()*1000*float64(runtime.NumCPU()))
	}

	v := newVerifier(w, store)
	var all [][]sample
	for _, win := range wins {
		all = append(all, win.samples...)
	}
	wrong := v.run(all)
	for _, err := range v.errs {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
	}
	e2e, attempted, failed, err := endToEnd(wins, setupS, v)
	if err != nil {
		return err
	}
	correct := wrong == 0
	if o.trace {
		correct = correct && tr.wrong == 0
		wrong += tr.wrong
		fmt.Println("# end-to-end (untraced window):")
		for _, m := range e2e {
			fmt.Printf("#   %-16s %12.6g %s\n", m.name, m.value, m.unit)
		}
		err = printResult(correct, attempted+tr.attempted, failed+tr.failed, append(tr.metrics, windowLayerMetrics(wins[0], v, tr.router)...))
	} else {
		err = printResult(correct, attempted, failed, e2e)
	}
	if err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("%d answers failed verification", wrong)
	}
	return nil
}
