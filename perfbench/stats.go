package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// minTailSamples is the fewest latencies p99 may be reported from: with
// 1000 samples, at least ten lie beyond the 99th percentile.
const minTailSamples = 1000

// quantile returns the nearest-rank q-quantile of ascending xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// tailLatency returns the p99 of ascending latencies, refusing to report it
// from fewer than minTailSamples samples or when it lands on a failed
// request (recorded as +Inf: a failure misses every latency limit).
func tailLatency(lats []float64) (float64, error) {
	if len(lats) < minTailSamples {
		return 0, fmt.Errorf("p99 needs at least %d samples, the run has %d; lengthen --seconds", minTailSamples, len(lats))
	}
	p := quantile(lats, 0.99)
	if math.IsInf(p, 1) {
		return 0, fmt.Errorf("more than 1%% of %d requests failed; p99 is beyond every limit", len(lats))
	}
	return p, nil
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricPayload `json:"metrics"`
}

type metricPayload struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the metrics as an aligned table and then the result
// object as the final line.
func printResult(correct bool, attempted, failed int, ms []metric) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricPayload{}}
	var b strings.Builder
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no finite value", m.name)
		}
		fmt.Fprintf(&b, "  %-28s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricPayload{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Print(b.String())
	fmt.Println(string(line))
	return nil
}

// endToEnd computes the end-to-end metrics of verified windows, one per
// round. Throughput, median latency and CPU per request are medians over
// every round's cells; p99 and peak memory are medians over rounds, p99
// taken over each round's whole window. Timings are scaled to the
// reference host speed: each window's by its slow factor, set-up by the
// median factor (see reference.go and host.go). Time spent on reference
// requests is taken out of the cells' durations. It returns the metrics
// and the attempted and failed request counts.
func endToEnd(wins []*window, setupS []float64, v *verifier) ([]metric, int, int, error) {
	attempted, okAll := 0, 0
	byKind := map[string][]float64{}
	var rate, p50, p99, cpu, rss, slows []float64
	var rawRate, rawP50, rawP99, rawCPU []float64
	for _, win := range wins {
		cells := len(win.tick) - 1
		cellLats := make([][]float64, cells)
		cellOK := make([]int, cells)
		cellRef := make([]time.Duration, cells)
		for _, r := range win.ref {
			j := min(sort.Search(cells, func(j int) bool { return win.tick[j+1] > r.at }), cells-1)
			cellRef[j] += r.lat
		}
		var lats []float64
		for _, cs := range win.samples {
			for _, s := range cs {
				ms := math.Inf(1)
				ok := s.ok() && !s.wrong
				if ok {
					okAll++
					ms = float64(s.lat) / float64(time.Millisecond)
					byKind[s.kind] = append(byKind[s.kind], ms)
				}
				lats = append(lats, ms)
				j := sort.Search(cells, func(j int) bool { return win.tick[j+1] > s.at })
				j = min(j, cells-1)
				cellLats[j] = append(cellLats[j], ms)
				if ok {
					cellOK[j]++
				}
			}
		}
		attempted += len(lats)
		for j := 0; j < cells; j++ {
			if cellOK[j] == 0 {
				return nil, attempted, attempted - okAll, fmt.Errorf("a %v cell of %d requests has no success", cellDur, len(cellLats[j]))
			}
			sort.Float64s(cellLats[j])
			r := float64(cellOK[j]) / (win.tick[j+1] - win.tick[j] - cellRef[j]).Seconds()
			mid := quantile(cellLats[j], 0.5)
			c := (win.cpu[j+1] - win.cpu[j]) / float64(cellOK[j])
			rawRate, rawP50, rawCPU = append(rawRate, r), append(rawP50, mid), append(rawCPU, c)
			rate, p50, cpu = append(rate, r*win.slow), append(p50, mid/win.slow), append(cpu, c/win.slow)
		}
		sort.Float64s(lats)
		tail, err := tailLatency(lats)
		if err != nil {
			return nil, attempted, attempted - okAll, fmt.Errorf("round %d: %w", len(p99)+1, err)
		}
		rawP99, p99 = append(rawP99, tail), append(p99, tail/win.slow)
		rss = append(rss, win.rssMB)
		slows = append(slows, win.slow)
	}
	failed := attempted - okAll
	fmt.Printf("# %d rounds, %d cells, %d requests, %d failed, %d wrong\n", len(wins), len(rate), attempted, failed, v.wrong)
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := byKind[k]
		sort.Float64s(xs)
		fmt.Printf("#   %-11s n=%-6d p50=%.3fms p90=%.3fms max=%.3fms\n", k, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), xs[len(xs)-1])
	}
	fmt.Printf("# p99 per round %.4g ms (unscaled %.4g); set-ups %.4g s\n", p99, rawP99, setupS)
	fmt.Printf("# slowdown per round %.3f\n", slows)
	setup, slow := median(setupS), median(slows)
	fmt.Printf("# median slowdown %.3fx reference; unscaled: setup_s %.6g, req_per_s %.6g, p50_ms %.6g, p99_ms %.6g, cpu_ms_per_req %.6g\n",
		slow, setup, median(rawRate), median(rawP50), median(rawP99), median(rawCPU))
	return []metric{
		{"setup_s", setup / slow, "s"},
		{"req_per_s", median(rate), "1/s"},
		{"p50_ms", median(p50), "ms"},
		{"p99_ms", median(p99), "ms"},
		{"ok_frac", float64(okAll) / float64(attempted), "ratio"},
		{"cpu_ms_per_req", median(cpu), "ms"},
		{"peak_rss_mb", median(rss), "MiB"},
		{"cost_over_lb", v.costOverLB(), "ratio"},
	}, attempted, failed, nil
}
