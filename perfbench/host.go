package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark shares its cores and memory bandwidth with whatever else
// the machine runs. On a shared VM the host's speed drifts by a quarter
// for minutes at a time, and every timing moves with it — the daemons'
// CPU time per request, their set-up, a fixed loop in this process alike.
// The timing metrics are therefore reported at a reference host speed.
// Inline-cold, which is bound by computation, is scaled by hostProbe: right
// before and right after each window, with the daemons idle, it times a
// fixed piece of work that uses no repository code, and the window's
// timings are scaled by probeRef / (mean of the two probe times).
// Sweep-hot is scaled by the reference chain instead (reference.go). The
// unscaled figures are printed too.
// Per-layer metrics are not scaled.

// probeRef is hostProbe's time on the reference machine, a 2-vCPU AMD
// EPYC VM on a quiet host.
const probeRef = 14 * time.Millisecond

// hostProbe runs a fixed mix of hashing, sorting and JSON encoding over a
// few MiB three times and returns the fastest run.
func hostProbe() time.Duration {
	best := time.Duration(1<<63 - 1)
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x
		}
		buf := make([]byte, 4<<20)
		for i := range buf {
			buf[i] = byte(next() >> 56)
		}
		sum := sha256.Sum256(buf)
		xs := make([]int, 1<<17)
		for i := range xs {
			xs[i] = int(next()>>1) ^ int(sum[i%len(sum)])
		}
		sort.Ints(xs)
		if _, err := json.Marshal(xs[:1<<14]); err != nil {
			panic(err)
		}
		best = min(best, time.Since(t0))
	}
	return best
}

// stealMS returns the CPU time the hypervisor has taken from this VM since
// boot (the steal column of /proc/stat), or -1 where it is not reported.
// It is printed as a diagnostic of outside load, not used to scale.
func stealMS() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks * 1000 / clockTicks
}
