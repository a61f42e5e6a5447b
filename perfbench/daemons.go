package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hetsynth/internal/cluster"
	"hetsynth/internal/server"
)

// Daemon settings. A routed (sweep-hot) node's cache is sized so the whole
// working set — raw bodies of both codecs, results and frontiers of 18
// instances × 16 deadlines, plus the batches, ~900 entries — would fit on
// either node with room to spare in every shard; other nodes run the
// daemon's default cache.
const (
	hotNodeCache = 2048
	routerProbe  = "250ms"
	ringVnodes   = 128
	healthPoll   = 2 * time.Millisecond
	bootTimeout  = 20 * time.Second
)

// daemon is one running hetsynthd or hetsynthrouter process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// topology is the set of processes one run drives: one or two nodes, and
// optionally a router in front of them.
type topology struct {
	nodes  []*daemon
	router *daemon
	ref    *reference // reference chain, when the workload is reference-scaled
}

// target is the base URL the load goes to.
func (t *topology) target(routed bool) string {
	if routed && t.router != nil {
		return t.router.base
	}
	return t.nodes[0].base
}

// all lists every daemon of the topology.
func (t *topology) all() []*daemon {
	out := append([]*daemon(nil), t.nodes...)
	if t.router != nil {
		out = append(out, t.router)
	}
	return out
}

// startDaemon launches bin with args on a kernel-chosen loopback port and
// waits until GET /healthz answers 200.
func startDaemon(bin string, args ...string) (*daemon, error) {
	return startProc(bin, append([]string{"-addr", "127.0.0.1:0", "-log", "error"}, args...)...)
}

// startProc launches bin with args, reads the address it announces as its
// first stdout line and waits until GET /healthz answers 200 there.
func startProc(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// The daemon dies with the benchmark even if the benchmark is killed
	// before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	// Both daemons and the reference chain print "listening on <addr>" as
	// their first stdout line.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		d.kill()
		return nil, fmt.Errorf("%s exited before announcing its address", filepath.Base(bin))
	}
	addr, ok := strings.CutPrefix(sc.Text(), "listening on ")
	if !ok {
		d.kill()
		return nil, fmt.Errorf("%s: unexpected first line %q", filepath.Base(bin), sc.Text())
	}
	d.base = "http://" + addr
	go func() {
		// Drain stdout until the pipe closes so the daemon never blocks on
		// it, then reap the process.
		for sc.Scan() {
		}
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(bootTimeout)
	for {
		resp, err := adminClient.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("%s not healthy within %v", filepath.Base(bin), bootTimeout)
		}
		time.Sleep(healthPoll)
	}
}

// stop asks the daemon to drain with SIGTERM and waits for it to exit,
// killing it if it has not gone within ten seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// kill ends the process at once and waits for it to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
	}
}

// stop shuts down the reference chain and the router first, then the nodes.
func (t *topology) stop() {
	if t.ref != nil {
		t.ref.stop()
	}
	if t.router != nil {
		t.router.stop()
	}
	for _, n := range t.nodes {
		n.stop()
	}
}

// startTopology boots nodes hetsynthd processes and, when routed, a
// hetsynthrouter in front of them. A positive cache sets the nodes' cache
// capacity; zero keeps the daemon default.
func startTopology(binDir string, nodes int, routed bool, cache int) (*topology, error) {
	t := &topology{}
	var peers []string
	var args []string
	if cache > 0 {
		args = []string{"-cache", strconv.Itoa(cache)}
	}
	for i := 0; i < nodes; i++ {
		d, err := startDaemon(filepath.Join(binDir, "hetsynthd"), args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.nodes = append(t.nodes, d)
		peers = append(peers, d.base)
	}
	if routed {
		d, err := startDaemon(filepath.Join(binDir, "hetsynthrouter"), "-peers", strings.Join(peers, ","),
			"-probe", routerProbe, "-vnodes", strconv.Itoa(ringVnodes))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.router = d
	}
	return t, nil
}

// adminClient carries health checks, metrics scrapes and set-up traffic; the
// measured load uses one client per load connection.
var adminClient = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

// getJSON fetches url and decodes its JSON body into out.
func getJSON(url string, out any) error {
	resp, err := adminClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// send issues one request over client and returns status and body.
func send(client *http.Client, base string, r *Request) (int, []byte, error) {
	req, err := http.NewRequest(r.Method, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	if r.Bin {
		req.Header.Set("Content-Type", server.BinContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// sendOK is send for set-up traffic, where anything but a 2xx is an error.
func sendOK(client *http.Client, base string, r *Request) ([]byte, error) {
	status, body, err := send(client, base, r)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", r.Method, r.Path, status, bytes.TrimSpace(body))
	}
	return body, nil
}

// ---- outside accounting ----

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuMS returns the process's user+system CPU time in milliseconds.
func cpuMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) * 1000 / clockTicks, nil
}

// peakRSSMB returns the process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTotal sums CPU milliseconds over the daemons.
func cpuTotal(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		ms, err := cpuMS(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += ms
	}
	return total, nil
}

// rssTotal sums VmHWM over the daemons.
func rssTotal(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		mb, err := peakRSSMB(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// counters is a snapshot of every node's /metrics and the router's.
type counters struct {
	nodes  []server.MetricsSnapshot
	router cluster.RouterMetricsSnapshot
}

func scrape(t *topology) (counters, error) {
	var c counters
	for _, n := range t.nodes {
		var m server.MetricsSnapshot
		if err := getJSON(n.base+"/metrics", &m); err != nil {
			return c, err
		}
		c.nodes = append(c.nodes, m)
	}
	if t.router != nil {
		if err := getJSON(t.router.base+"/metrics", &c.router); err != nil {
			return c, err
		}
	}
	return c, nil
}

// nodeSum adds a per-node counter over all nodes.
func (c counters) nodeSum(f func(*server.MetricsSnapshot) int64) int64 {
	var s int64
	for i := range c.nodes {
		s += f(&c.nodes[i])
	}
	return s
}
