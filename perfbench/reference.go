package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"time"
)

// Sweep-hot's requests are loopback round trips through three processes
// (load generator, router, node) with little computation in each, so its
// timings follow how fast this machine wakes processes and moves bytes
// between them. On a shared VM that speed drifts by half within a minute,
// and a compute probe does not see it. The reference chain is a stand-in
// for the same path built from the standard library only: a relay process
// (httputil.ReverseProxy) in front of an origin process that answers every
// POST with a fixed body. Every refEvery-th request of a sweep-hot stream is
// followed by one reference request over the same client, so the chain is
// timed in the same seconds as the workload; each window's timings are
// scaled by refBase over the chain's median latency in that window. No
// repository code runs in the chain, so a change to hetsynth moves the
// workload's timings and not the reference.

// refEvery is how many workload requests a stream sends per reference
// request.
const refEvery = 8

// refBase is the reference chain's median latency on the reference machine,
// a 2-vCPU AMD EPYC VM on a quiet host.
const refBase = 120 * time.Microsecond

// refWarm is how many reference requests warm the chain when it starts.
const refWarm = 500

var (
	refReqBody  = bytes.Repeat([]byte{'r'}, 256)
	refRespBody = bytes.Repeat([]byte{'o'}, 512)
)

// serveReference runs this process as one link of the reference chain:
// the origin when upstream is "origin", else a relay to the upstream base
// URL. Like the daemons, it announces "listening on <addr>" on stdout and
// answers GET /healthz; it runs until it is signalled.
func serveReference(upstream string) error {
	var h http.Handler
	if upstream == "origin" {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.Write(refRespBody)
		})
	} else {
		u, err := url.Parse(upstream)
		if err != nil {
			return err
		}
		p := httputil.NewSingleHostReverseProxy(u)
		p.Transport = &http.Transport{MaxIdleConnsPerHost: 4}
		h = p
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.Handle("/", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println("listening on", ln.Addr())
	return http.Serve(ln, mux)
}

// reference is a running reference chain.
type reference struct {
	origin, relay *daemon
}

// startReference starts the chain from this executable and warms it.
func startReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &reference{}
	if r.origin, err = startProc(self, "-reference", "origin"); err != nil {
		return nil, err
	}
	if r.relay, err = startProc(self, "-reference", r.origin.base); err != nil {
		r.stop()
		return nil, err
	}
	hc := loadClient()
	defer hc.CloseIdleConnections()
	for i := 0; i < refWarm; i++ {
		if _, err := refRequest(hc, r.relay.base); err != nil {
			r.stop()
			return nil, err
		}
	}
	return r, nil
}

// stop ends both processes and waits for them.
func (r *reference) stop() {
	for _, d := range []*daemon{r.relay, r.origin} {
		if d != nil {
			d.stop()
		}
	}
}

// refRequest sends one reference request to the chain at base and returns
// its latency.
func refRequest(hc *http.Client, base string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := hc.Post(base+"/", "application/json", bytes.NewReader(refReqBody))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("reference chain: status %d", resp.StatusCode)
	}
	return time.Since(t0), err
}
