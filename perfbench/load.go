package main

import (
	"crypto/sha256"
	"errors"
	"net/http"
	"sync"
	"time"
)

// sample is one measured request: who sent it, how it went, and where its
// response body is stored.
type sample struct {
	client, idx int // stream id and index within the stream
	kind        string
	status      int           // 0: transport error
	at          time.Duration // send time, from the window's start
	lat         time.Duration
	body        int32 // index into the run's bodyStore; -1 when none
	wrong       bool  // set by the verifier
}

// ok reports a 2xx answer (verification is separate).
func (s *sample) ok() bool { return s.status/100 == 2 }

// bodyStore keeps response bodies for verification after the window,
// storing each distinct body once: cached answers repeat byte for byte, so
// sweep-hot's tens of thousands of responses collapse to its working set.
type bodyStore struct {
	mu     sync.Mutex
	index  map[[sha256.Size]byte]int32
	bodies [][]byte
}

func newBodyStore() *bodyStore { return &bodyStore{index: map[[sha256.Size]byte]int32{}} }

func (bs *bodyStore) put(b []byte) int32 {
	sum := sha256.Sum256(b)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if i, ok := bs.index[sum]; ok {
		return i
	}
	i := int32(len(bs.bodies))
	bs.bodies = append(bs.bodies, b)
	bs.index[sum] = i
	return i
}

func (bs *bodyStore) get(i int32) []byte { return bs.bodies[i] }

// loadClient is one load connection: a client whose transport keeps a
// single connection to the target.
func loadClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// refSample is one timed reference request (see reference.go).
type refSample struct{ at, lat time.Duration }

// closedLoop runs one closed-loop client per stream against base for dur:
// each sends its stream's next generated request as soon as the previous
// answer is read. Request generation happens between requests and is not
// timed; a request that starts before the window ends is completed and
// counted. When ref is set, every refEvery-th request is followed by one
// request to the reference chain at ref over the same client. It returns
// every stream's samples in send order, and the reference samples; bodies
// go to store.
func closedLoop(w Workload, base, ref string, streams []int, start time.Time, dur time.Duration, store *bodyStore) ([][]sample, []refSample, error) {
	out := make([][]sample, len(streams))
	refs := make([][]refSample, len(streams))
	errs := make([]error, len(streams))
	end := start.Add(dur)
	var wg sync.WaitGroup
	for k, c := range streams {
		wg.Add(1)
		go func(k, c int) {
			defer wg.Done()
			hc := loadClient()
			defer hc.CloseIdleConnections()
			for i := 0; time.Now().Before(end); i++ {
				r := w.Request(c, i)
				t0 := time.Now()
				status, body, err := send(hc, base, r)
				s := sample{client: c, idx: i, kind: r.Kind, status: status, at: t0.Sub(start), lat: time.Since(t0), body: -1}
				if err != nil {
					s.status = 0
				} else {
					s.body = store.put(body)
				}
				out[k] = append(out[k], s)
				if ref != "" && (i+1)%refEvery == 0 {
					at := time.Since(start)
					lat, err := refRequest(hc, ref)
					if err != nil {
						errs[k] = err
						return
					}
					refs[k] = append(refs[k], refSample{at, lat})
				}
			}
		}(k, c)
	}
	wg.Wait()
	var all []refSample
	for k := range refs {
		all = append(all, refs[k]...)
	}
	return out, all, errors.Join(errs...)
}
