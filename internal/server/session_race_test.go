package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSessionConcurrencySoak hammers a handful of session ids from
// concurrent patchers, SSE subscribers, and re-creators while an aggressive
// TTL janitor evicts underneath them. Run under -race this is the
// concurrency soak for the session table, the two-lock session design, the
// SSE fan-out and the eviction teardown. Correctness bar: no data race, no
// deadlock, every response is one of the contract statuses, and at the end
// the pin ledger balances back to zero.
func TestSessionConcurrencySoak(t *testing.T) {
	s := New(Config{SessionTTL: 30 * time.Millisecond, SessionEventBuffer: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const ids = 3
	const clients = 6
	deadline := time.Now().Add(900 * time.Millisecond)
	var wg sync.WaitGroup

	put := func(cl *http.Client, id string) int {
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/instances/"+id, strings.NewReader(fuzzSessionBody))
		resp, err := cl.Do(req)
		if err != nil {
			return 0
		}
		defer resp.Body.Close()
		//hetsynth:ignore retval draining the body to reuse the connection.
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	// Patchers: random valid single-op patches; 404 (evicted) → re-PUT.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			cl := ts.Client()
			for time.Now().Before(deadline) {
				id := fmt.Sprintf("soak%d", rng.Intn(ids))
				body := fmt.Sprintf(`{"ops":[{"op":"set_row","node":%d,"time":[%d,%d],"cost":[%d,%d]}]}`,
					rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(3), rng.Intn(9), rng.Intn(4))
				req, _ := http.NewRequest("PATCH", ts.URL+"/v1/instances/"+id, strings.NewReader(body))
				resp, err := cl.Do(req)
				if err != nil {
					continue
				}
				code := resp.StatusCode
				//hetsynth:ignore retval draining the body to reuse the connection.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch code {
				case 200:
				case 404:
					if pc := put(cl, id); pc != 0 && pc != 200 && pc != 201 && pc != 503 {
						t.Errorf("re-PUT %s: status %d", id, pc)
					}
				default:
					t.Errorf("PATCH %s: unexpected status %d", id, code)
				}
			}
		}(c)
	}

	// Subscribers: attach an event stream, read a few frames, hang up.
	for c := 0; c < clients/2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for time.Now().Before(deadline) {
				id := fmt.Sprintf("soak%d", rng.Intn(ids))
				resp, err := ts.Client().Get(ts.URL + "/v1/instances/" + id + "/events")
				if err != nil {
					continue
				}
				if resp.StatusCode == 200 {
					buf := make([]byte, 256)
					for i := 0; i < 1+rng.Intn(3); i++ {
						if _, err := resp.Body.Read(buf); err != nil {
							break
						}
					}
				}
				resp.Body.Close()
			}
		}(c)
	}

	// Deleters: race explicit eviction against the TTL janitor and patchers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for time.Now().Before(deadline) {
			id := fmt.Sprintf("soak%d", rng.Intn(ids))
			req, _ := http.NewRequest("DELETE", ts.URL+"/v1/instances/"+id, nil)
			if resp, err := ts.Client().Do(req); err == nil {
				//hetsynth:ignore retval draining the body to reuse the connection.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	ts.Close()
	s.Close()

	snap := s.Metrics()
	if snap.SessionsActive != 0 {
		t.Errorf("sessions still active after shutdown: %d", snap.SessionsActive)
	}
	if snap.SessionsCreated != snap.SessionsEvicted {
		t.Errorf("session ledger unbalanced: created %d, evicted %d", snap.SessionsCreated, snap.SessionsEvicted)
	}
	for i, pins := range s.cache.pinnedByShard() {
		if pins != 0 {
			t.Errorf("cache shard %d: %d session pin(s) leaked", i, pins)
		}
	}
}

// TestSessionEvictedMidPatchAnswers404 evicts a session from inside the
// PATCH's preSolve hook — after the handler has resolved the session and
// taken its op lock, before the solve runs — and requires 404, the evicted
// status the patch contract promises, not 499: the client closed nothing.
func TestSessionEvictedMidPatchAnswers404(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	m := randMirror(rand.New(rand.NewSource(3)))
	if code, view := postJSON(t, ts, "PUT", "/v1/instances/ev", m.putBody(t)); code != 201 {
		t.Fatalf("PUT: status %d: %v", code, view)
	}
	ss, ok := s.sessions.get("ev")
	if !ok {
		t.Fatal("session not stored after PUT")
	}
	evicted := make(chan struct{})
	s.preSolve = func(ctx context.Context) {
		// evictSession cancels the session context first, then waits for the
		// op lock this PATCH holds, so it runs aside until the PATCH returns.
		go func() {
			defer close(evicted)
			s.evictSession(ss, "deleted")
		}()
		<-ctx.Done()
	}
	code, body := postJSON(t, ts, "PATCH", "/v1/instances/ev", `{"ops":[]}`)
	<-evicted
	if code != 404 {
		t.Fatalf("PATCH evicted mid-request: status %d (%v), want 404", code, body)
	}
	if code, _ := postJSON(t, ts, "GET", "/v1/instances/ev", ""); code != 404 {
		t.Fatalf("GET after eviction: status %d, want 404", code)
	}
}
