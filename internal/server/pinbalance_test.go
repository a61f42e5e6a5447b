package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPinBalance is the pin-leak test behind the pinpair analyzer: after a
// workload that exercises every acquire/putAcquired site — the frontier
// fast path, concurrent deadline sweeps, and batch groups that pin the
// shared FrontierSolver — every shard's pin refcount must be back to zero
// at shutdown. A nonzero count means some path out of frontierSolve or
// runBatchGroup dropped its release, which would slowly wedge eviction.
func TestPinBalance(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Frontier path: deadline-form tree solves build and pin a
	// FrontierSolver; repeats and nearby deadlines hit and re-pin it.
	code, m := postJSON(t, ts, "POST", "/v1/solve", `{"bench":"volterra","seed":1,"deadline":40}`)
	if code != 200 {
		t.Fatalf("warmup solve: status %d: %v", code, m)
	}

	// Concurrent sweep over two instances so distinct shards see pins.
	var wg sync.WaitGroup
	for seed := 1; seed <= 2; seed++ {
		for d := 36; d <= 44; d++ {
			wg.Add(1)
			go func(seed, d int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"bench":"volterra","seed":%d,"deadline":%d}`, seed, d)
				resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}(seed, d)
		}
	}
	wg.Wait()

	// Batch path: a same-instance sweep group acquires the solver pin up
	// front and must release it when the group finishes.
	code, m = postJSON(t, ts, "POST", "/v1/solve-batch", batchBody(
		`{"bench":"volterra","seed":3,"deadline":40}`,
		`{"bench":"volterra","seed":3,"deadline":41}`,
		`{"bench":"volterra","seed":3,"deadline":42}`,
		`{"bench":"diffeq","seed":4,"slack":4}`,
	))
	if code != 200 {
		t.Fatalf("batch solve: status %d: %v", code, m)
	}

	// Session path: a session on a frontier-warmed tree instance pins the
	// cached curve for its lifetime; a row patch moves the session off the
	// warmed digest (releasing the pin), and eviction — explicit or at
	// shutdown — must put every refcount back.
	code, m = postJSON(t, ts, "PUT", "/v1/instances/pins", `{"bench":"volterra","seed":1,"deadline":40}`)
	if code != 201 {
		t.Fatalf("session PUT: status %d: %v", code, m)
	}
	pinned := 0
	for _, p := range s.cache.pinnedByShard() {
		pinned += p
	}
	if pinned == 0 {
		t.Fatal("session on a warmed frontier instance holds no pin")
	}
	code, m = postJSON(t, ts, "PATCH", "/v1/instances/pins",
		`{"ops":[{"op":"set_row","node":0,"time":[1,2,3],"cost":[9,5,1]}]}`)
	if code != 200 {
		t.Fatalf("session PATCH: status %d: %v", code, m)
	}
	if code, _ = postJSON(t, ts, "DELETE", "/v1/instances/pins", ""); code != 200 {
		t.Fatalf("session DELETE: status %d", code)
	}
	// A second session left live rides shutdown's eviction path instead.
	if code, m = postJSON(t, ts, "PUT", "/v1/instances/pins2", `{"bench":"volterra","seed":1,"deadline":40}`); code != 201 {
		t.Fatalf("second session PUT: status %d: %v", code, m)
	}

	ts.Close()
	s.Close()

	for i, pins := range s.cache.pinnedByShard() {
		if pins != 0 {
			t.Errorf("result cache shard %d: %d pin(s) leaked at shutdown", i, pins)
		}
	}
	for i, pins := range s.rawCache.pinnedByShard() {
		if pins != 0 {
			t.Errorf("raw cache shard %d: %d pin(s) leaked at shutdown", i, pins)
		}
	}
}

// pinned reports the total pin count held across this cache's entries. At
// any quiet point — no request in flight, no batch group running — every
// acquire/putAcquired has been balanced by a release, so it must be zero;
// TestPinBalance asserts exactly that.
func (c *lruCache) pinned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		n += el.Value.(*lruEntry).pins
	}
	return n
}

// pinnedByShard reports each shard's total pin count, in shard order.
func (c *shardedCache) pinnedByShard() []int {
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.pinned()
	}
	return out
}
