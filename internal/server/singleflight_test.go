package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightGroupCollapsesDuplicates(t *testing.T) {
	g := newFlightGroup()
	var execs atomic.Int64
	block := make(chan struct{})
	entered := make(chan struct{})

	// The leader starts alone and blocks inside fn; followers are only
	// launched once the flight is provably in progress, so each must attach
	// to it rather than start its own execution.
	var wg sync.WaitGroup
	results := make([]*SolveResult, 8)
	shared := make([]bool, 8)
	do := func(i int) {
		defer wg.Done()
		res, sh, err := g.Do("k", func() (*SolveResult, error) {
			execs.Add(1)
			close(entered)
			<-block
			return &SolveResult{Cost: 42}, nil
		})
		if err != nil {
			t.Errorf("Do: %v", err)
		}
		results[i], shared[i] = res, sh
	}
	wg.Add(1)
	go do(0)
	<-entered
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go do(i)
	}
	// Followers must observe the in-flight call before the leader finishes;
	// give them time to reach Do, then release the leader.
	time.Sleep(100 * time.Millisecond)
	close(block)
	wg.Wait()

	if execs.Load() != 1 {
		t.Fatalf("fn executed %d times, want 1", execs.Load())
	}
	leaders := 0
	for i := range results {
		if results[i] == nil || results[i].Cost != 42 {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders)
	}
}

func TestFlightGroupKeysAreIndependent(t *testing.T) {
	g := newFlightGroup()
	var execs atomic.Int64
	var wg sync.WaitGroup
	for _, k := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			g.Do(k, func() (*SolveResult, error) { execs.Add(1); return nil, nil })
		}(k)
	}
	wg.Wait()
	if execs.Load() != 3 {
		t.Fatalf("distinct keys executed %d times, want 3", execs.Load())
	}
}

func TestFlightJoin(t *testing.T) {
	g := newFlightGroup()
	if _, ok := g.Join("k"); ok {
		t.Fatal("Join found a flight before any Do")
	}
	block := make(chan struct{})
	entered := make(chan struct{})
	go g.Do("k", func() (*SolveResult, error) {
		close(entered)
		<-block
		return &SolveResult{Cost: 7}, nil
	})
	<-entered
	f, ok := g.Join("k")
	if !ok {
		t.Fatal("Join missed the in-flight call")
	}
	close(block)
	res, err := f.Wait()
	if err != nil || res == nil || res.Cost != 7 {
		t.Fatalf("joined result: %+v, %v", res, err)
	}
	// After completion the key is free again.
	if _, ok := g.Join("k"); ok {
		t.Fatal("Join found a finished flight")
	}
}

// Wait blocks until the flight completes and returns its result.
func (f *flight) Wait() (*SolveResult, error) {
	<-f.done
	return f.res.val, f.res.err
}
