package server

import "sync"

// flightResult is what a completed flight hands to every waiter.
type flightResult struct {
	val *SolveResult
	err error
}

// flightGroup collapses concurrent duplicate work: all callers of Do with
// the same key while the first call is still running share that first call's
// result. It is a purpose-built, stdlib-only equivalent of
// golang.org/x/sync/singleflight (which this module deliberately does not
// depend on), trimmed to the one result type the server needs.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight // guarded by mu
}

type flight struct {
	done chan struct{}
	res  flightResult
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// Do runs fn once per key at a time: the first caller (the leader) executes
// fn; callers arriving before the leader finishes wait and share its result.
// shared reports whether the result came from another caller's execution.
func (g *flightGroup) Do(key string, fn func() (*SolveResult, error)) (*SolveResult, bool, error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.res.val, true, f.res.err
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.res.val, f.res.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.res.val, false, f.res.err
}

// Join attaches to an in-flight call without becoming a leader. It returns
// the flight's done channel when one is running; callers wait on it and then
// read the result with Result. ok is false when no call is in flight.
func (g *flightGroup) Join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.m[key]
	return f, ok
}

// Done is closed when the flight completes; select on it together with a
// request context to stop waiting when the client goes away.
func (f *flight) Done() <-chan struct{} { return f.done }

// Result is valid only after Done is closed.
func (f *flight) Result() (*SolveResult, error) { return f.res.val, f.res.err }
