package server

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used map protected by one
// mutex. It is the single-shard building block of shardedCache — and, used
// standalone, the differential oracle the sharded cache is tested against.
// Entries can be pinned with a refcount; pinned entries are exempt from
// eviction, so a long sweep can hold its per-instance artifacts (e.g. a
// hap.FrontierSolver) without a concurrent burst of insertions dropping
// them mid-flight.
type lruCache struct {
	mu    sync.Mutex
	max   int                      // immutable after creation
	ll    *list.List               // guarded by mu; front = most recently used
	items map[string]*list.Element // guarded by mu
}

type lruEntry struct {
	key  string
	val  any
	pins int // protected by the owning cache's mu; > 0 exempts from eviction
}

func newLRUCache(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// getBytes is get for a key held as raw bytes. The lookup converts the key
// in-place via the compiler's map-index optimization, so a hot-path probe
// allocates nothing.
//
// hetsynth:hotpath
func (c *lruCache) getBytes(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes a key, evicting the least recently used
// unpinned entry when the cache is over capacity. Refreshing an existing
// key replaces its value but keeps its pin count.
func (c *lruCache) put(key string, val any) { c.putPinned(key, val, 0) }

func (c *lruCache) putPinned(key string, val any, pins int) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		e.val = val
		e.pins += pins
		c.mu.Unlock()
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, pins: pins})
	c.mu.Unlock()
	c.evict()
}

// evict drops least-recently-used unpinned entries until the cache fits.
// It runs in its own critical section, after the insertion that triggered
// it: eviction does not need to be atomic with the insert, and a transient
// one-entry overshoot between the two sections is harmless. When every
// entry is pinned the cache is allowed to stay over capacity — pins are
// short-lived (the lifetime of one solve or batch group), so the overshoot
// is bounded and temporary.
func (c *lruCache) evict() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ll.Len() > c.max {
		victim := (*list.Element)(nil)
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			if el.Value.(*lruEntry).pins == 0 {
				victim = el
				break
			}
		}
		if victim == nil {
			return
		}
		c.ll.Remove(victim)
		delete(c.items, victim.Value.(*lruEntry).key)
	}
}

// acquire is get plus a pin: while the caller holds the pin, the entry
// cannot be evicted. Every successful acquire must be paired with a
// release.
func (c *lruCache) acquire(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*lruEntry)
	e.pins++
	return e.val, true
}

// putAcquired inserts or refreshes a key with one pin already held, so a
// freshly built artifact cannot be evicted before its builder releases it.
func (c *lruCache) putAcquired(key string, val any) { c.putPinned(key, val, 1) }

// release drops one pin. Releasing an absent key is a no-op (the entry can
// only be absent if release calls were unbalanced, which is a caller bug,
// but must not corrupt the cache). Entries that were held over capacity
// become evictable again.
func (c *lruCache) release(key string) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return
	}
	e := el.Value.(*lruEntry)
	if e.pins > 0 {
		e.pins--
	}
	over := e.pins == 0 && c.ll.Len() > c.max
	c.mu.Unlock()
	if over {
		c.evict()
	}
}

// len reports the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// shardedCache spreads an LRU over a power-of-two number of lruCache
// shards selected by a hash of the key, so concurrent readers on distinct
// keys (the all-cache-hit hot path at high client fan-out) never contend on
// one mutex. Keys are canonical digests or raw request bytes — both
// high-entropy — so FNV-1a spreads them evenly and per-shard LRU order is a
// good approximation of global LRU order. Capacity is divided evenly across
// shards; eviction is per shard.
type shardedCache struct {
	shards []*lruCache
	mask   uint32
}

// newShardedCache builds a cache of max total entries over n shards; n is
// rounded up to a power of two and at least 1.
func newShardedCache(max, n int) *shardedCache {
	shards := 1
	for shards < n {
		shards <<= 1
	}
	per := (max + shards - 1) / shards
	c := &shardedCache{shards: make([]*lruCache, shards), mask: uint32(shards - 1)}
	for i := range c.shards {
		c.shards[i] = newLRUCache(per)
	}
	return c
}

// fnv1a is the 32-bit FNV-1a hash of the key bytes.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

// hetsynth:hotpath
func fnv1aBytes(key []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

func (c *shardedCache) shard(key string) *lruCache { return c.shards[fnv1a(key)&c.mask] }

// get returns the cached value and marks it most recently used in its shard.
func (c *shardedCache) get(key string) (any, bool) { return c.shard(key).get(key) }

// getBytes is get for a key held as raw bytes; the probe allocates nothing.
//
// hetsynth:hotpath
func (c *shardedCache) getBytes(key []byte) (any, bool) {
	return c.shards[fnv1aBytes(key)&c.mask].getBytes(key)
}

// put inserts or refreshes a key in its shard.
func (c *shardedCache) put(key string, val any) { c.shard(key).put(key, val) }

// acquire is get plus an eviction-exempting pin; pair with release.
func (c *shardedCache) acquire(key string) (any, bool) { return c.shard(key).acquire(key) }

// putAcquired inserts or refreshes a key with one pin already held.
func (c *shardedCache) putAcquired(key string, val any) { c.shard(key).putAcquired(key, val) }

// release drops one pin from the key's entry.
func (c *shardedCache) release(key string) { c.shard(key).release(key) }

// len reports the total number of cached entries across all shards.
func (c *shardedCache) len() int {
	n := 0
	for _, s := range c.shards {
		n += s.len()
	}
	return n
}
