package store

import (
	"container/list"
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// CacheStats counts a Cache's outcomes over its lifetime. A hit is a
// request served from another request's computation (completed or still
// in flight), a disk hit one served from the disk store, a miss one that
// computed the value itself. Evictions counts completed entries dropped
// from memory by the LRU cap (the disk tier, when attached, still holds
// them).
type CacheStats struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	DiskHits  int `json:"disk_hits"`
	Evictions int `json:"evictions"`
}

// cacheEntry is one in-flight or completed computation; ready is closed
// when val/err are final. elem is the entry's slot in the LRU list —
// nil while the computation is in flight, so in-flight entries are
// never eviction candidates.
type cacheEntry struct {
	ready chan struct{}
	val   any
	err   error
	elem  *list.Element
}

// Cache is a content-addressed two-tier result cache: an in-memory
// singleflight tier over an optional disk Store. Keys must encode every
// input that determines the value, so a lookup can never conflate two
// computations. Identical requests are deduplicated — the first
// computes, later ones block until the value is ready and count a hit.
// A failed (or panicking) computation is evicted before its waiters
// wake, so it never poisons the key: a waiter that observes the failure
// retries the lookup and computes itself.
//
// Completed entries live in a maxEntries-capped LRU (in-flight entries
// are never evicted). With a disk store attached, every computed value
// is checkpointed there and a first request for a key is served from
// disk before anything is computed.
type Cache struct {
	mu         sync.Mutex
	entries    map[string]*cacheEntry
	order      *list.List // completed entries, most recently used first; values are keys
	maxEntries int
	stats      CacheStats
	disk       *Store // nil = memory-only
}

// NewCache returns a cache holding at most maxEntries completed values in
// memory, backed by disk (nil keeps it memory-only).
func NewCache(maxEntries int, disk *Store) *Cache {
	return &Cache{
		entries:    map[string]*cacheEntry{},
		order:      list.New(),
		maxEntries: maxEntries,
		disk:       disk,
	}
}

// complete marks e done under mu: it joins the LRU as most recent and
// the cap is enforced by dropping the least recently used completed
// entries.
func (c *Cache) complete(key string, e *cacheEntry) {
	e.elem = c.order.PushFront(key)
	for c.order.Len() > c.maxEntries {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(string))
		c.stats.Evictions++
	}
}

// Do returns the cached (or freshly computed) value for key. hit reports
// whether the value came from another request's computation or from the
// disk store. decode rebuilds the typed value from the disk tier's raw
// JSON; compute runs only when both tiers miss, and a panic inside it
// returns as an error carrying the panic value and stack. The context
// bounds only the wait on an in-flight sibling — it does not cancel the
// sibling's computation, which other waiters may still want.
func (c *Cache) Do(ctx context.Context, key string, decode func([]byte) (any, error), compute func() (any, error)) (val any, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.elem != nil {
				c.order.MoveToFront(e.elem)
			}
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, false, ctx.Err()
			case <-e.ready:
			}
			if e.err == nil {
				c.mu.Lock()
				c.stats.Hits++
				c.mu.Unlock()
				return e.val, true, nil
			}
			// The computing request failed and evicted the entry; try to
			// become the computer ourselves.
			continue
		}
		e := &cacheEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		if raw, ok := c.disk.Get(key); ok {
			if v, derr := decode(raw); derr == nil {
				c.mu.Lock()
				c.stats.DiskHits++
				c.complete(key, e)
				c.mu.Unlock()
				e.val = v
				close(e.ready)
				return v, true, nil
			}
			// Undecodable value: treat as absent and recompute (the
			// rewrite below replaces it).
		}
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
		e.val, e.err = safeCompute(compute)
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, key)
		} else {
			c.complete(key, e)
		}
		c.mu.Unlock()
		if e.err == nil {
			// Best-effort checkpoint; a failed write degrades to uncached.
			c.disk.Put(key, e.val)
		}
		close(e.ready)
		return e.val, false, e.err
	}
}

// safeCompute runs compute, turning a panic into an error so the entry
// is evicted like any other failure instead of leaving its waiters
// blocked forever and taking the process down.
func safeCompute(compute func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("store: computation panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return compute()
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
