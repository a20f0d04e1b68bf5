package store

import (
	"context"
	"strings"
	"testing"
)

// Cache's hit, failure-eviction, singleflight, LRU and disk-tier tests run
// against the cache as the server configures it, in internal/server.

func TestCachePanicBecomesErrorAndWaiterRecomputes(t *testing.T) {
	c := NewCache(4, nil)
	type result struct {
		v   any
		hit bool
		err error
	}
	release := make(chan struct{})
	computing := make(chan struct{})
	panicked := make(chan result, 1)
	go func() {
		v, hit, err := c.Do(context.Background(), "k", nil, func() (any, error) {
			close(computing)
			<-release
			panic("usage overflows int16")
		})
		panicked <- result{v, hit, err}
	}()
	<-computing
	waiter := make(chan result, 1)
	go func() {
		v, hit, err := c.Do(context.Background(), "k", nil, func() (any, error) { return "recomputed", nil })
		waiter <- result{v, hit, err}
	}()
	close(release)
	r := <-panicked
	if r.err == nil || !strings.Contains(r.err.Error(), "usage overflows int16") || !strings.Contains(r.err.Error(), "goroutine") {
		t.Fatalf("panicking compute returned %+v, want an error carrying the panic value and stack", r)
	}
	// The waiter — blocked on the panicking entry, or arriving just after
	// its eviction — must wake and compute the value itself.
	r = <-waiter
	if r.err != nil || r.hit || r.v != "recomputed" {
		t.Fatalf("waiter got %+v, want its own recomputation", r)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses / 0 hits", st)
	}
}
