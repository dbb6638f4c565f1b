package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// lruCache is a fixed-capacity LRU over produced results. Each value
// carries the canonical JSON bytes a request produced — so a hit
// replays the exact body the first caller saw — plus the trace ID of
// the run that produced them (so ?trace=1 on a hot key can serve the
// stored trace of the original run instead of re-mining) and the
// decoded result and its options, which is what lets a cache miss be
// answered by post-filtering a subsuming entry (morphCandidates).
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *lruEntry
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	p   produced
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached produced value for key, promoting it to most
// recent.
func (c *lruCache) get(key string) (produced, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return produced{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).p, true
}

// put inserts or refreshes key, evicting the least recent entry when
// over capacity.
func (c *lruCache) put(key string, p produced) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).p = p
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, p: p})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

// morphCandidates returns the entries a morph scan may post-filter:
// every mining entry (a /v1/backbones listing has no decoded result),
// most recently used first (the hottest superset answers first). The entries are COPIED
// out under the lock — a produced value is self-contained — so the
// scan itself runs lock-free and is immune to concurrent eviction:
// an entry evicted mid-scan still answers correctly from the copy.
// Scanning does not promote: reading an entry as a morph source says
// nothing about how hot its own key is.
func (c *lruCache) morphCandidates() []produced {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]produced, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		if p := el.Value.(*lruEntry).p; p.res != nil {
			out = append(out, p)
		}
	}
	return out
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flightGroup coalesces concurrent calls that share a key: the first
// caller runs fn, every caller that arrives while it is in flight waits
// for and shares the same result (the singleflight pattern, implemented
// locally because the module deliberately has no dependencies).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	waiters atomic.Int64 // callers parked on done (canceled ones leave); observed by tests
	res     produced
	err     error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn under key, returning its result and whether this caller
// shared another caller's in-flight run. The call is always
// deregistered and its waiters released, even when fn panics (waiters
// then see an error while the panic propagates to the leader's
// recovery handler).
//
// ctx is the CALLER's context, not the leader's: a follower whose own
// request dies (client disconnect, deadline) stops waiting immediately
// and gets an admission-canceled error with shared=true — the leader's
// run is untouched, and no goroutine or connection stays parked on work
// its requester will never read. Before this select existed a follower
// was blind to its own cancellation until the leader finished.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (produced, error)) (res produced, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.waiters.Add(1)
		select {
		case <-c.done:
			return c.res, c.err, true
		case <-ctx.Done():
			c.waiters.Add(-1)
			return produced{}, fmt.Errorf("%w: %v", errAdmissionCanceled, ctx.Err()), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		if r := recover(); r != nil {
			c.err = fmt.Errorf("server: in-flight run panicked: %v", r)
			close(c.done)
			panic(r)
		}
		close(c.done)
	}()
	c.res, c.err = fn()
	return c.res, c.err, false
}
