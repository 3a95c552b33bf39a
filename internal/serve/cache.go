package serve

import (
	"sync/atomic"
	"time"

	"ecgraph/internal/compress"
)

// ghostCache is a shard's freshness policy for cached remote S^L rows; the
// rows themselves live in each version's ghostTable.
//
// Freshness follows the degraded-fetch semantics of the training exchange
// (internal/worker/exchange.go): a row younger than the TTL serves
// directly; an expired row is refetched, but if the owning peer fails the
// last-good copy still serves as long as it is within the staleness bound.
// Per-version embeddings are immutable, so TTL 0 ("never expires") is the
// exact configuration; a positive TTL exists to bound memory and to keep
// the degraded path honest under chaos.
type ghostCache struct {
	ttl      time.Duration // 0: rows never expire
	maxStale time.Duration // <0: unlimited last-good fallback; 0: none
	now      func() time.Time
}

func newGhostCache(ttl, maxStale time.Duration, now func() time.Time) *ghostCache {
	return &ghostCache{ttl: ttl, maxStale: maxStale, now: now}
}

// ghostTable is one model version's cache of remote S^L rows, indexed by
// the shard's ghost slot. It is allocated at install and dropped with the
// version, so a hit is a single atomic load: no lock, no map, no key.
type ghostTable []atomic.Pointer[cacheEntry]

// cacheEntry is immutable once stored: concurrent batch rounds read entries
// without a lock, so a row is never updated in place — a refetch stores a
// fresh entry. Exactly one representation is set: row (dense payloads, or
// any payload when PackedSpMM is off) or pb/pr (row pr of a retained packed
// payload, the PackedSpMM steady state — the cached bytes stay quantised
// end to end). fetched is the zero time when rows never expire.
type cacheEntry struct {
	row     []float32
	pb      *compress.Blocked
	pr      int
	fetched time.Time
}

// denseRow materialises the entry as float32s — the degraded-fallback
// path. The decode is per call, not memoised: writing back would mutate a
// shared entry under concurrent readers, and fallbacks are cold.
func (e *cacheEntry) denseRow() []float32 {
	if e.row != nil {
		return e.row
	}
	out := make([]float32, e.pb.Cols)
	e.pb.DequantRowInto(e.pr, out)
	return out
}

// clock is the one clock reading a batch takes. Ages only matter when rows
// can expire, so at TTL 0 it returns the zero time without reading the
// clock at all.
func (c *ghostCache) clock() time.Time {
	if c.ttl == 0 {
		return time.Time{}
	}
	return c.now()
}

// lookup returns the slot's entry if it is fresh at now (a clock reading),
// else nil plus the last-good entry (if any) with its age, letting the
// caller apply the staleness bound after a failed refetch.
func (c *ghostCache) lookup(t ghostTable, slot int32, now time.Time) (fresh, lastGood *cacheEntry, age time.Duration) {
	e := t[slot].Load()
	if e == nil {
		return nil, nil, 0
	}
	if c.ttl == 0 {
		return e, e, 0
	}
	age = now.Sub(e.fetched)
	if age <= c.ttl {
		return e, e, age
	}
	return nil, e, age
}

// usableStale reports whether a last-good entry of the given age may serve
// after a failed refetch.
func (c *ghostCache) usableStale(lastGood *cacheEntry, age time.Duration) bool {
	if lastGood == nil || c.maxStale == 0 {
		return false
	}
	return c.maxStale < 0 || age <= c.maxStale
}

// size counts the table's filled slots (test hook).
func (t ghostTable) size() int {
	n := 0
	for i := range t {
		if t[i].Load() != nil {
			n++
		}
	}
	return n
}
