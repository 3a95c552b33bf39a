package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecgraph/internal/datasets"
	"ecgraph/internal/nn"
)

// fakeClock is a hand-advanced clock for cache-age tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// denseEntry is a cache entry fetched at the cache's clock reading.
func denseEntry(c *ghostCache, row ...float32) *cacheEntry {
	return &cacheEntry{row: row, fetched: c.clock()}
}

func TestCacheFreshUntilTTL(t *testing.T) {
	clk := newFakeClock()
	c := newGhostCache(time.Second, 10*time.Second, clk.Now)
	tbl := make(ghostTable, 64)
	tbl[42].Store(denseEntry(c, 1, 2, 3))

	fresh, _, _ := c.lookup(tbl, 42, c.clock())
	if fresh == nil {
		t.Fatal("row should be fresh right after put")
	}
	clk.Advance(999 * time.Millisecond)
	if fresh, _, _ := c.lookup(tbl, 42, c.clock()); fresh == nil {
		t.Fatal("row should be fresh within the TTL")
	}
	clk.Advance(2 * time.Millisecond)
	fresh, lastGood, age := c.lookup(tbl, 42, c.clock())
	if fresh != nil {
		t.Fatal("row should have expired past the TTL")
	}
	if lastGood == nil || age < time.Second {
		t.Fatalf("expired row should surface as last-good (got entry=%v age=%v)", lastGood, age)
	}
	if !c.usableStale(lastGood, age) {
		t.Fatal("last-good within the staleness bound should be usable")
	}
	clk.Advance(20 * time.Second)
	_, lastGood, age = c.lookup(tbl, 42, c.clock())
	if c.usableStale(lastGood, age) {
		t.Fatalf("last-good at age %v should be beyond the 10s staleness bound", age)
	}
	if fresh, lastGood, _ := c.lookup(tbl, 41, c.clock()); fresh != nil || lastGood != nil {
		t.Fatal("an empty slot must miss with no last-good row")
	}
}

// TestCacheZeroTTLPins checks that TTL 0 pins rows for the version's
// lifetime and never reads the clock: nothing can expire, so there is no
// age to measure.
func TestCacheZeroTTLPins(t *testing.T) {
	clk := newFakeClock()
	var reads atomic.Int64
	c := newGhostCache(0, 0, func() time.Time {
		reads.Add(1)
		return clk.Now()
	})
	tbl := make(ghostTable, 8)
	tbl[7].Store(denseEntry(c, 1))
	clk.Advance(1000 * time.Hour)
	if fresh, _, _ := c.lookup(tbl, 7, c.clock()); fresh == nil {
		t.Fatal("TTL 0 must pin rows for the version's lifetime")
	}
	if n := reads.Load(); n != 0 {
		t.Fatalf("TTL 0 read the clock %d times, want 0", n)
	}
}

func TestCacheStaleBoundModes(t *testing.T) {
	clk := newFakeClock()
	unlimited := newGhostCache(time.Second, -1, clk.Now)
	none := newGhostCache(time.Second, 0, clk.Now)
	e := denseEntry(unlimited, 1)
	if !unlimited.usableStale(e, 500*time.Hour) {
		t.Fatal("maxStale < 0 should allow any last-good row")
	}
	if none.usableStale(e, time.Millisecond) {
		t.Fatal("maxStale 0 should disable the fallback entirely")
	}
	if unlimited.usableStale(nil, 0) {
		t.Fatal("no last-good row can never be usable")
	}
}

// TestCacheDropVersion checks that each version's cached ghost rows live
// and die with the version: a swap drops the old version's table, and the
// new version starts empty and fills to one entry per ghost slot.
func TestCacheDropVersion(t *testing.T) {
	d := datasets.MustLoad("cora")
	svc := newTestService(t, d, Config{Shards: 2})
	ghosts := 0
	for _, sh := range svc.shards {
		ghosts += len(sh.ghostIDs)
	}
	if ghosts == 0 {
		t.Fatal("a 2-shard cora service must have ghost slots")
	}
	for i, seed := range []int64{1, 2} {
		if err := svc.SwapModel(testModel(d, nn.KindGCN, seed)); err != nil {
			t.Fatal(err)
		}
		if got := svc.CacheStats(); got != 0 {
			t.Fatalf("swap %d: %d cached rows before any request, want 0 (old version's rows must be gone)", i, got)
		}
		predictAll(t, svc, d.Graph.N, 256)
		if got := svc.CacheStats(); got != ghosts {
			t.Fatalf("swap %d: %d cached rows after serving every vertex, want %d", i, got, ghosts)
		}
	}
}
