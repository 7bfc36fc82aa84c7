package setcover

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestNewEngineSmallAllocation guards the lazily sized cover cache: an
// engine at DefaultCacheCapacity for a 20-vertex hypergraph must cost bytes
// in proportion to the instance, not to the 64k-entry bound. The portfolio
// builds one engine per request, so a pre-sized cache (~2.4 MB) would be paid
// on every small query.
func TestNewEngineSmallAllocation(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const limit = 64 << 10
	h := randomHypergraph(rand.New(rand.NewSource(3)), 20, 30, 4)
	if n := testing.AllocsPerRun(20, func() { NewEngine(h, DefaultCacheCapacity) }); n > 64 {
		t.Errorf("NewEngine allocates %.0f times per call, want <= 64", n)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	engines := make([]*Engine, runs)
	for i := range engines {
		engines[i] = NewEngine(h, DefaultCacheCapacity)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(engines)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= limit {
		t.Errorf("NewEngine allocates %d bytes per call, want < %d", per, limit)
	}
}

// TestCoverCacheBoundAndFIFO fills a small cache far past its capacity and
// checks the two guarantees lazy sizing must keep: the total size is exactly
// the capacity once every shard is full, and each shard retains exactly its
// most recently inserted keys (FIFO eviction), with every displaced key
// counted as an eviction.
func TestCoverCacheBoundAndFIFO(t *testing.T) {
	for _, capacity := range []int{1, 5, 40, 100} {
		c := newCoverCache(capacity)
		inserted := make(map[*cacheShard][]string)
		const keys = 2000
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("bag-%d", i))
			c.update(k, func(e *coverEntry) { e.greedy = int32(i % 100) })
			sh := c.shard(k)
			inserted[sh] = append(inserted[sh], string(k))
		}
		size, evictions := c.sizeAndEvictions()
		if size != capacity {
			t.Fatalf("capacity %d: cache holds %d entries after %d inserts", capacity, size, keys)
		}
		if evictions != int64(keys-capacity) {
			t.Fatalf("capacity %d: %d evictions, want %d", capacity, evictions, keys-capacity)
		}
		for i := range c.shards {
			sh := &c.shards[i]
			all := inserted[sh]
			if len(all) <= sh.capacity {
				t.Fatalf("capacity %d: shard %d saw only %d keys; the test must overfill every shard", capacity, i, len(all))
			}
			if len(sh.ring) != sh.capacity || len(sh.m) != sh.capacity {
				t.Fatalf("capacity %d: shard %d ring %d / map %d entries, want %d", capacity, i, len(sh.ring), len(sh.m), sh.capacity)
			}
			newest := all[len(all)-sh.capacity:]
			for _, k := range newest {
				if _, ok := c.lookup([]byte(k)); !ok {
					t.Fatalf("capacity %d: shard %d evicted %s, one of its %d newest keys", capacity, i, k, sh.capacity)
				}
			}
			if _, ok := c.lookup([]byte(all[len(all)-sh.capacity-1])); ok {
				t.Fatalf("capacity %d: shard %d kept a key FIFO eviction should have dropped", capacity, i)
			}
		}
	}
}
