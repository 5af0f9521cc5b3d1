package ttlcache_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/ttlcache"
)

// freezeLRU builds a single-session watermarked cache on a frozen clock
// starting at startMs.
func freezeLRU(t *testing.T, maxLive int, startMs int64) (ttlcache.Session, *ttlcache.Cache, *atomic.Int64) {
	t.Helper()
	c, clock := freeze(t, 1, max(4*maxLive, 1<<12), ttlcache.Options{MaxLive: maxLive})
	clock.Store(startMs)
	s, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Release)
	return s, c, clock
}

// TestLRUEvictsUntouched fills a cache to its watermark, touches half
// the keys 50ms later and inserts a quarter more: every eviction must
// take an untouched key. Access stamps coarser than 50ms would tie the
// two halves and evict at random.
func TestLRUEvictsUntouched(t *testing.T) {
	const maxLive = 1024
	s, c, clock := freezeLRU(t, maxLive, 1)
	for k := uint64(1); k <= maxLive; k++ {
		if err := s.SetTTL(k, k, ttlcache.NoExpiry); err != nil {
			t.Fatal(err)
		}
	}
	clock.Add(50)
	for k := uint64(2); k <= maxLive; k += 2 {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %d lost before the watermark was crossed", k)
		}
	}
	for k := uint64(maxLive + 1); k <= maxLive+maxLive/4; k++ {
		if err := s.SetTTL(k, k, ttlcache.NoExpiry); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evicted != maxLive/4 || st.Live != maxLive {
		t.Fatalf("stats %+v, want %d evicted and %d live", st, maxLive/4, maxLive)
	}
	var wrong []uint64
	for k := uint64(1); k <= maxLive+maxLive/4; k++ {
		untouched := k%2 == 1 && k <= maxLive
		if !untouched && !s.Contains(k) {
			wrong = append(wrong, k)
		}
	}
	if len(wrong) > 0 {
		t.Fatalf("%d keys stamped after every untouched key were evicted, e.g. %v",
			len(wrong), wrong[:min(len(wrong), 8)])
	}
}

// TestEvictSparesTouchedVictim refreshes a victim's stamp between its
// sampling and the eviction step: the tombstone CAS must fail on the
// changed aux word and leave the key alive.
func TestEvictSparesTouchedVictim(t *testing.T) {
	s, c, clock := freezeLRU(t, 64, 1)
	if err := s.SetTTL(7, 70, ttlcache.NoExpiry); err != nil {
		t.Fatal(err)
	}
	_, sampled, ok := s.Unwrap().GetWithAux(7)
	if !ok {
		t.Fatal("key 7 missing")
	}
	clock.Add(50)
	if _, ok := s.Get(7); !ok { // refreshes the stamp
		t.Fatal("key 7 missing")
	}
	if c.EvictOne(s.Unwrap(), 7, sampled) {
		t.Fatal("evicted a key touched after it was sampled")
	}
	if v, ok := s.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = %d,%v after the spared eviction", v, ok)
	}
	// Sampled afresh, the same key is evictable.
	_, sampled, _ = s.Unwrap().GetWithAux(7)
	if !c.EvictOne(s.Unwrap(), 7, sampled) || s.Contains(7) {
		t.Fatal("fresh sample did not evict")
	}
	if st := c.Stats(); st.Evicted != 1 || st.Live != 0 {
		t.Fatalf("stats %+v, want 1 evicted, 0 live", st)
	}
}

// TestLRURanksAcrossStampWrap stamps half the entries just before the
// 23-bit stamp wraps and half just after: the pre-wrap entries are the
// oldest and must go first, in stamp order. The cache is small enough
// that each eviction samples every entry, so the order is exact.
func TestLRURanksAcrossStampWrap(t *testing.T) {
	const tickMs = 10
	const wrapMs = (1 << 23) * tickMs
	s, c, clock := freezeLRU(t, 8, wrapMs-4*tickMs)
	for k := uint64(1); k <= 8; k++ { // keys 1–4 before the wrap, 5–8 after
		if err := s.SetTTL(k, k, ttlcache.NoExpiry); err != nil {
			t.Fatal(err)
		}
		clock.Add(tickMs)
	}
	for k := uint64(9); k <= 12; k++ {
		if err := s.SetTTL(k, k, ttlcache.NoExpiry); err != nil {
			t.Fatal(err)
		}
		clock.Add(tickMs)
		for j := uint64(1); j <= 12; j++ {
			want := j > k-8 && j <= k
			if got := s.Contains(j); got != want {
				t.Fatalf("after inserting %d: Contains(%d) = %v, want %v", k, j, got, want)
			}
		}
	}
	if st := c.Stats(); st.Evicted != 4 {
		t.Fatalf("stats %+v, want 4 evicted", st)
	}
}

// TestSizingFollowsWatermark pins the constructor sizing rule: a
// watermarked cache without an explicit expected size gets a table for
// its watermark (per shard, like the watermark), an explicit size wins,
// and a cache without either is sized for half its node budget.
func TestSizingFollowsWatermark(t *testing.T) {
	const capacity = 1 << 16
	cfg := core.Config{MaxThreads: 1, Capacity: capacity}
	for _, tc := range []struct {
		expected, maxLive, shards, buckets int
	}{
		{0, 3000, 1, 4096},        // 3000/0.75 → 4096
		{0, 6000, 2, 4096},        // 3000 per shard
		{1 << 14, 3000, 1, 32768}, // explicit: 16384/0.75 → 32768
		{0, 0, 1, 65536},          // capacity/2: 32768/0.75 → 65536
	} {
		sh := kvmap.NewSharded(cfg, ttlcache.Expected(tc.expected, tc.maxLive, capacity), tc.shards)
		c := ttlcache.OverSharded(sh, ttlcache.Options{MaxLive: tc.maxLive})
		for i := 0; i < c.NumShards(); i++ {
			if got := c.Cache(i).Map().Buckets(); got != tc.buckets {
				t.Errorf("expected=%d maxLive=%d shards=%d: shard %d has %d buckets, want %d",
					tc.expected, tc.maxLive, tc.shards, i, got, tc.buckets)
			}
		}
		c.Close()
		sh.Close()
	}
}
