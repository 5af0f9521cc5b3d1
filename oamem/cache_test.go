package oamem_test

import (
	"errors"
	"testing"
	"time"

	"repro/oamem"
)

// TestPublicCache covers the Cache constructor end to end: default-TTL
// expiry, per-key TTL override, TTL introspection and LRU pressure
// eviction, all through leased CacheSessions.
func TestPublicCache(t *testing.T) {
	c, err := oamem.Cache(
		oamem.WithThreads(2),
		oamem.WithCapacity(1<<14),
		oamem.WithTTL(40*time.Millisecond),
		oamem.WithEvictionPolicy(oamem.EvictLRU(256)),
		oamem.WithSweepInterval(-1), // lazy expiry only: deterministic counters
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	if err := s.Set(1, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(1); !ok || v != 100 {
		t.Fatalf("Get = %d,%v want 100,true", v, ok)
	}
	if remaining, hasTTL, ok := s.TTL(1); !ok || !hasTTL || remaining <= 0 || remaining > 40*time.Millisecond {
		t.Fatalf("TTL = %v,%v,%v", remaining, hasTTL, ok)
	}
	// A key set with NoExpiry never dies.
	if err := s.SetTTL(2, 200, oamem.NoExpiry); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, ok := s.Get(1); ok {
		t.Fatal("key 1 outlived its default TTL")
	}
	if v, ok := s.Get(2); !ok || v != 200 {
		t.Fatalf("NoExpiry key lost: %d,%v", v, ok)
	}
	if st := c.Stats(); st.Expired == 0 {
		t.Fatalf("expiry not counted: %+v", st)
	}

	// Push past the LRU watermark: the cache sheds entries instead of
	// growing without bound.
	for k := uint64(10); k < 10+600; k++ {
		if err := s.SetTTL(k, k, oamem.NoExpiry); err != nil {
			t.Fatalf("SetTTL(%d): %v", k, err)
		}
	}
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions past the watermark: %+v", st)
	}
	if st.Live > 300 {
		t.Fatalf("live %d far above watermark 256: %+v", st.Live, st)
	}
}

// TestPublicCacheSchemeRejected pins the OA-only constraint.
func TestPublicCacheSchemeRejected(t *testing.T) {
	if _, err := oamem.Cache(oamem.WithScheme(oamem.HP)); !errors.Is(err, oamem.ErrInvalidOptions) {
		t.Fatalf("non-OA cache: %v, want ErrInvalidOptions", err)
	}
}

// TestPublicCacheSizing pins the Cache constructor's table sizing: the
// EvictLRU watermark when no WithExpected is given, WithExpected when it
// is.
func TestPublicCacheSizing(t *testing.T) {
	for _, tc := range []struct {
		opts    []oamem.Option
		buckets int
	}{
		{[]oamem.Option{oamem.WithEvictionPolicy(oamem.EvictLRU(3000))}, 4096},
		{[]oamem.Option{oamem.WithEvictionPolicy(oamem.EvictLRU(3000)), oamem.WithExpected(1 << 14)}, 32768},
		{nil, 65536}, // half the capacity
	} {
		opts := append([]oamem.Option{oamem.WithCapacity(1 << 16), oamem.WithSweepInterval(-1)}, tc.opts...)
		c, err := oamem.Cache(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Map().Buckets(); got != tc.buckets {
			t.Errorf("%d options: %d buckets, want %d", len(tc.opts), got, tc.buckets)
		}
		c.Close()
		c.Map().Close()
	}
}
