package ttlcache_test

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/lease"
	"repro/internal/ttlcache"
)

// freeze builds a cache over a fresh map on a frozen test clock so
// every deadline comparison is exact (the real clock would make the
// sub-millisecond window around a deadline nondeterministic). The map is
// sized by the constructor rule, as servers size it.
func freeze(t *testing.T, threads, capacity int, o ttlcache.Options) (*ttlcache.Cache, *atomic.Int64) {
	t.Helper()
	clock := new(atomic.Int64)
	clock.Store(1)
	o.NowMs = clock.Load
	// A small spin limit keeps each provoked starvation event cheap —
	// the default 1<<22 spins cost seconds apiece (minutes under -race)
	// and the tests below starve the arena on purpose, repeatedly.
	m := kvmap.New(core.Config{
		MaxThreads: threads, Capacity: capacity, AllocSpinLimit: 1 << 12,
	}, ttlcache.Expected(0, o.MaxLive, capacity))
	c := ttlcache.Over(m, o)
	t.Cleanup(c.Close)
	return c, clock
}

func TestGetSetExpireLinearizable(t *testing.T) {
	c, clock := freeze(t, 1, 1<<12, ttlcache.Options{})
	s, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	// Sequential model check over a mixed op stream: a map plus explicit
	// deadlines replayed against the cache on the same frozen clock.
	type entry struct {
		val      uint64
		deadline int64 // 0 = none, ms on the test clock
	}
	model := map[uint64]entry{}
	alive := func(k uint64) (entry, bool) {
		e, ok := model[k]
		if !ok || (e.deadline != 0 && e.deadline <= clock.Load()) {
			return entry{}, false
		}
		return e, true
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(64)) + 1
		switch rng.Intn(6) {
		case 0: // Set without TTL
			v := uint64(i)
			if err := s.Set(k, v); err != nil {
				t.Fatalf("op %d: Set: %v", i, err)
			}
			model[k] = entry{val: v}
		case 1: // SetTTL
			v := uint64(i)
			ttl := time.Duration(1+rng.Intn(50)) * time.Millisecond
			if err := s.SetTTL(k, v, ttl); err != nil {
				t.Fatalf("op %d: SetTTL: %v", i, err)
			}
			model[k] = entry{val: v, deadline: clock.Load() + int64(ttl/time.Millisecond)}
		case 2: // Get
			e, want := alive(k)
			v, ok := s.Get(k)
			if ok != want || (ok && v != e.val) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, e.val, want)
			}
		case 3: // Expire
			_, want := alive(k)
			ttl := time.Duration(1+rng.Intn(50)) * time.Millisecond
			if got := s.Expire(k, ttl); got != want {
				t.Fatalf("op %d: Expire(%d) = %v want %v", i, k, got, want)
			}
			if want {
				e := model[k]
				e.deadline = clock.Load() + int64(ttl/time.Millisecond)
				model[k] = e
			}
		case 4: // Remove
			_, want := alive(k)
			if got := s.Remove(k); got != want {
				t.Fatalf("op %d: Remove(%d) = %v want %v", i, k, got, want)
			}
			delete(model, k)
		case 5: // advance the clock a little
			clock.Add(int64(rng.Intn(7)))
		}
	}
	st := c.Stats()
	if st.Expired == 0 {
		t.Fatalf("stream produced no expiries: %+v", st)
	}
	// Model and cache agree on the final live set.
	live := int64(0)
	for k := uint64(1); k <= 64; k++ {
		e, want := alive(k)
		v, ok := s.Get(k)
		if ok != want || (ok && v != e.val) {
			t.Fatalf("final: Get(%d) = %d,%v want %d,%v", k, v, ok, e.val, want)
		}
		if want {
			live++
		}
	}
	if got := c.Stats().Live; got != live {
		t.Fatalf("live counter = %d, model says %d", got, live)
	}
}

func TestTTLIntrospection(t *testing.T) {
	c, clock := freeze(t, 1, 4096, ttlcache.Options{DefaultTTL: 100 * time.Millisecond})
	s, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	// Set applies the default TTL; NoExpiry opts out per key.
	if err := s.Set(1, 10); err != nil {
		t.Fatal(err)
	}
	if remaining, hasTTL, ok := s.TTL(1); !ok || !hasTTL || remaining != 100*time.Millisecond {
		t.Fatalf("TTL(1) = %v,%v,%v", remaining, hasTTL, ok)
	}
	if err := s.SetTTL(2, 20, ttlcache.NoExpiry); err != nil {
		t.Fatal(err)
	}
	if _, hasTTL, ok := s.TTL(2); !ok || hasTTL {
		t.Fatalf("NoExpiry key reports a TTL")
	}
	// Set on a live key refreshes the deadline (value and TTL update).
	clock.Add(60)
	if err := s.Set(1, 11); err != nil {
		t.Fatal(err)
	}
	if remaining, _, _ := s.TTL(1); remaining != 100*time.Millisecond {
		t.Fatalf("refreshed TTL = %v, want 100ms", remaining)
	}
	clock.Add(99)
	if v, ok := s.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) 1ms before deadline = %d,%v", v, ok)
	}
	clock.Add(1)
	if _, ok := s.Get(1); ok {
		t.Fatal("Get(1) at the deadline instant still alive")
	}
	if _, _, ok := s.TTL(1); ok {
		t.Fatal("TTL(1) after death reports ok")
	}
	if _, ok := s.Get(2); !ok {
		t.Fatal("NoExpiry key died")
	}
	// Expire with non-positive ttl clears the deadline without removal.
	if !s.Expire(2, 0) {
		t.Fatal("Expire(2, 0) on live key = false")
	}
	if _, hasTTL, ok := s.TTL(2); !ok || hasTTL {
		t.Fatal("deadline not cleared")
	}
}

func TestSweepReapsExpired(t *testing.T) {
	c, clock := freeze(t, 1, 1<<13, ttlcache.Options{})
	s, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	for k := uint64(1); k <= 500; k++ {
		ttl := time.Duration(k%2+1) * 50 * time.Millisecond // 50 or 100ms
		if err := s.SetTTL(k, k, ttl); err != nil {
			t.Fatal(err)
		}
	}
	clock.Add(60)
	freed := c.Sweep(s.Unwrap())
	if freed != 250 {
		t.Fatalf("sweep at t+60ms freed %d, want 250", freed)
	}
	if got := c.Stats().Live; got != 250 {
		t.Fatalf("live = %d, want 250", got)
	}
	clock.Add(50)
	if freed := c.Sweep(s.Unwrap()); freed != 250 {
		t.Fatalf("second sweep freed %d, want 250", freed)
	}
	if got := c.Stats().Live; got != 0 {
		t.Fatalf("live = %d, want 0", got)
	}
}

// TestCapacityRelief drives the arena into allocation starvation and
// proves (a) expired entries are swept to make room and (b) with
// nothing left to sweep, LRU eviction takes over. Relief is best
// effort — a Set racing the reclamation drain can still fail — so the
// test tolerates a small typed-failure rate rather than asserting
// perfection the scheme does not promise.
func TestCapacityRelief(t *testing.T) {
	const capacity = 2048 // node budget ≈ live entries + reclamation slack
	c, clock := freeze(t, 1, capacity, ttlcache.Options{})
	s, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	// Phase 1: short-lived entries that all expire...
	for k := uint64(1); k <= 1200; k++ {
		if err := s.SetTTL(k, k, 10*time.Millisecond); err != nil {
			t.Fatalf("phase 1 SetTTL(%d): %v", k, err)
		}
	}
	clock.Add(20)
	// ...then immortal inserts that only fit if relief sweeps the dead:
	// demand crosses the node budget partway through, allocation starves
	// once, and the relief sweep reclaims the whole dead set.
	okCount := 0
	for k := uint64(10_001); k <= 11_700; k++ {
		err := s.SetTTL(k, k, ttlcache.NoExpiry)
		if err == nil {
			okCount++
		} else if !errors.Is(err, lease.ErrCapacityExhausted) {
			t.Fatalf("phase 2 SetTTL(%d): untyped failure %v", k, err)
		}
	}
	st := c.Stats()
	if st.Reliefs == 0 {
		t.Fatalf("no relief passes under pressure: %+v", st)
	}
	if st.Expired < 1000 {
		t.Fatalf("relief swept only %d expired entries: %+v", st.Expired, st)
	}
	if okCount < 1600 {
		t.Fatalf("only %d/1700 immortal inserts survived relief: %+v", okCount, st)
	}
	// Phase 3: the live set is now immortal, so the next starvation finds
	// nothing to sweep and must evict. Each starvation spin is expensive
	// (the allocator burns its full recycle budget before giving up), so
	// stop at the first proven eviction instead of grinding past the wall.
	for k := uint64(20_001); k <= 20_600 && c.Stats().Evicted == 0; k++ {
		clock.Add(10) // age the stamps so LRU ordering is meaningful
		if err := s.SetTTL(k, k, ttlcache.NoExpiry); err != nil && !errors.Is(err, lease.ErrCapacityExhausted) {
			t.Fatalf("phase 3 SetTTL(%d): untyped failure %v", k, err)
		}
	}
	st = c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions under immortal pressure: %+v", st)
	}
	if st.Live > capacity {
		t.Fatalf("live %d exceeds node budget %d", st.Live, capacity)
	}
	// A fresh insert lands in the room the evictions just made, and no
	// later eviction can touch it — the newest entry survives.
	if err := s.SetTTL(30_000, 1, ttlcache.NoExpiry); err != nil {
		t.Fatalf("post-eviction insert: %v", err)
	}
	if _, ok := s.Get(30_000); !ok {
		t.Fatal("post-eviction insert did not survive")
	}
}

// TestConcurrentChurn hammers the cache from several goroutines with a
// moving clock under -race: sets, reads, expiries and removals racing
// over a small key range, then checks counter consistency.
func TestConcurrentChurn(t *testing.T) {
	const workers = 4
	c, clock := freeze(t, workers+1, 1<<14, ttlcache.Options{DefaultTTL: 5 * time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the clock goroutine: ~1ms per tick
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.Add(1)
				runtime.Gosched()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := c.Acquire()
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer s.Release()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20000; i++ {
				k := uint64(rng.Intn(128)) + 1
				switch rng.Intn(5) {
				case 0:
					if err := s.Set(k, uint64(i)); err != nil {
						t.Errorf("Set: %v", err)
						return
					}
				case 1:
					if err := s.SetTTL(k, uint64(i), ttlcache.NoExpiry); err != nil {
						t.Errorf("SetTTL: %v", err)
						return
					}
				case 2:
					s.Get(k)
				case 3:
					s.Expire(k, time.Duration(1+rng.Intn(10))*time.Millisecond)
				case 4:
					s.Remove(k)
				}
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Drain everything and check the live counter returns to zero: every
	// unlink was counted exactly once, no matter which racer won it.
	s, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	for k := uint64(1); k <= 128; k++ {
		s.Remove(k)
	}
	c.Sweep(s.Unwrap())
	if got := c.Stats().Live; got != 0 {
		t.Fatalf("live = %d after full drain, want 0", got)
	}
}

// TestSetFailureIsTyped overfills a tiny arena with immortal entries.
// Relief evicts where it can; when a Set does fail — recycling lags
// the unlinks on a small local pool — the error must wrap the shared
// capacity sentinel, and the cache must stay usable afterwards.
func TestSetFailureIsTyped(t *testing.T) {
	m := kvmap.New(core.Config{
		MaxThreads: 1, Capacity: 512, LocalPool: 8, AllocSpinLimit: 1 << 12,
	}, 256)
	clock := new(atomic.Int64)
	clock.Store(1)
	c := ttlcache.Over(m, ttlcache.Options{NowMs: clock.Load})
	defer c.Close()
	s, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	for k := uint64(1); k <= 650; k++ {
		clock.Add(1_000)
		if err := s.SetTTL(k, k, ttlcache.NoExpiry); err != nil {
			if !errors.Is(err, lease.ErrCapacityExhausted) {
				t.Fatalf("Set failure is not typed: %v", err)
			}
			break
		}
	}
	// Whether or not Set ever failed, the cache must still be usable.
	if err := s.Set(1, 1); err != nil && !errors.Is(err, lease.ErrCapacityExhausted) {
		t.Fatalf("post-pressure Set: %v", err)
	}
	if st := c.Stats(); st.Reliefs == 0 {
		t.Fatalf("650 immortal inserts into a 512-node budget never relieved: %+v", st)
	}
}

// TestBackgroundSweeper lets the real sweeper goroutine (real clock)
// reap a short-TTL entry without any reads touching it.
func TestBackgroundSweeper(t *testing.T) {
	m := kvmap.New(core.Config{MaxThreads: 2, Capacity: 4096}, 2048)
	c := ttlcache.Over(m, ttlcache.Options{SweepInterval: 5 * time.Millisecond})
	defer c.Close()
	s, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetTTL(1, 1, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Release() // free the slot so the sweeper's lazy Acquire can run
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := c.Stats(); st.Expired == 1 && st.Live == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweeper never reaped the entry: %+v", c.Stats())
}
