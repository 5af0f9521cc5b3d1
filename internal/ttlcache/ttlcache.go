// Package ttlcache layers TTL expiry and LRU eviction over the kvmap
// hash map — the structure a production KV server still lacked, built on
// the oakit primitives to prove the kit's claim that a new OA structure
// costs ~100 lines of structure-specific protocol code (the rest of this
// package is policy: clocks, sampling, sweeping).
//
// # Protocol
//
// All per-entry state lives in the kvmap node's Aux word:
//
//	bit  63     tombstone: the entry is logically dead, permanently
//	bits 40..62 access stamp: 10ms ticks since the cache epoch (LRU, ~23h wrap)
//	bits  0..39 deadline: milliseconds since the cache epoch; 0 = no TTL
//
// An entry is dead when its tombstone is set or its deadline has passed.
// Death by timeout needs no writer — Get simply stops returning the
// entry — so expiry linearizes at the deadline instant even though the
// node is unlinked lazily. Physical removal is a two-step protocol:
//
//  1. Tombstone: AuxCAS(aux → aux|tomb), valid only on a dead-by-deadline
//     entry (expiry) or a live one (eviction). The CAS loses to any
//     concurrent aux transition — a SETEX refreshing the deadline, an
//     access stamp — and re-reads, so no live entry is ever tombstoned by
//     a stale decision.
//  2. Unlink: RemoveIfAux(key, tomb, tomb) marks the node only while the
//     tombstone still holds; since tombstones are permanent and fresh
//     same-key inserts start untombstoned, a new entry can never be
//     removed by an old reaper. The thread whose RemoveIfAux wins does
//     the live-count bookkeeping, exactly once per node.
//
// Value updates on a live entry are an in-place CAS on the value word
// (kvmap.CompareAndSwap) followed by the deadline CAS: a Set is
// two linearization points — the value applies first, the TTL refresh
// second — and a Set that loses the tombstone race between them simply
// re-inserts a fresh node (see Set). Reads validate value and aux in one
// batch (GetWithAux), so a recycled or resurrected slot is never
// returned: the usual OA warning machinery covers the cache because the
// cache is just aux-word policy over the map.
//
// # Eviction
//
// Capacity pressure never OOM-kills a Set: the arena's starvation panic
// (wrapping lease.ErrCapacityExhausted) is caught, a relief pass sweeps
// expired entries and evicts the oldest-stamped live ones (sampled LRU
// over rotating buckets), and the Set retries; only when relief frees
// nothing is ErrCapacityExhausted returned as an error. A MaxLive
// watermark additionally triggers small inline eviction batches on
// insert, and an optional background sweeper unlinks dead entries so
// their slots recycle through the ordinary retire → warning → drain
// pipeline without waiting for a reader to trip over them.
//
// Candidates rank by wrap-aware age, (nowTick − stamp) mod 2^23, so a
// stamp taken just after the wrap still reads younger than one taken
// just before it. The 10ms tick keeps the ranking sharp when the
// eviction cursor laps the table in well under a second; a stamp only
// misranks once it is a full wrap (~23h) old. A victim is tombstoned by
// a CAS from the aux word it was sampled with, so an entry touched
// between sampling and eviction survives the pass.
//
// # Sizing
//
// Each eviction walks buckets until it holds enough candidates, so its
// cost follows the table's bucket count per live entry. Expected is the
// one sizing rule every cache constructor applies: a cache with a
// watermark is sized for the watermark, not for its node budget.
package ttlcache

import (
	"errors"
	"time"

	"sync/atomic"

	"repro/internal/kvmap"
	"repro/internal/lease"
)

const (
	tombBit      = uint64(1) << 63
	deadlineBits = 40
	deadlineMask = uint64(1)<<deadlineBits - 1
	accessBits   = 23
	accessMask   = (uint64(1)<<accessBits - 1) << deadlineBits
	// tickMs is the access-stamp resolution: 23 bits of 10ms ticks wrap
	// after about 23 hours.
	tickMs = 10
)

// NoExpiry marks an entry without a deadline.
const NoExpiry time.Duration = -1

// Expected is the expected-entry count a cache's kvmap is sized for:
// an explicit expected > 0 wins; otherwise a cache with an LRU
// watermark maxLive > 0 is sized for the watermark, since eviction
// holds its live set there; otherwise half the node budget capacity.
// Sizing a watermarked cache for its node budget would leave most
// buckets empty, and every eviction would walk them to gather
// candidates.
func Expected(expected, maxLive, capacity int) int {
	switch {
	case expected > 0:
		return expected
	case maxLive > 0:
		return maxLive
	}
	return capacity / 2
}

func deadlineOf(a uint64) int64 { return int64(a & deadlineMask) }

func withAccess(a uint64, nowMs int64) uint64 {
	return a&^accessMask | (uint64(nowMs/tickMs)<<deadlineBits)&accessMask
}

// ageOf is how many ticks ago a was stamped, modulo the stamp's wrap.
func ageOf(a uint64, nowMs int64) uint64 {
	return (uint64(nowMs/tickMs) - a>>deadlineBits) & (1<<accessBits - 1)
}

func withDeadline(a uint64, d int64) uint64 {
	return a&^deadlineMask | uint64(d)&deadlineMask
}

func isDead(a uint64, nowMs int64) bool {
	if a&tombBit != 0 {
		return true
	}
	d := deadlineOf(a)
	return d != 0 && nowMs >= d
}

// Options configures a Cache.
type Options struct {
	// DefaultTTL applies to Set calls without an explicit TTL; zero means
	// entries without an explicit TTL never expire.
	DefaultTTL time.Duration
	// MaxLive is the LRU watermark: inserts past it trigger eviction of
	// the oldest-accessed entries. Zero disables watermark eviction
	// (capacity-pressure relief still evicts).
	MaxLive int
	// SweepInterval is the background sweeper period; zero disables the
	// sweeper (expiry still happens lazily on reads and under pressure).
	SweepInterval time.Duration
	// NowMs overrides the clock (milliseconds since an arbitrary epoch,
	// monotone). Nil uses a monotonic clock from time.Now at
	// construction. Tests freeze it.
	NowMs func() int64
}

// Cache is the TTL/LRU layer over one kvmap.Map. It does not own the
// map's session economy: callers lease kvmap sessions as usual and wrap
// them with With.
type Cache struct {
	m     *kvmap.Map
	nowMs func() int64
	opts  Options

	live    atomic.Int64
	cursor  atomic.Uint32 // rotating bucket cursor for sampling/sweeping
	expired atomic.Uint64
	evicted atomic.Uint64
	relieve atomic.Uint64 // capacity-pressure relief passes
	sweeps  atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// Stats is a point-in-time snapshot of the cache's own counters (the
// underlying reclamation counters stay on the map's manager).
type Stats struct {
	Live    int64  `json:"live"`    // approximate live entries (expired-but-unswept included)
	Expired uint64 `json:"expired"` // entries unlinked because their deadline passed
	Evicted uint64 `json:"evicted"` // live entries unlinked by LRU pressure
	Reliefs uint64 `json:"reliefs"` // capacity-pressure relief passes
	Sweeps  uint64 `json:"sweeps"`  // background sweeper passes
}

// Over builds the cache layer over m. Close stops the sweeper (the map
// itself is closed by its owner).
func Over(m *kvmap.Map, o Options) *Cache {
	c := &Cache{m: m, opts: o, nowMs: o.NowMs}
	if c.nowMs == nil {
		epoch := time.Now()
		c.nowMs = func() int64 { return time.Since(epoch).Milliseconds() + 1 }
	}
	if o.SweepInterval > 0 {
		c.stop, c.done = make(chan struct{}), make(chan struct{})
		go c.sweeper(o.SweepInterval)
	}
	return c
}

// Map returns the underlying kvmap.
func (c *Cache) Map() *kvmap.Map { return c.m }

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Live:    c.live.Load(),
		Expired: c.expired.Load(),
		Evicted: c.evicted.Load(),
		Reliefs: c.relieve.Load(),
		Sweeps:  c.sweeps.Load(),
	}
}

// Close stops the background sweeper, if any.
func (c *Cache) Close() {
	if c.stop != nil {
		close(c.stop)
		<-c.done
		c.stop = nil
	}
}

// With wraps a leased kvmap session with the cache policy. Session is a
// value: wrapping allocates nothing, so servers can wrap per request.
func (c *Cache) With(ks *kvmap.Session) Session { return Session{c: c, ks: ks} }

// Acquire leases a session from the underlying map and wraps it.
func (c *Cache) Acquire() (Session, error) {
	ks, err := c.m.Acquire()
	if err != nil {
		return Session{}, err
	}
	return c.With(ks), nil
}

// Session is a leased, cache-aware handle: one goroutine at a time.
type Session struct {
	c  *Cache
	ks *kvmap.Session
}

// Unwrap returns the raw kvmap session (same lease).
func (s Session) Unwrap() *kvmap.Session { return s.ks }

// Release returns the underlying lease.
func (s Session) Release() { s.ks.Release() }

// Get returns the value under key if the entry is alive. A dead entry is
// reaped on the way out (lazy expiry); a live hit refreshes the LRU
// access stamp at tick (10ms) granularity.
func (s Session) Get(key uint64) (uint64, bool) {
	v, a, ok := s.ks.GetWithAux(key)
	if !ok {
		return 0, false
	}
	now := s.c.nowMs()
	if isDead(a, now) {
		s.c.reap(s.ks, key)
		return 0, false
	}
	if stamped := withAccess(a, now); stamped != a {
		s.ks.AuxCAS(key, a, stamped) // best effort; losers keep the old stamp
	}
	return v, true
}

// Contains reports liveness without touching the access stamp.
func (s Session) Contains(key uint64) bool {
	_, a, ok := s.ks.GetWithAux(key)
	return ok && !isDead(a, s.c.nowMs())
}

// Set stores val under key with the cache's default TTL.
func (s Session) Set(key, val uint64) error { return s.SetTTL(key, val, 0) }

// SetTTL stores val under key. ttl == 0 applies the default TTL;
// NoExpiry (or any negative ttl) stores without a deadline. Under
// capacity pressure it relieves (sweep + LRU eviction) and retries
// before giving up with an error wrapping lease.ErrCapacityExhausted.
func (s Session) SetTTL(key, val uint64, ttl time.Duration) error {
	if ttl == 0 {
		ttl = s.c.opts.DefaultTTL
	}
	for attempt := 0; ; attempt++ {
		err := s.trySet(key, val, ttl)
		if err == nil {
			return nil
		}
		if !errors.Is(err, lease.ErrCapacityExhausted) || attempt >= 2 {
			return err
		}
		s.c.Relieve(s.ks)
	}
}

// trySet is one Set attempt; the arena's starvation panic is converted
// to an error for the relief loop. The recover is safe here: Alloc
// panics before any hazard pointer or CAS descriptor is armed, so the
// session state is clean.
func (s Session) trySet(key, val uint64, ttl time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok || !errors.Is(e, lease.ErrCapacityExhausted) {
				panic(r)
			}
			err = e
		}
	}()
	for {
		now := s.c.nowMs()
		deadline := int64(0)
		if ttl > 0 {
			deadline = now + int64(ttl/time.Millisecond)
			if deadline <= now {
				deadline = now + 1
			}
		}
		v, a, ok := s.ks.GetWithAux(key)
		if ok && !isDead(a, now) {
			// Live entry: value CAS in place, then deadline CAS. Two
			// linearization points (value first, TTL second); losing the
			// tombstone race between them falls through to re-insert.
			if swapped, found := s.ks.CompareAndSwap(key, v, val); !found || !swapped {
				continue // vanished or value raced; re-read
			}
			for {
				_, a2, ok2 := s.ks.GetWithAux(key)
				if !ok2 || isDead(a2, now) {
					break // reaped or dying under us: re-insert fresh
				}
				want := withAccess(withDeadline(a2, deadline), now)
				if swapped, _ := s.ks.AuxCAS(key, a2, want); swapped {
					return nil
				}
			}
			continue
		}
		if ok {
			s.c.reap(s.ks, key) // dead entry in the way: unlink it first
		}
		if s.ks.PutIfAbsentWithAux(key, val, withAccess(uint64(deadline)&deadlineMask, now)) {
			s.c.onInsert(s.ks)
			return nil
		}
		// Lost the insert race; the next round updates in place.
	}
}

// Expire sets the TTL of a live entry, reporting whether one existed.
// A non-positive ttl removes the deadline (the entry persists).
func (s Session) Expire(key uint64, ttl time.Duration) bool {
	for {
		now := s.c.nowMs()
		_, a, ok := s.ks.GetWithAux(key)
		if !ok {
			return false
		}
		if isDead(a, now) {
			s.c.reap(s.ks, key)
			return false
		}
		deadline := int64(0)
		if ttl > 0 {
			deadline = now + int64(ttl/time.Millisecond)
			if deadline <= now {
				deadline = now + 1
			}
		}
		if swapped, _ := s.ks.AuxCAS(key, a, withDeadline(a, deadline)); swapped {
			return true
		}
	}
}

// TTL reports the entry's state: remaining > 0 with hasTTL when a
// deadline is set, hasTTL=false for a live entry without one, ok=false
// when the key is absent or dead.
func (s Session) TTL(key uint64) (remaining time.Duration, hasTTL, ok bool) {
	_, a, ok := s.ks.GetWithAux(key)
	if !ok {
		return 0, false, false
	}
	now := s.c.nowMs()
	if isDead(a, now) {
		s.c.reap(s.ks, key)
		return 0, false, false
	}
	d := deadlineOf(a)
	if d == 0 {
		return 0, false, true
	}
	return time.Duration(d-now) * time.Millisecond, true, true
}

// Remove deletes key, reporting whether a live entry existed.
func (s Session) Remove(key uint64) bool {
	_, a, ok := s.ks.GetWithAux(key)
	if !ok {
		return false
	}
	if isDead(a, s.c.nowMs()) {
		s.c.reap(s.ks, key)
		return false
	}
	if _, had := s.ks.Remove(key); had {
		s.c.live.Add(-1)
		return true
	}
	return false
}

// reap unlinks a dead entry: tombstone (aux CAS, losing to any
// concurrent transition and re-reading), then conditional removal. The
// winner of the unlink does the bookkeeping.
func (c *Cache) reap(ks *kvmap.Session, key uint64) bool {
	for {
		_, a, ok := ks.GetWithAux(key)
		if !ok {
			return false
		}
		if !isDead(a, c.nowMs()) {
			return false
		}
		if a&tombBit != 0 {
			break
		}
		if swapped, found := ks.AuxCAS(key, a, a|tombBit); swapped || !found {
			break
		}
	}
	if ks.RemoveIfAux(key, tombBit, tombBit) {
		c.live.Add(-1)
		c.expired.Add(1)
		return true
	}
	return false
}

// evictOne tombstones and unlinks an LRU victim. The tombstone CAS
// expects the aux word the victim was sampled with, so a victim whose
// stamp, deadline or tombstone changed since sampling is spared and the
// caller moves on to its next candidate.
func (c *Cache) evictOne(ks *kvmap.Session, key, sampled uint64) bool {
	if swapped, _ := ks.AuxCAS(key, sampled, sampled|tombBit); !swapped {
		return false
	}
	if ks.RemoveIfAux(key, tombBit, tombBit) {
		c.live.Add(-1)
		c.evicted.Add(1)
		return true
	}
	return false
}

// onInsert runs the watermark check after a successful insert.
func (c *Cache) onInsert(ks *kvmap.Session) {
	n := c.live.Add(1)
	if max := int64(c.opts.MaxLive); max > 0 && n > max {
		c.evictBatch(ks, int(n-max))
	}
}

// evictionSample is how many candidates beyond the batch size one
// eviction pass gathers before ranking (a larger pool approximates LRU
// better; Redis samples 5 per eviction).
const evictionSample = 16

// evictBatch samples rotating buckets and unlinks the oldest-accessed
// live entries — approximate LRU, as production caches do it. Returns
// how many entries it unlinked (expired entries found along the way are
// reaped and counted too).
func (c *Cache) evictBatch(ks *kvmap.Session, want int) int {
	if want < 1 {
		want = 1
	}
	type cand struct {
		key, aux uint64
	}
	var cands [64]cand
	n := 0
	now := c.nowMs()
	freed := 0
	buckets := c.m.Buckets()
	// Advance the rotating cursor until the pool holds evictionSample
	// candidates beyond the batch size (or the whole table was sampled —
	// buckets can be much sparser than the live set when the map is sized
	// generously, so a fixed bucket budget could come back empty-handed).
	minCands := want + evictionSample
	if minCands > len(cands) {
		minCands = len(cands)
	}
	for b := 0; b < buckets && n < minCands; b++ {
		idx := int(c.cursor.Add(1)-1) % buckets
		ks.WalkBucket(idx, func(k, _, a uint64) bool {
			if a&tombBit != 0 {
				return true
			}
			if isDead(a, now) {
				if c.reap(ks, k) {
					freed++
				}
				return true
			}
			if n < len(cands) {
				cands[n] = cand{key: k, aux: a}
				n++
			}
			return n < len(cands)
		})
		if n >= len(cands) {
			break
		}
	}
	// Rank against a clock read after sampling: every sampled stamp was
	// written before it, so no age can wrap around from the future.
	now = c.nowMs()
	for freed < want && n > 0 {
		oldest, oldestAge := 0, ageOf(cands[0].aux, now)
		for i := 1; i < n; i++ {
			if age := ageOf(cands[i].aux, now); age > oldestAge {
				oldest, oldestAge = i, age
			}
		}
		if c.evictOne(ks, cands[oldest].key, cands[oldest].aux) {
			freed++
		}
		n--
		cands[oldest] = cands[n]
	}
	return freed
}

// Relieve is the capacity-pressure pass: sweep every bucket for dead
// entries, then evict an LRU batch if the sweep freed nothing. It runs
// on the caller's session — under arena starvation there may be no other
// way to make allocation progress.
func (c *Cache) Relieve(ks *kvmap.Session) int {
	c.relieve.Add(1)
	freed := c.sweepOnce(ks)
	if freed == 0 {
		want := int(c.live.Load() / 16)
		if want < 32 {
			want = 32
		}
		freed = c.evictBatch(ks, want)
	}
	// The caller is starving: push the partial retire block too, so the
	// tail of the batch doesn't sit in the local buffer.
	ks.FlushRetired()
	return freed
}

// sweepOnce walks every bucket and reaps dead entries, returning how
// many it unlinked.
func (c *Cache) sweepOnce(ks *kvmap.Session) int {
	now := c.nowMs()
	freed := 0
	var deadKeys [128]uint64
	for b := 0; b < c.m.Buckets(); b++ {
		n := 0
		ks.WalkBucket(b, func(k, _, a uint64) bool {
			if isDead(a, now) && n < len(deadKeys) {
				deadKeys[n] = k
				n++
			}
			return n < len(deadKeys)
		})
		for i := 0; i < n; i++ {
			if c.reap(ks, deadKeys[i]) {
				freed++
			}
		}
	}
	return freed
}

// Sweep runs one full expiry pass on the caller's session (the unit the
// background sweeper loops; exported for tests and tools).
func (c *Cache) Sweep(ks *kvmap.Session) int {
	c.sweeps.Add(1)
	return c.sweepOnce(ks)
}

// sweeper periodically leases a session and sweeps. Lease-exhausted
// ticks are skipped — lazy expiry and pressure relief cover for a busy
// registry, and retired slots still drain through the ordinary
// retire → warning → drain pipeline.
func (c *Cache) sweeper(every time.Duration) {
	defer close(c.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			if ks, err := c.m.Acquire(); err == nil {
				c.Sweep(ks)
				ks.Release()
			}
		}
	}
}
