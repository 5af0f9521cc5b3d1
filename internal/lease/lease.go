// Package lease bridges Go's dynamic goroutine model onto the fixed
// thread registry every reclamation scheme in this repository assumes.
//
// The paper's algorithms (and Michael's hazard pointers, which OA borrows
// its write barrier from) are specified against MaxThreads preallocated
// per-thread contexts: warning words, hazard-pointer slots, local pools.
// A goroutine-per-connection server cannot hand-assign those contexts —
// goroutines are created and destroyed far faster than thread contexts
// can be, and two goroutines must never share one. The classic fix
// (hazard-pointer libraries call it slot leasing) is a lock-free free
// list of context ids: a worker leases a slot for its lifetime and
// returns it on exit, so an arbitrary goroutine population multiplexes
// onto the fixed registry.
//
// Registry is that free list. Acquire and Release are lock-free (scans
// of per-slot CAS words), safe for any number of concurrent
// goroutines, and detect the two misuse modes that corrupt SMR state:
// releasing a slot that is not leased (panic — the equivalent of a
// double sync.Mutex.Unlock) and acquiring from a closed registry
// (ErrClosed).
package lease

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// Sentinel errors shared by every layer that hands out sessions. The
// public oamem package re-exports them under its own names; errors.Is
// matches across both spellings because they are the same values.
var (
	// ErrNoFreeSessions is returned by Acquire when every slot of the
	// fixed registry is currently leased. It is a load condition, not a
	// programming error: callers back off, queue, or shed the request.
	ErrNoFreeSessions = errors.New("oamem: no free sessions: all thread slots are leased")
	// ErrClosed is returned by Acquire after Close. Sessions already
	// leased stay valid (their owners may still Release them); only new
	// acquisitions fail.
	ErrClosed = errors.New("oamem: structure closed")
	// ErrCapacityExhausted reports that a structure's fixed node budget
	// (OA's Capacity = live set + reclamation slack δ) cannot admit more
	// keys. The core allocator panics with an error wrapping this value
	// when the budget is truly overrun; admission-control layers (the
	// network server) return it before that point is reached.
	ErrCapacityExhausted = errors.New("oamem: node capacity exhausted")
)

// Slot states. Free and leased alternate; the packed word keeps a lease
// generation in the upper bits purely as a debugging aid (it makes
// use-after-release reproduce as a mismatch instead of silent sharing).
const (
	slotFree   uint64 = 0
	slotLeased uint64 = 1
)

// Registry is a lock-free lessor of the integer ids 0..N-1.
//
// Acquire scans the slots from a rotating start index and CASes the
// first free one to leased; Release stores it back to free. Both are a
// bounded number of atomic operations (at most one pass over N slots),
// so the registry is wait-free for Release and lock-free for Acquire.
type Registry struct {
	// slots[i] packs {generation:63 | leased:1}.
	slots []paddedWord
	// hint is the rotating scan start: each Acquire starts one past the
	// slot it leased last time, spreading concurrent acquirers so they
	// do not convoy on slot 0's cache line.
	hint   atomic.Uint32
	closed atomic.Bool
	leased atomic.Int64
	// grants counts successful Acquires over the registry's lifetime —
	// the "leases recycled across connections" observability signal.
	grants atomic.Uint64
	// exhausted counts Acquire calls rejected with ErrNoFreeSessions.
	exhausted atomic.Uint64
}

// paddedWord keeps adjacent slot words off one cache line: Release is a
// single uncontended store in the common case and must not false-share
// with a neighbour being scanned.
type paddedWord struct {
	w atomic.Uint64
	_ [56]byte
}

// NewRegistry builds a registry over ids 0..n-1 (n clamped to ≥ 1).
func NewRegistry(n int) *Registry {
	if n < 1 {
		n = 1
	}
	return &Registry{slots: make([]paddedWord, n)}
}

// Cap returns the number of slots.
func (r *Registry) Cap() int { return len(r.slots) }

// Leased returns how many slots are currently leased (a live gauge).
func (r *Registry) Leased() int { return int(r.leased.Load()) }

// Grants returns how many leases were ever granted.
func (r *Registry) Grants() uint64 { return r.grants.Load() }

// Exhausted returns how many Acquire calls failed with ErrNoFreeSessions.
func (r *Registry) Exhausted() uint64 { return r.exhausted.Load() }

// Closed reports whether Close has been called.
func (r *Registry) Closed() bool { return r.closed.Load() }

// Close marks the registry closed: subsequent Acquires return ErrClosed.
// Outstanding leases stay valid and may still be Released (the drain
// path releases them one by one). Close is idempotent.
func (r *Registry) Close() { r.closed.Store(true) }

// Acquire leases a free slot id. It fails with ErrClosed after Close and
// with ErrNoFreeSessions when every slot is leased. One scan can miss a
// free slot — it lost a CAS to another acquirer, or a release landed
// behind its cursor — so a scan that comes up empty while the leased
// count is below capacity scans again rather than report a spurious
// exhaustion. Each rescan follows another goroutine's progress (a grant
// or a release), so the loop is lock-free.
func (r *Registry) Acquire() (int, error) {
	n := uint32(len(r.slots))
	for {
		if r.closed.Load() {
			return 0, ErrClosed
		}
		start := r.hint.Add(1)
		for i := uint32(0); i < n; i++ {
			id := (start + i) % n
			w := &r.slots[id].w
			old := w.Load()
			if old&slotLeased != 0 {
				continue
			}
			if w.CompareAndSwap(old, (old|slotLeased)+2) { // +2 bumps the generation
				r.leased.Add(1)
				r.grants.Add(1)
				return int(id), nil
			}
			// Lost the race for this slot; keep scanning.
		}
		if r.leased.Load() >= int64(n) {
			break
		}
		// A winner may sit between its CAS and its count update; let it run.
		runtime.Gosched()
	}
	r.exhausted.Add(1)
	return 0, ErrNoFreeSessions
}

// Release returns slot id to the free pool. It panics if id is out of
// range or not currently leased — a double release would let two
// goroutines share one SMR thread context, which corrupts hazard-pointer
// and warning state silently, so it is treated like unlocking an
// unlocked mutex.
func (r *Registry) Release(id int) {
	if id < 0 || id >= len(r.slots) {
		panic(fmt.Sprintf("lease: Release of out-of-range slot %d (registry of %d)", id, len(r.slots)))
	}
	w := &r.slots[id].w
	for {
		old := w.Load()
		if old&slotLeased == 0 {
			panic(fmt.Sprintf("lease: double Release of slot %d", id))
		}
		if w.CompareAndSwap(old, old&^slotLeased) {
			r.leased.Add(-1)
			return
		}
	}
}
