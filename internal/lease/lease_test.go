package lease

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAcquireReleaseBasics(t *testing.T) {
	r := NewRegistry(2)
	a, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("both acquires returned slot %d", a)
	}
	if _, err := r.Acquire(); !errors.Is(err, ErrNoFreeSessions) {
		t.Fatalf("exhausted acquire: err = %v", err)
	}
	if r.Leased() != 2 || r.Exhausted() != 1 {
		t.Fatalf("leased=%d exhausted=%d", r.Leased(), r.Exhausted())
	}
	r.Release(a)
	c, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("recycled lease got %d, want %d", c, a)
	}
	if r.Grants() != 3 {
		t.Fatalf("grants = %d, want 3", r.Grants())
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	r := NewRegistry(1)
	id, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	r.Release(id)
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	r.Release(id)
}

func TestReleaseOutOfRangePanics(t *testing.T) {
	r := NewRegistry(4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Release did not panic")
		}
	}()
	r.Release(7)
}

func TestClose(t *testing.T) {
	r := NewRegistry(2)
	id, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := r.Acquire(); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: err = %v", err)
	}
	// Outstanding leases stay releasable after Close (the drain path).
	r.Release(id)
	if r.Leased() != 0 {
		t.Fatalf("leased = %d after drain", r.Leased())
	}
	r.Close() // idempotent
}

// TestChurnMoreGoroutinesThanSlots is the server's lease pattern: far
// more workers than slots, every worker looping acquire→use→release.
// Under -race this also proves the registry's synchronization publishes
// per-slot state between successive lessees.
func TestChurnMoreGoroutinesThanSlots(t *testing.T) {
	const (
		slots   = 8
		workers = 64
		rounds  = 500
	)
	r := NewRegistry(slots)
	// owned[i] is written by whichever goroutine holds slot i — the race
	// detector cross-checks the happens-before edge Release→Acquire.
	owned := make([]int, slots)
	var inUse [slots]atomic.Int32
	var wg sync.WaitGroup
	var granted atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; {
				id, err := r.Acquire()
				if errors.Is(err, ErrNoFreeSessions) {
					continue // expected under 8x oversubscription
				}
				if err != nil {
					t.Error(err)
					return
				}
				if inUse[id].Add(1) != 1 {
					t.Errorf("slot %d leased twice concurrently", id)
				}
				owned[id] = w
				_ = owned[id]
				inUse[id].Add(-1)
				granted.Add(1)
				r.Release(id)
				i++
			}
		}(w)
	}
	wg.Wait()
	if r.Leased() != 0 {
		t.Fatalf("leaked %d leases", r.Leased())
	}
	if got := r.Grants(); got != granted.Load() {
		t.Fatalf("grants = %d, want %d", got, granted.Load())
	}
}

// TestAcquireNeverSpuriouslyExhausted pins the rescan fix: with two
// goroutines churning on a two-slot registry, each holds at most one
// slot, so a free slot exists at every Acquire. A single scan could
// still miss it (a lost CAS, or a release behind the cursor) and report
// ErrNoFreeSessions; Acquire must rescan instead.
func TestAcquireNeverSpuriouslyExhausted(t *testing.T) {
	const (
		workers = 2
		rounds  = 20000
	)
	r := NewRegistry(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id, err := r.Acquire()
				if err != nil {
					t.Errorf("round %d: Acquire = %v with a slot free", i, err)
					return
				}
				r.Release(id)
			}
		}()
	}
	wg.Wait()
	if n := r.Exhausted(); n != 0 {
		t.Fatalf("exhausted = %d, want 0", n)
	}
	if r.Leased() != 0 {
		t.Fatalf("leaked %d leases", r.Leased())
	}
}
