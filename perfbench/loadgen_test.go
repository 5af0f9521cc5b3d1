package main

import (
	"testing"
	"time"
)

// fakeServer answers requests in order after a fixed service time, except
// that it serves nothing between stallAt and stallAt+stall after start.
type fakeServer struct {
	wire    chan uint64 // requests the client flushed
	replies chan uint64 // responses, in request order
	queued  []uint64    // requests the client queued but has not flushed
	start   time.Time
	stallAt time.Duration
	stall   time.Duration
	done    chan struct{}
}

func newFakeServer(stallAt, stall time.Duration) *fakeServer {
	f := &fakeServer{
		wire: make(chan uint64, 1<<16), replies: make(chan uint64, 1<<16),
		start: time.Now(), stallAt: stallAt, stall: stall, done: make(chan struct{}),
	}
	go func() {
		defer close(f.done)
		for id := range f.wire {
			if f.stall > 0 {
				if since := time.Since(f.start); since >= f.stallAt && since < f.stallAt+f.stall {
					time.Sleep(f.stallAt + f.stall - since)
				}
			}
			f.replies <- id
		}
	}()
	return f
}

func (f *fakeServer) submit(i uint64) (uint64, error) {
	f.queued = append(f.queued, i)
	return i, nil
}

func (f *fakeServer) flush() error {
	for _, id := range f.queued {
		f.wire <- id
	}
	f.queued = f.queued[:0]
	return nil
}

func (f *fakeServer) await(id uint64) error {
	if got := <-f.replies; got != id {
		panic("fake server answered out of order")
	}
	return nil
}

func (f *fakeServer) close() {
	close(f.wire)
	<-f.done
}

func runFake(t *testing.T, stallAt, stall time.Duration) openLoopResult {
	t.Helper()
	f := newFakeServer(stallAt, stall)
	defer f.close()
	cfg := openLoopConfig{rate: 2000, dur: time.Second, window: 16, windows: 10}
	res := openLoop(cfg, f.submit, f.flush, f.await)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.sent != 2000 || res.received != res.sent {
		t.Fatalf("sent %d, received %d; want 2000 of each", res.sent, res.received)
	}
	return res
}

// TestOpenLoopChargesStall: requests that fall due while the server is
// stalled are timed from their due time, so the stall shows in their
// latency even though the generator could not send them until the
// window freed; and the generator reports that it ran late.
func TestOpenLoopChargesStall(t *testing.T) {
	calm := runFake(t, 0, 0)
	stalled := runFake(t, 300*time.Millisecond, 200*time.Millisecond)

	// Window 3 covers requests due 300–400ms: each waited for the stall
	// to end at ~500ms, so even its median is ~100ms or more.
	if p50 := stalled.lat[3].Quantile(0.5); p50 < float64(50*time.Millisecond) {
		t.Errorf("median latency of requests due during the stall = %v, want ≥ 50ms", time.Duration(p50))
	}
	if p50 := calm.lat[3].Quantile(0.5); p50 > float64(20*time.Millisecond) {
		t.Errorf("median latency without a stall = %v, want < 20ms", time.Duration(p50))
	}
	// The window of 16 fills 8ms into the stall; the sender then blocks
	// and every later request of the stall is sent late.
	calmLate, stalledLate := calm.late.Quantile(0.99), stalled.late.Quantile(0.99)
	if stalledLate < float64(50*time.Millisecond) || stalledLate < 5*calmLate {
		t.Errorf("late p99 = %v with the stall, %v without; want ≥ 50ms and ≥ 5× the calm run",
			time.Duration(stalledLate), time.Duration(calmLate))
	}
	// The median over windows shrugs off the one stalled window.
	if p50, _ := latencyMedians(stalled.lat, 0.5); p50 > float64(20*time.Millisecond) {
		t.Errorf("median over windows = %v, want the calm windows' value (< 20ms)", time.Duration(p50))
	}
}
