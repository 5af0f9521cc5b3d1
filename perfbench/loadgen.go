package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// openLoopConfig fixes an open-loop schedule: request i is due at
// start + i/rate, whatever happened to earlier requests, the way
// independent users arrive.
type openLoopConfig struct {
	rate    float64       // requests per second
	dur     time.Duration // schedule length
	window  int           // responses awaited at most this far behind the sender
	windows int           // latency is summarized per window of the schedule
}

type openLoopResult struct {
	lat      []*Recorder // per window: response time minus due time
	late     *Recorder   // send time minus due time: how late the generator ran
	sent     uint64
	received uint64
	err      error // the first send or receive error; the loop stopped there
}

type dueItem[T any] struct {
	due time.Time
	tok T
}

// openLoop runs the schedule over one pipelined connection with two
// goroutines: the caller's sends, and one that awaits responses in send
// order. submit queues request i and returns a token for it, flush pushes
// queued requests to the wire, and await blocks for the response to the
// token's request (the oldest outstanding one).
//
// Latency is measured from each request's due time, not its send time,
// so a stall is charged to every request that fell due behind it. When
// window responses are outstanding the sender blocks and runs late;
// late records by how much.
func openLoop[T any](cfg openLoopConfig, submit func(i uint64) (T, error), flush func() error, await func(T) error) openLoopResult {
	res := openLoopResult{late: NewRecorder(1<<20, 11)}
	for i := 0; i < cfg.windows; i++ {
		res.lat = append(res.lat, NewRecorder(1<<20, uint64(i)))
	}
	interval := time.Duration(float64(time.Second) / cfg.rate)
	winLen := cfg.dur / time.Duration(cfg.windows)
	inflight := make(chan dueItem[T], cfg.window) // bounds outstanding requests
	var recvErr error
	var received atomic.Uint64
	var failed atomic.Bool
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := range inflight {
			if recvErr != nil {
				continue // drain the channel so the sender never blocks
			}
			if err := await(it.tok); err != nil {
				recvErr = err
				failed.Store(true)
				continue
			}
			now := time.Now()
			received.Add(1)
			w := int(it.due.Sub(start) / winLen)
			if w >= len(res.lat) {
				w = len(res.lat) - 1
			}
			res.lat[w].Add(float64(now.Sub(it.due)))
		}
	}()

	// The sender sleeps in nanosleep on its own OS thread: the Go
	// runtime's timers wake sub-millisecond sleeps about a millisecond
	// late, which would charge the generator's own lateness to every
	// request.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	end := start.Add(cfg.dur)
	unflushed := 0
send:
	for i := uint64(0); !failed.Load(); i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			if unflushed > 0 {
				if res.err = flush(); res.err != nil {
					break send
				}
				unflushed = 0
			}
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
		}
		res.late.Add(float64(time.Since(due)))
		tok, err := submit(i)
		if err != nil {
			res.err = err
			break send
		}
		res.sent++
		unflushed++
		it := dueItem[T]{due: due, tok: tok}
		select {
		case inflight <- it:
		default:
			// The window is full: push what is queued so the responses
			// that free it can come back, then wait for room.
			if res.err = flush(); res.err != nil {
				break send
			}
			unflushed = 0
			inflight <- it
		}
		if unflushed >= 32 {
			if res.err = flush(); res.err != nil {
				break send
			}
			unflushed = 0
		}
	}
	if res.err == nil {
		res.err = flush()
	}
	close(inflight)
	wg.Wait()
	res.received = received.Load()
	if res.err == nil {
		res.err = recvErr
	}
	return res
}

// latencyMedians summarizes per-window recorders: the median over
// windows of each window's q-quantile, so one stalled window moves the
// figure by at most one rank. It also returns the sample count.
func latencyMedians(recs []*Recorder, q float64) (float64, uint64) {
	var vs []float64
	var n uint64
	for _, r := range recs {
		if r.Count() > 0 {
			vs = append(vs, r.Quantile(q))
			n += r.Count()
		}
	}
	return median(vs), n
}

// closedLoop drives one connection in closed loop with two batches of
// batch requests in flight: it awaits the older batch while the server
// works on the newer one, then sends a fresh batch in its place, until
// stop is set. It publishes its op count after every batch.
func closedLoop[T any](batch int, stop *atomic.Bool, count *atomic.Uint64, submit func() (T, error), flush func() error, await func(T) error) error {
	var bufs [2][]T
	send := func(b int) error {
		bufs[b] = bufs[b][:0]
		for j := 0; j < batch; j++ {
			t, err := submit()
			if err != nil {
				return err
			}
			bufs[b] = append(bufs[b], t)
		}
		return flush()
	}
	settle := func(b int) error {
		for _, t := range bufs[b] {
			if err := await(t); err != nil {
				return err
			}
		}
		count.Add(uint64(len(bufs[b])))
		bufs[b] = bufs[b][:0]
		return nil
	}
	if err := send(0); err != nil {
		return err
	}
	for b := 1; !stop.Load(); b ^= 1 {
		if err := send(b); err != nil {
			return err
		}
		if err := settle(b ^ 1); err != nil {
			return err
		}
	}
	for b := range bufs {
		if err := settle(b); err != nil {
			return err
		}
	}
	return nil
}

// segmentRates samples a running total at equal segments of d and
// returns the rate within each.
func segmentRates(d time.Duration, segments int, total func() uint64) []float64 {
	var rates []float64
	t0 := time.Now()
	prevT, prevN := t0, total()
	for i := 0; i < segments; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i+1) * d / time.Duration(segments))))
		now, n := time.Now(), total()
		rates = append(rates, float64(n-prevN)/now.Sub(prevT).Seconds())
		prevT, prevN = now, n
	}
	return rates
}
