package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/smr"
	"repro/oamem"
)

// kv_churn sizes: capacity is the live set plus a small slack, so the
// OA allocator runs out of fresh slots and starts a reclamation phase
// every few thousand puts. Each round builds a fresh map, so every round
// starts from the same state.
const (
	churnShards  = 2
	churnWorkers = 2
	churnLive    = 1 << 16 // live keys across both workers
	churnSlack   = 1 << 14 // capacity beyond the live set
	churnSample  = 32      // one op in this many is timed for p50/p90
	churnRound   = time.Second
)

// churnKey gives worker w its own key stripe, every key of which routes
// to shard w: the worker needs one lease, its ops never touch the other
// worker's shard, and the final state is known exactly from its sliding
// window. The low byte holds w and the first salt that routes the key
// to shard w.
func churnKey(sh *oamem.ShardedMap, w int, seq uint64) uint64 {
	base := (seq+1)<<8 | uint64(w)
	for salt := uint64(0); salt < 128; salt++ {
		if k := base | salt<<1; sh.ShardIndex(k) == w {
			return k
		}
	}
	panic("kv_churn: no salt routes the key to its worker's shard")
}

func churnOwner(key uint64) (w int, seq uint64) { return int(key & 1), key>>8 - 1 }

// churnWorker is one worker's window [lo, hi) of live sequence numbers
// and what it measured.
type churnWorker struct {
	w      int
	lo, hi uint64
	rng    splitmix
	sess   *oamem.MapSession // a lease on shard w
	ops    uint64
	gets   uint64
	lat    *Recorder
	getNs  *Recorder
	putNs  *Recorder
	remNs  *Recorder
	failed error
}

func buildChurn(c *runCtx) (*oamem.ShardedMap, time.Duration, error) {
	t0 := time.Now()
	sh, err := oamem.ShardedKV(
		oamem.WithServerShards(churnShards), oamem.WithThreads(churnWorkers),
		oamem.WithCapacity(churnLive+churnSlack), oamem.WithExpected(churnLive),
	)
	if err != nil {
		return nil, 0, err
	}
	sess, err := acquireAll(sh)
	if err != nil {
		return nil, 0, err
	}
	defer releaseAll(sess)
	for w := 0; w < churnWorkers; w++ {
		for seq := uint64(0); seq < churnLive/churnWorkers; seq++ {
			k := churnKey(sh, w, seq)
			sess[w].Put(k, tagged(k, uint32(seq)))
		}
	}
	return sh, time.Since(t0), nil
}

func acquireAll(sh *oamem.ShardedMap) ([]*oamem.MapSession, error) {
	sess := make([]*oamem.MapSession, sh.NumShards())
	for i := range sess {
		s, err := sh.Shard(i).Acquire()
		if err != nil {
			releaseAll(sess)
			return nil, fmt.Errorf("leasing shard %d: %w", i, err)
		}
		sess[i] = s
	}
	return sess, nil
}

func releaseAll(sess []*oamem.MapSession) {
	for _, s := range sess {
		if s != nil {
			s.Release()
		}
	}
}

// churnLoop is the op mix: half Gets of a live key, the other half
// alternating a Put of a fresh key and a Remove of the oldest, so the
// window keeps its size while sliding through the key stripe.
func churnLoop(c *runCtx, sh *oamem.ShardedMap, wk *churnWorker, stop *atomic.Bool, traced bool) {
	putTurn := wk.w&1 == 0
	until := 1 + wk.w*5
	for n := uint64(0); ; n++ {
		if n&0xFF == 0 && stop.Load() {
			wk.ops += n
			return
		}
		r := wk.rng.next()
		get := r&1 == 0
		seq := wk.lo
		switch {
		case get:
			seq += (r >> 1) % (wk.hi - wk.lo)
		case putTurn:
			seq = wk.hi
		}
		k := churnKey(sh, wk.w, seq)
		until--
		timed := until == 0 || traced
		var t time.Time
		if timed {
			t = time.Now()
		}
		var rec *Recorder
		switch {
		case get:
			v, ok := wk.sess.Get(k)
			if !ok || v != tagged(k, uint32(seq)) {
				c.wrongf("kv_churn: Get(%d) of a live key = %#x, %v; want %#x", k, v, ok, tagged(k, uint32(seq)))
			}
			wk.gets++
			rec = wk.getNs
		case putTurn:
			if prev, had := wk.sess.Put(k, tagged(k, uint32(seq))); had {
				c.wrongf("kv_churn: Put(%d) of a fresh key found a previous value %#x", k, prev)
			}
			wk.hi++
			putTurn = false
			rec = wk.putNs
		default:
			if v, ok := wk.sess.Remove(k); !ok || v != tagged(k, uint32(seq)) {
				c.wrongf("kv_churn: Remove(%d) of the oldest key = %#x, %v; want %#x", k, v, ok, tagged(k, uint32(seq)))
			}
			wk.lo++
			putTurn = true
			rec = wk.remNs
		}
		if timed {
			d := float64(time.Since(t))
			if until == 0 {
				until = churnSample
				wk.lat.Add(d)
			}
			if traced {
				rec.Add(d)
			}
		}
	}
}

// checkChurn compares the map with the workers' windows exactly: every
// live key holds its tagged value, and nothing else is in the map.
func checkChurn(c *runCtx, sh *oamem.ShardedMap, ws []*churnWorker) error {
	sess, err := acquireAll(sh)
	if err != nil {
		return err
	}
	defer releaseAll(sess)
	var want uint64
	for _, wk := range ws {
		want += wk.hi - wk.lo
		for seq := wk.lo; seq < wk.hi; seq++ {
			k := churnKey(sh, wk.w, seq)
			if v, ok := sess[wk.w].Get(k); !ok || v != tagged(k, uint32(seq)) {
				c.wrongf("kv_churn final: Get(%d) = %#x, %v; want %#x", k, v, ok, tagged(k, uint32(seq)))
			}
		}
	}
	var got uint64
	for i := 0; i < sh.NumShards(); i++ {
		m := sh.Shard(i)
		for b := 0; b < m.Buckets(); b++ {
			sess[i].WalkBucket(b, func(key, val, _ uint64) bool {
				got++
				w, seq := churnOwner(key)
				if w != i || seq < ws[w].lo || seq >= ws[w].hi || val != tagged(key, uint32(seq)) {
					c.wrongf("kv_churn final: key %d (worker %d seq %d) = %#x is outside the window [%d,%d)", key, w, seq, val, ws[w].lo, ws[w].hi)
				}
				return true
			})
		}
	}
	if got != want {
		c.wrongf("kv_churn final: map holds %d keys, the windows hold %d", got, want)
	}
	return nil
}

// churnRound is what one round on a fresh map measured.
type churnRoundResult struct {
	ops             uint64
	elapsed, setup  time.Duration
	stats           smr.Stats // over the round, summed over shards
	obs             [obs.NumCounters]uint64
	unreclaimedPeak uint64
}

// runChurnRound builds and prefills a fresh map, runs both workers for
// one round, and checks the final state against their windows. Each
// worker leases one session, on its shard, inside its goroutine and
// releases it when the round ends, as the examples lease.
func runChurnRound(c *runCtx, ws []*churnWorker, traced bool) (churnRoundResult, error) {
	var res churnRoundResult
	sh, setup, err := buildChurn(c)
	if err != nil {
		return res, err
	}
	defer sh.Close()
	res.setup = setup
	for _, wk := range ws {
		wk.lo, wk.hi, wk.ops = 0, churnLive/churnWorkers, 0
	}
	st0, obs0 := churnCounters(sh)

	var stop atomic.Bool
	var wg, ready sync.WaitGroup
	start := make(chan struct{})
	for _, wk := range ws {
		wg.Add(1)
		ready.Add(1)
		go func(wk *churnWorker) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			defer func() {
				if p := recover(); p != nil {
					wk.failed = panicErr(p)
				}
			}()
			sess, err := sh.Shard(wk.w).Acquire()
			ready.Done()
			if err != nil {
				wk.failed = err
				return
			}
			defer sess.Release()
			wk.sess = sess
			<-start
			churnLoop(c, sh, wk, &stop, traced)
		}(wk)
	}
	sampDone, sampExit := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampExit)
		if !traced {
			return
		}
		// The traced run samples unreclaimed slots from outside.
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-sampDone:
				return
			case <-tk.C:
				var u uint64
				for _, s := range sh.Stats() {
					u += s.Unreclaimed()
				}
				res.unreclaimedPeak = max(res.unreclaimedPeak, u)
			}
		}
	}()
	ready.Wait()
	t0 := time.Now()
	close(start)
	time.Sleep(churnRound)
	stop.Store(true)
	wg.Wait()
	res.elapsed = time.Since(t0)
	close(sampDone)
	<-sampExit

	st1, obs1 := churnCounters(sh)
	res.stats = smr.Stats{
		Retires: st1.Retires - st0.Retires, Recycled: st1.Recycled - st0.Recycled,
		Phases: st1.Phases - st0.Phases, Restarts: st1.Restarts - st0.Restarts,
	}
	for i := range obs1 {
		res.obs[i] = obs1[i] - obs0[i]
	}
	for _, wk := range ws {
		res.ops += wk.ops
		if wk.failed != nil {
			switch {
			case errors.Is(wk.failed, oamem.ErrCapacityExhausted):
				c.fail("capacity", 1)
			case errors.Is(wk.failed, oamem.ErrNoFreeSessions):
				c.fail("no_free_sessions", 1)
			default:
				c.wrongf("kv_churn worker %d: %v", wk.w, wk.failed)
			}
			res.ops++
			return res, nil // the window of a failed worker is not known exactly
		}
	}
	c.attempted += res.ops
	return res, checkChurn(c, sh, ws)
}

func runKVChurn(c *runCtx) error {
	c.sizes = map[string]any{
		"shards": churnShards, "workers": churnWorkers, "live_keys": churnLive, "slack": churnSlack,
		"capacity": churnLive + churnSlack, "mix": "50% get live, 25% put fresh, 25% remove oldest",
		"affinity":       "worker w's keys route to shard w",
		"latency_sample": churnSample, "round_ms": churnRound.Milliseconds(),
	}
	rounds := int(c.dur / churnRound)
	if rounds < 2 {
		rounds = 2
	}
	ws := make([]*churnWorker, churnWorkers)
	for w := range ws {
		ws[w] = &churnWorker{
			w: w, rng: stream(c.seed, uint64(w+1)),
			lat:   NewRecorder(1<<21, c.seed+uint64(w)),
			getNs: NewRecorder(1<<18, 3*c.seed+uint64(w)), putNs: NewRecorder(1<<18, 5*c.seed+uint64(w)),
			remNs: NewRecorder(1<<18, 7*c.seed+uint64(w)),
		}
	}
	// The traced run alternates untraced and traced rounds.
	var plain, traced, setups []float64
	var tStats smr.Stats
	var tObs [obs.NumCounters]uint64
	var tTime time.Duration
	var peak uint64
	for r := 0; r < rounds; r++ {
		tr := c.trace && r%2 == 1
		obs.SetEnabled(tr)
		res, err := runChurnRound(c, ws, tr)
		obs.SetEnabled(false)
		if err != nil {
			return err
		}
		if c.wrongCount() > 0 || len(c.failed) > 0 {
			return nil
		}
		setups = append(setups, res.setup.Seconds())
		rate := float64(res.ops) / res.elapsed.Seconds()
		if !tr {
			plain = append(plain, rate)
			continue
		}
		traced = append(traced, rate)
		tStats.Add(res.stats)
		for i := range tObs {
			tObs[i] += res.obs[i]
		}
		tTime += res.elapsed
		peak = max(peak, res.unreclaimedPeak)
	}

	if !c.trace {
		lat := NewRecorder(1, 0)
		var gets uint64
		for _, wk := range ws {
			lat.Merge(wk.lat)
			gets += wk.gets
		}
		c.setNote("ops_per_s", median(plain), uint64(len(plain)), "median of per-round rates")
		c.set("p50_us", lat.Quantile(0.5)/1e3, lat.Count())
		c.set("p90_us", lat.Quantile(0.9)/1e3, lat.Count())
		c.set("hit_frac", 1, gets) // a miss on a live key is a wrong answer
		c.setNote("setup_s", median(setups), uint64(len(setups)), "build and prefill, median over rounds")
		return nil
	}
	get, put, rem := NewRecorder(1, 0), NewRecorder(1, 0), NewRecorder(1, 0)
	for _, wk := range ws {
		get.Merge(wk.getNs)
		put.Merge(wk.putNs)
		rem.Merge(wk.remNs)
	}
	ops := get.Count() + put.Count() + rem.Count() // every traced op is timed
	sec := tTime.Seconds()
	c.set("kvmap.get_ns", get.Quantile(0.5), get.Count())
	c.set("kvmap.get_p99_ns", get.Quantile(0.99), get.Count())
	c.set("kvmap.put_ns", put.Quantile(0.5), put.Count())
	c.set("kvmap.put_p99_ns", put.Quantile(0.99), put.Count())
	c.set("kvmap.remove_ns", rem.Quantile(0.5), rem.Count())
	c.set("kvmap.remove_p99_ns", rem.Quantile(0.99), rem.Count())
	c.set("core.restarts_per_kop", 1000*float64(tStats.Restarts)/float64(ops), ops)
	c.set("core.checks_per_op", float64(tObs[obs.WarningChecks])/float64(ops), ops)
	c.set("core.hp_publishes_per_op", float64(tObs[obs.HPPublishes])/float64(ops), ops)
	c.set("core.drain_passes_per_s", float64(tObs[obs.DrainPasses])/sec, tObs[obs.DrainPasses])
	c.set("core.phases_per_s", float64(tStats.Phases)/sec, tStats.Phases)
	c.set("core.recycled_per_retire", ratioOr0(tStats.Recycled, tStats.Retires), tStats.Retires)
	c.set("core.unreclaimed_peak", float64(peak), uint64(sec*1000))
	c.setNote("trace_overhead", median(plain)/median(traced), uint64(len(plain)+len(traced)), "untraced ÷ traced median round rate")
	return nil
}

// churnCounters sums reclamation stats and OA counters over the shards.
func churnCounters(sh *oamem.ShardedMap) (smr.Stats, [obs.NumCounters]uint64) {
	var st smr.Stats
	var tot [obs.NumCounters]uint64
	for i := 0; i < sh.NumShards(); i++ {
		m := sh.Shard(i)
		st.Add(m.Stats())
		t := m.Manager().ObsStats().Totals()
		for j := range tot {
			tot[j] += t[j]
		}
	}
	return st, tot
}
