package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/norecl"
	"repro/internal/obs"
	"repro/internal/skiplist"
	"repro/internal/smr"
	"repro/oamem"
)

// sets_read sizes: the paper's Figure 1 configuration at two threads.
const (
	setsThreads   = 2
	setsDelta     = 50000 // δ: allocations between reclamation phases
	setsLocalPool = 126
	setsReadPct   = 80 // Contains share of the mix; the rest alternates Insert and Delete
	setsRound     = 250 * time.Millisecond
	setsSample    = 64 // one op in this many is timed for p50/p90
)

type setSpec struct {
	name  string // metric suffix
	layer string // module, the prefix of its per-layer metrics
	size  int    // prefilled keys; the key range is twice this
}

var setSpecs = []setSpec{{"list128", "list", 128}, {"skiplist", "skiplist", 10000}}

// buildSet constructs the structure under OA or NoRecl with the same
// constructors oamem.List and oamem.SkipList call. The leasing wrapper
// those return hides the OA manager, whose counters the traced run
// reads, and the paper's harness binds one fixed session per worker.
func buildSet(spec setSpec, scheme smr.Scheme) smr.Set {
	capacity := spec.size + setsDelta + 4*setsThreads*setsLocalPool + 64
	oa := core.Config{MaxThreads: setsThreads, Capacity: capacity, LocalPool: setsLocalPool}
	nr := norecl.Config{MaxThreads: setsThreads, Capacity: capacity, LocalPool: setsLocalPool}
	switch {
	case spec.name == "list128" && scheme == smr.OA:
		return list.NewOA(oa)
	case spec.name == "list128":
		return list.NewNoRecl(nr)
	case scheme == smr.OA:
		return skiplist.NewOA(oa)
	default:
		return skiplist.NewNoRecl(nr)
	}
}

// obsStats returns the OA manager's per-thread counters of an OA set.
func obsStats(set smr.Set) *obs.ThreadStats {
	switch s := set.(type) {
	case *list.OA:
		return s.Engine().Manager().ObsStats()
	case *skiplist.OASkipList:
		return s.Manager().ObsStats()
	}
	return nil
}

// setRound is what one round on one fresh structure measured.
type setRound struct {
	ops            uint64
	elapsed, setup time.Duration
	contains, hits uint64
	lat            *Recorder // sampled ops, every kind
	// traced rounds only
	containsNs, updateNs *Recorder
	obsDelta             [obs.NumCounters]uint64
	stats                smr.Stats // delta over the round
	unreclaimedPeak      uint64
}

func (r setRound) rate() float64 { return float64(r.ops) / r.elapsed.Seconds() }

// runSetRound builds a fresh structure, prefills it, runs both workers
// for one round and checks the result against the workers' ledgers.
func runSetRound(c *runCtx, spec setSpec, scheme smr.Scheme, traced bool, id uint64) setRound {
	keyRange := uint64(2 * spec.size)
	t0 := time.Now()
	set := buildSet(spec, scheme)
	present := make([]int32, keyRange+1)
	rng := stream(c.seed, id<<8)
	s0 := set.Session(0)
	for n := 0; n < spec.size; {
		k := rng.next()%keyRange + 1
		if s0.Insert(k) {
			present[k] = 1
			n++
		}
	}
	res := setRound{setup: time.Since(t0), lat: NewRecorder(1<<18, uint64(id))}

	ts := obsStats(set)
	var obs0 [obs.NumCounters]uint64
	if traced && ts != nil {
		obs0 = ts.Totals()
	}
	st0 := set.Stats()

	var stop atomic.Bool
	var wg, ready sync.WaitGroup
	type worker struct {
		ops, contains, hits uint64
		delta               []int32
		lat, cNs, uNs       *Recorder
		panicked            error
	}
	ws := make([]*worker, setsThreads)
	start := make(chan struct{})
	readCut := uint64(setsReadPct) << 32 / 100
	for w := range ws {
		wk := &worker{delta: make([]int32, keyRange+1), lat: NewRecorder(1<<17, id*4+uint64(w))}
		if traced {
			wk.cNs, wk.uNs = NewRecorder(1<<16, id*8+uint64(w)), NewRecorder(1<<16, id*16+uint64(w))
		}
		ws[w] = wk
		wg.Add(1)
		ready.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			defer func() {
				if p := recover(); p != nil {
					wk.panicked = panicErr(p)
				}
			}()
			s := set.Session(w)
			rng := stream(c.seed, id<<8|uint64(w+1))
			insertTurn := w&1 == 0
			until := 1 + (w*7)%setsSample
			ready.Done()
			<-start
			for n := uint64(0); ; n++ {
				if n&0xFF == 0 && stop.Load() {
					wk.ops = n
					return
				}
				r := rng.next()
				k := r%keyRange + 1
				read := (r>>32)&0xFFFFFFFF < readCut
				until--
				timed := until == 0 || traced
				var t time.Time
				if timed {
					t = time.Now()
				}
				switch {
				case read:
					wk.contains++
					if s.Contains(k) {
						wk.hits++
					}
				case insertTurn:
					if s.Insert(k) {
						wk.delta[k]++
					}
					insertTurn = false
				default:
					if s.Delete(k) {
						wk.delta[k]--
					}
					insertTurn = true
				}
				if timed {
					d := float64(time.Since(t))
					if until == 0 {
						until = setsSample
						wk.lat.Add(d)
					}
					if traced {
						if read {
							wk.cNs.Add(d)
						} else {
							wk.uNs.Add(d)
						}
					}
				}
			}
		}(w)
	}

	// The traced run samples unreclaimed slots from outside the workers.
	sampDone := make(chan struct{})
	var sampWG sync.WaitGroup
	if traced {
		sampWG.Add(1)
		go func() {
			defer sampWG.Done()
			tk := time.NewTicker(time.Millisecond)
			defer tk.Stop()
			for {
				select {
				case <-sampDone:
					return
				case <-tk.C:
					if u := set.Stats().Unreclaimed(); u > res.unreclaimedPeak {
						res.unreclaimedPeak = u
					}
				}
			}
		}()
	}

	ready.Wait()
	t1 := time.Now()
	close(start)
	time.Sleep(setsRound)
	stop.Store(true)
	wg.Wait()
	res.elapsed = time.Since(t1)
	close(sampDone)
	sampWG.Wait()

	if traced {
		res.containsNs, res.updateNs = NewRecorder(1<<20, id), NewRecorder(1<<20, id+1)
		if ts != nil {
			obs1 := ts.Totals()
			for i := range obs1 {
				res.obsDelta[i] = obs1[i] - obs0[i]
			}
		}
	}
	st1 := set.Stats()
	res.stats = smr.Stats{
		Retires: st1.Retires - st0.Retires, Recycled: st1.Recycled - st0.Recycled,
		Phases: st1.Phases - st0.Phases, Restarts: st1.Restarts - st0.Restarts,
	}

	// Oracle: every key's final presence equals its prefill plus the
	// workers' successful inserts minus their successful deletes.
	for _, wk := range ws {
		res.ops += wk.ops
		res.contains += wk.contains
		res.hits += wk.hits
		res.lat.Merge(wk.lat)
		if traced {
			res.containsNs.Merge(wk.cNs)
			res.updateNs.Merge(wk.uNs)
		}
		if wk.panicked != nil {
			if errors.Is(wk.panicked, oamem.ErrCapacityExhausted) {
				c.fail("capacity", 1)
			} else {
				c.wrongf("%s/%v: worker panicked: %v", spec.name, scheme, wk.panicked)
			}
			return res
		}
	}
	for k := uint64(1); k <= keyRange; k++ {
		want := present[k]
		for _, wk := range ws {
			want += wk.delta[k]
		}
		if want != 0 && want != 1 {
			c.wrongf("%s/%v: key %d: successful inserts and deletes net to %d", spec.name, scheme, k, want)
			continue
		}
		if got := s0.Contains(k); got != (want == 1) {
			c.wrongf("%s/%v: key %d: Contains=%v, ledger says present=%v", spec.name, scheme, k, got, want == 1)
		}
	}
	c.attempted += res.ops
	return res
}

func runSetsRead(c *runCtx) error {
	c.sizes = map[string]any{
		"threads": setsThreads, "delta": setsDelta, "read_pct": setsReadPct,
		"list128_keys": 128, "list128_key_range": 256, "skiplist_keys": 10000, "skiplist_key_range": 20000,
		"round_ms": setsRound.Milliseconds(), "latency_sample": setsSample,
	}
	// A cycle visits each structure with an OA and a NoRecl round
	// (plus a traced OA round in the traced run), alternating which
	// scheme goes first so slow drift cancels in the ratio.
	perCycle := 4
	if c.trace {
		perCycle = 6
	}
	cycles := int(c.dur / (time.Duration(perCycle) * setsRound))
	if cycles < 1 {
		cycles = 1
	}
	type acc struct {
		oa, nr, traced []float64
		ratios         []float64
		cNs, uNs       *Recorder
	}
	accs := make([]acc, len(setSpecs))
	for i := range accs {
		accs[i].cNs, accs[i].uNs = NewRecorder(1<<20, 1), NewRecorder(1<<20, 2)
	}
	lat := NewRecorder(1<<20, c.seed)
	var contains, hits uint64
	var setups []float64
	var tObs [obs.NumCounters]uint64
	var tStats smr.Stats
	var tOps uint64
	var tTime time.Duration
	var peak uint64
	id := uint64(0)
	for cy := 0; cy < cycles; cy++ {
		setup := 0.0
		for si, spec := range setSpecs {
			order := []smr.Scheme{smr.OA, smr.NoRecl}
			if cy%2 == 1 {
				order = []smr.Scheme{smr.NoRecl, smr.OA}
			}
			var oaRate, nrRate float64
			for _, sc := range order {
				id++
				r := runSetRound(c, spec, sc, false, id)
				setup += r.setup.Seconds()
				if sc == smr.OA {
					oaRate = r.rate()
					lat.Merge(r.lat)
					contains += r.contains
					hits += r.hits
				} else {
					nrRate = r.rate()
				}
			}
			a := &accs[si]
			a.oa = append(a.oa, oaRate)
			a.nr = append(a.nr, nrRate)
			a.ratios = append(a.ratios, oaRate/nrRate)
			if c.trace {
				obs.SetEnabled(true)
				id++
				r := runSetRound(c, spec, smr.OA, true, id)
				obs.SetEnabled(false)
				a.traced = append(a.traced, r.rate())
				a.cNs.Merge(r.containsNs)
				a.uNs.Merge(r.updateNs)
				for i := range tObs {
					tObs[i] += r.obsDelta[i]
				}
				tStats.Add(r.stats)
				tOps += r.ops
				tTime += r.elapsed
				peak = max(peak, r.unreclaimedPeak)
			}
		}
		setups = append(setups, setup)
		if c.wrongCount() > 0 {
			return nil
		}
	}

	n := uint64(cycles)
	if !c.trace {
		c.setNote("ops_per_s", math.Sqrt(median(accs[0].oa)*median(accs[1].oa)), 2*n,
			"geometric mean of the OA list128 and skiplist round medians")
		c.set("p50_us", lat.Quantile(0.5)/1e3, lat.Count())
		c.set("p90_us", lat.Quantile(0.9)/1e3, lat.Count())
		c.set("hit_frac", float64(hits)/float64(contains), contains)
		c.setNote("setup_s", median(setups), n, "build and prefill of the four structures of a cycle")
		return nil
	}
	overhead := 1.0
	for si, spec := range setSpecs {
		a := accs[si]
		c.set("ops_per_s."+spec.name, median(a.oa), n)
		c.set("norecl.ops_per_s."+spec.name, median(a.nr), n)
		c.set("vs_norecl."+spec.name, median(a.ratios), n)
		c.set(spec.layer+".contains_ns", a.cNs.Quantile(0.5), a.cNs.Count())
		c.set(spec.layer+".update_ns", a.uNs.Quantile(0.5), a.uNs.Count())
		overhead *= median(a.oa) / median(a.traced)
	}
	sec := tTime.Seconds()
	c.setNote("trace_overhead", math.Sqrt(overhead), 2*n, "geometric mean over both structures")
	c.set("core.restarts_per_kop", 1000*float64(tStats.Restarts)/float64(tOps), tOps)
	c.set("core.checks_per_op", float64(tObs[obs.WarningChecks])/float64(tOps), tOps)
	c.set("core.hp_publishes_per_op", float64(tObs[obs.HPPublishes])/float64(tOps), tOps)
	c.set("core.drain_passes_per_s", float64(tObs[obs.DrainPasses])/sec, tObs[obs.DrainPasses])
	c.set("core.phases_per_s", float64(tStats.Phases)/sec, tStats.Phases)
	c.set("core.recycled_per_retire", ratioOr0(tStats.Recycled, tStats.Retires), tStats.Retires)
	c.set("core.unreclaimed_peak", float64(peak), 2*n)
	return nil
}

// panicErr turns a recovered panic value into an error, keeping a
// wrapped sentinel such as oamem.ErrCapacityExhausted matchable.
func panicErr(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return fmt.Errorf("%v", p)
}

func ratioOr0(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
