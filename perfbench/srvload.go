package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Sizes shared by both server workloads.
const (
	srvSetups   = 3   // server spawns per run; the last one is measured
	srvConns    = 2   // closed-loop connections, one goroutine each
	srvBatch    = 64  // closed-loop batch per connection
	srvOpenWin  = 256 // open-loop responses outstanding at most
	srvSegments = 20  // closed-loop throughput is the median over this many windows
	// Closed-loop latency quantiles are medians over windows of this
	// length: short enough that a burst of host CPU steal spoils few.
	srvRTTWindow = 100 * time.Millisecond
	// The traced run's open-loop quantiles are medians over windows of
	// this length: a whole number of the cache sweeper's 1s period, so
	// every window holds the same share of sweeps.
	srvLatWindow = time.Second
	srvOpenRate  = 40000 // open-loop requests/s, a fifth of bin_zipf's saturated rate on 2 vCPUs
	scanBatch    = 256
)

// connStats is what one load connection saw. Sender-side fields are
// written only by the goroutine issuing requests, the rest only by the
// one awaiting responses, so the open loop's two goroutines share none.
type connStats struct {
	sent   uint64    // sender
	sendNs *Recorder // sender, traced runs

	recv, gets, hits, writes uint64
	fails                    map[string]uint64
	waitNs                   *Recorder // traced runs

	// Send-to-response round trips of the untraced closed loop, one
	// recorder per window of rttWin from rttStart.
	rtt      []*Recorder
	rttStart time.Time
	rttWin   time.Duration
}

func newConnStats(seed uint64) connStats {
	return connStats{
		sendNs: NewRecorder(1<<18, seed), waitNs: NewRecorder(1<<18, seed+1),
		fails: map[string]uint64{},
	}
}

// startRTT gives each window of length win, from now on, a recorder of
// its own; a response after the last window counts in the last one.
func (s *connStats) startRTT(windows int, win time.Duration, seed uint64) {
	s.rtt = make([]*Recorder, windows)
	for i := range s.rtt {
		s.rtt[i] = NewRecorder(1<<12, seed+uint64(i))
	}
	s.rttStart, s.rttWin = time.Now(), win
}

func (s *connStats) addRTT(sent time.Time) {
	now := time.Now()
	w := min(int(now.Sub(s.rttStart)/s.rttWin), len(s.rtt)-1)
	s.rtt[max(w, 0)].Add(float64(now.Sub(sent)))
}

func (s *connStats) add(o *connStats) {
	s.sent += o.sent
	s.recv += o.recv
	s.gets += o.gets
	s.hits += o.hits
	s.writes += o.writes
	for k, v := range o.fails {
		s.fails[k] += v
	}
	s.sendNs.Merge(o.sendNs)
	s.waitNs.Merge(o.waitNs)
}

// loadConn is one load connection of either protocol.
type loadConn interface {
	closed(stop *atomic.Bool, count *atomic.Uint64) error
	open(cfg openLoopConfig) openLoopResult
	// setMode picks what await records: each request's round trip
	// (rtt) or the time spent inside the client's calls (traced). Set
	// it only while no loop runs on the connection.
	setMode(rtt, traced bool)
	stats() *connStats
	close()
}

// connMode is what a connection's calls record.
type connMode struct{ rtt, traced bool }

// srvSpec describes one server workload.
type srvSpec struct {
	flags   []string
	resp    bool
	prefill func(c *runCtx, p *serverProc, st *connStats) error
	dial    func(c *runCtx, p *serverProc, id uint64) (loadConn, error)
	scan    func(c *runCtx, p *serverProc, st *connStats) error // final oracle
}

// runServerWorkload spawns oaserver srvSetups times (reporting the
// median set-up), then measures the last one in closed loop, adds an
// open loop at a fixed rate in the traced run, and ends with an oracle
// scan and a SIGTERM drain whose ledger must balance.
func runServerWorkload(c *runCtx, spec srvSpec) (err error) {
	var setups []float64
	var p *serverProc
	defer func() {
		if p != nil {
			p.kill()
		}
	}()
	total := newConnStats(0)
	for i := 0; i < srvSetups; i++ {
		t0 := time.Now()
		if p, err = startServer(c.server, spec.resp, spec.flags...); err != nil {
			return err
		}
		st := newConnStats(0)
		if err := spec.prefill(c, p, &st); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < srvSetups-1 {
			q := p
			p = nil
			if err := checkDrain(c, q, st.sent); err != nil {
				return err
			}
		} else {
			total.add(&st)
		}
	}

	ctl, err := server.Dial(p.addr, 0)
	if err != nil {
		return fmt.Errorf("dialing the control connection: %w", err)
	}
	ctlSent := uint64(0)
	stats := func() (statsDoc, error) {
		ctlSent++
		return fetchStats(ctl)
	}
	conns := make([]loadConn, srvConns)
	for i := range conns {
		if conns[i], err = spec.dial(c, p, uint64(i+1)); err != nil {
			return err
		}
	}
	closedPhase := func(d time.Duration) ([]float64, error) {
		var stop atomic.Bool
		var count atomic.Uint64
		errs := make([]error, len(conns))
		var wg sync.WaitGroup
		for i, lc := range conns {
			wg.Add(1)
			go func(i int, lc loadConn) {
				defer wg.Done()
				errs[i] = lc.closed(&stop, &count)
			}(i, lc)
		}
		rates := segmentRates(d, srvSegments, count.Load)
		stop.Store(true)
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return rates, nil
	}
	setMode := func(rtt, traced bool) {
		for _, lc := range conns {
			lc.setMode(rtt, traced)
		}
	}

	if !c.trace {
		// Untraced: the whole run is the saturated closed loop, and each
		// request's round trip gives the latencies.
		setMode(true, false)
		windows := max(1, int(c.dur/srvRTTWindow))
		for i, lc := range conns {
			lc.stats().startRTT(windows, c.dur/time.Duration(windows), c.seed+uint64(i)<<16)
		}
		rates, err := closedPhase(c.dur)
		if err != nil {
			return err
		}
		// Each window's quantile comes from both connections' samples.
		rtt := make([]*Recorder, windows)
		for w := range rtt {
			rtt[w] = NewRecorder(1, 0)
			for _, lc := range conns {
				rtt[w].Merge(lc.stats().rtt[w])
			}
		}
		note := fmt.Sprintf("closed loop, %d conns × 2 batches of %d", srvConns, srvBatch)
		p50, n := latencyMedians(rtt, 0.5)
		p90, _ := latencyMedians(rtt, 0.9)
		latNote := fmt.Sprintf("%s, send to response, median over %d windows", note, windows)
		c.setNote("ops_per_s", median(rates), uint64(len(rates)), note+", median of per-window rates")
		c.setNote("p50_us", p50/1e3, n, latNote)
		c.setNote("p90_us", p90/1e3, n, latNote)
	} else {
		plain, err := closedPhase(c.dur / 4)
		if err != nil {
			return err
		}
		s0, err := stats()
		if err != nil {
			return err
		}
		// A sampler on the control connection watches the ring depth
		// and the unreclaimed backlog while the traced phase runs.
		var depthPeak, unreclPeak uint64
		var sampErr error
		sampStop := make(chan struct{})
		sampDone := make(chan struct{})
		go func() {
			defer close(sampDone)
			tk := time.NewTicker(100 * time.Millisecond)
			defer tk.Stop()
			for {
				select {
				case <-sampStop:
					return
				case <-tk.C:
					d, err := stats()
					if err != nil {
						sampErr = err
						return
					}
					for _, x := range d.Server.RingDepth {
						depthPeak = max(depthPeak, uint64(x))
					}
					unreclPeak = max(unreclPeak, d.mapTotals().Unreclaimed())
				}
			}
		}()
		writes := func() uint64 {
			var n uint64
			for _, lc := range conns {
				n += lc.stats().writes
			}
			return n
		}
		w0 := writes()
		setMode(false, true)
		t0 := time.Now()
		traced, err := closedPhase(c.dur / 4)
		el := time.Since(t0).Seconds()
		setMode(false, false)
		setsDone := writes() - w0
		close(sampStop)
		<-sampDone
		if err != nil {
			return err
		}
		if sampErr != nil {
			return sampErr
		}
		s1, err := stats()
		if err != nil {
			return err
		}

		// The open loop: a fixed rate, each request timed from its due
		// time, so a stall is charged to every request queued behind it.
		cfg := openLoopConfig{rate: srvOpenRate, window: srvOpenWin, dur: c.dur / 2}
		cfg.windows = max(1, int(cfg.dur/srvLatWindow))
		open := conns[0].open(cfg)
		if open.err != nil {
			return open.err
		}
		note := fmt.Sprintf("open loop at %d req/s from due time, median over %d windows", srvOpenRate, cfg.windows)
		p50, n := latencyMedians(open.lat, 0.5)
		p99, _ := latencyMedians(open.lat, 0.99)
		c.setNote("open.p50_us", p50/1e3, n, note)
		c.setNote("open.p99_us", p99/1e3, n, note)
		c.set("gen.late_p99_us", open.late.Quantile(0.99)/1e3, open.late.Count())

		sv0, sv1 := s0.Server, s1.Server
		ops := sv1.RequestsRead - sv0.RequestsRead
		batches := sv1.Batches - sv0.Batches
		if batches > 0 {
			c.set("server.batch_avg", float64(sv1.BatchedOps-sv0.BatchedOps)/float64(batches), batches)
			c.set("server.batches_per_s", float64(batches)/el, batches)
		}
		c.set("server.ring_full", float64(sv1.RingFull-sv0.RingFull), ops)
		c.setNote("server.ring_depth_peak", float64(depthPeak), uint64(el*10), "STATS sampled every 100ms")
		c.set("server.busy", float64(sv1.Busy-sv0.Busy), ops)
		if g, ok := s1.Latency["get"]; ok {
			c.setNote("server.get_p99_ns", float64(g.P99Ns), g.Count, "server's log2 histogram since start")
		}
		m0, m1 := s0.mapTotals(), s1.mapTotals()
		c.setNote("core.restarts_per_kop", 1000*float64(m1.Restarts-m0.Restarts)/float64(ops), ops, "server side, from STATS")
		c.setNote("core.phases_per_s", float64(m1.Phases-m0.Phases)/el, m1.Phases-m0.Phases, "server side, from STATS")
		c.setNote("core.recycled_per_retire", ratioOr0(m1.Recycled-m0.Recycled, m1.Retires-m0.Retires), m1.Retires-m0.Retires, "server side, from STATS")
		c.setNote("core.unreclaimed_peak", float64(unreclPeak), uint64(el*10), "server side, STATS sampled every 100ms")
		if s0.Cache != nil && s1.Cache != nil {
			c.set("ttlcache.evicted_per_set", ratioOr0(s1.Cache.Evicted-s0.Cache.Evicted, setsDone), setsDone)
			c.set("ttlcache.expired_per_s", float64(s1.Cache.Expired-s0.Cache.Expired)/el, s1.Cache.Expired-s0.Cache.Expired)
			c.set("ttlcache.reliefs", float64(s1.Cache.Reliefs-s0.Cache.Reliefs), setsDone)
		}
		c.setNote("trace_overhead", median(plain)/median(traced), uint64(len(plain)+len(traced)), "untraced ÷ traced median window rate")
	}

	for _, lc := range conns {
		total.add(lc.stats())
		lc.close()
	}
	if c.trace {
		c.set("client.send_ns", total.sendNs.Quantile(0.5), total.sendNs.Count())
		c.set("client.wait_ns", total.waitNs.Quantile(0.5), total.waitNs.Count())
	}
	scan := newConnStats(0)
	if err := spec.scan(c, p, &scan); err != nil {
		return err
	}
	if !c.trace {
		c.setNote("hit_frac", float64(total.hits)/float64(total.gets), total.gets, "GETs that returned a value, load phases")
		c.setNote("setup_s", median(setups), srvSetups, "spawn, listen and prefill; median of the run's set-ups")
	}
	total.add(&scan)
	ctl.Close()
	sent := total.sent + ctlSent
	q := p
	p = nil
	if err := checkDrain(c, q, sent); err != nil {
		return err
	}
	for k, v := range total.fails {
		c.fail(k, v)
	}
	c.fail("dropped", total.sent-total.recv)
	c.attempted += total.sent
	return nil
}

// checkDrain stops the server with SIGTERM and checks the request
// ledger of its final stats: every request the benchmark sent was read,
// and every request read was answered.
func checkDrain(c *runCtx, p *serverProc, sent uint64) error {
	doc, err := p.drain()
	if err != nil {
		return err
	}
	sv := doc.Server
	if sv.RequestsRead != sv.ResponsesSent || sv.RequestsRead != sent {
		c.wrongf("drain ledger: benchmark sent %d requests, server read %d and answered %d", sent, sv.RequestsRead, sv.ResponsesSent)
	}
	return nil
}

// ---- binary protocol ----

type binConn struct {
	c    *runCtx
	cl   *server.Client
	keys *zipfian
	rng  splitmix
	mode connMode
	st   connStats
}

type binReq struct {
	call *server.Call
	key  uint64
	get  bool
	sent time.Time // set in rtt mode
}

const binGetPct = 90

func dialBin(c *runCtx, addr string, keys uint64, id uint64) (*binConn, error) {
	// The client's window must exceed what the open loop keeps
	// outstanding plus what it queues between flushes.
	cl, err := server.Dial(addr, 2*srvOpenWin+64)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	return &binConn{c: c, cl: cl, keys: newZipfian(keys, 0.99, stream(c.seed, 100+id)), rng: stream(c.seed, 200+id), st: newConnStats(id)}, nil
}

func (b *binConn) submit() (binReq, error) {
	k := b.keys.next() + 1
	get := b.rng.next()%100 < binGetPct
	traced := b.mode.traced
	var t time.Time
	if traced || b.mode.rtt {
		t = time.Now()
	}
	var call *server.Call
	var err error
	if get {
		call, err = b.cl.Get(k)
	} else {
		call, err = b.cl.Put(k, tagged(k, uint32(b.rng.next())))
	}
	if traced {
		b.st.sendNs.Add(float64(time.Since(t)))
	}
	if err != nil {
		return binReq{}, err
	}
	b.st.sent++
	return binReq{call: call, key: k, get: get, sent: t}, nil
}

func (b *binConn) await(r binReq) error {
	var t time.Time
	traced := b.mode.traced
	if traced {
		t = time.Now()
	}
	err := r.call.Wait()
	if traced {
		b.st.waitNs.Add(float64(time.Since(t)))
	}
	if b.mode.rtt {
		b.st.addRTT(r.sent)
	}
	if err != nil {
		return err // counted as dropped: sent but never answered
	}
	b.st.recv++
	if r.get {
		b.st.gets++
	} else {
		b.st.writes++
	}
	checkBinReply(b.c, &b.st, r.key, r.get, r.call)
	return nil
}

// checkBinReply checks one reply for a key that is always present: a
// GET returns its tagged value, a PUT its tagged previous value.
func checkBinReply(c *runCtx, st *connStats, key uint64, get bool, call *server.Call) {
	switch call.Status {
	case server.StOK:
		if !tagOK(key, call.Val) {
			c.wrongf("binary: reply for key %d carries value %#x with another key's tag", key, call.Val)
		} else if get {
			st.hits++
		}
	case server.StNotFound:
		c.wrongf("binary: key %d of the prefilled keyspace answered NOT_FOUND (get=%v)", key, get)
	case server.StBusy:
		st.fails["busy"]++
	case server.StCapacity:
		st.fails["capacity"]++
	default:
		st.fails[fmt.Sprintf("status_%d", call.Status)]++
	}
}

func (b *binConn) closed(stop *atomic.Bool, count *atomic.Uint64) error {
	return closedLoop(srvBatch, stop, count, b.submit, b.cl.Flush, b.await)
}

func (b *binConn) open(cfg openLoopConfig) openLoopResult {
	return openLoop(cfg, func(uint64) (binReq, error) { return b.submit() }, b.cl.Flush, b.await)
}

func (b *binConn) setMode(rtt, traced bool) { b.mode = connMode{rtt, traced} }
func (b *binConn) stats() *connStats        { return &b.st }
func (b *binConn) close()                   { b.cl.Close() }

// ---- RESP ----

type respConn struct {
	c        *runCtx
	snd, rcv *server.RESPClient // one connection; each half used by one goroutine
	keys     *zipfian
	rng      splitmix
	mode     connMode
	st       connStats
}

type respReq struct {
	idx  uint64
	get  bool
	sent time.Time // set in rtt mode
}

// RESP mix: the rest of the GETs' share splits between SET and SETEX.
const (
	respGetPct = 80
	respSetPct = 10
)

var respTTLs = []string{"1", "2"} // seconds; they expire mid-run

func dialRESP(c *runCtx, addr string, keys uint64, id uint64) (*respConn, error) {
	nc, err := dialTCP(addr)
	if err != nil {
		return nil, err
	}
	return &respConn{
		c: c, snd: server.NewRESPClient(nc), rcv: server.NewRESPClient(nc),
		keys: newZipfian(keys, 0.99, stream(c.seed, 300+id)), rng: stream(c.seed, 400+id), st: newConnStats(id),
	}, nil
}

// respKey and respValue: a value is its key's tag in five base-32 digits
// followed by two version characters, within the 7-byte RESP store.
func respKey(idx uint64) string { return "k" + strconv.FormatUint(idx, 10) }

func respTag(idx uint64) string {
	t := keyTag(idx)
	const digits = "0123456789abcdefghijklmnopqrstuv"
	var b [5]byte
	for i := range b {
		b[i] = digits[t&31]
		t >>= 5
	}
	return string(b[:])
}

func respValue(idx, version uint64) string {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	return respTag(idx) + string([]byte{digits[version%36], digits[(version/36)%36]})
}

func (r *respConn) send(req respReq, args ...string) (respReq, error) {
	traced := r.mode.traced
	var t time.Time
	if traced || r.mode.rtt {
		t = time.Now()
	}
	err := r.snd.Send(args...)
	if traced {
		r.st.sendNs.Add(float64(time.Since(t)))
	}
	if err != nil {
		return req, err
	}
	r.st.sent++
	req.sent = t
	return req, nil
}

func (r *respConn) submit() (respReq, error) {
	idx := r.keys.next()
	k := respKey(idx)
	switch x := r.rng.next() % 100; {
	case x < respGetPct:
		return r.send(respReq{idx: idx, get: true}, "GET", k)
	case x < respGetPct+respSetPct:
		return r.send(respReq{idx: idx}, "SET", k, respValue(idx, r.rng.next()))
	default:
		ttl := respTTLs[r.rng.next()%uint64(len(respTTLs))]
		return r.send(respReq{idx: idx}, "SETEX", k, ttl, respValue(idx, r.rng.next()))
	}
}

func (r *respConn) await(req respReq) error {
	traced := r.mode.traced
	var t time.Time
	if traced {
		t = time.Now()
	}
	v, err := r.rcv.Recv()
	if traced {
		r.st.waitNs.Add(float64(time.Since(t)))
	}
	if r.mode.rtt {
		r.st.addRTT(req.sent)
	}
	if err != nil {
		return err
	}
	r.st.recv++
	if req.get {
		r.st.gets++
	} else {
		r.st.writes++
	}
	checkRESPReply(r.c, &r.st, req, v)
	return nil
}

// checkRESPReply checks one reply: a GET hit carries its key's tag, a
// write answers +OK.
func checkRESPReply(c *runCtx, st *connStats, req respReq, v server.RESPValue) {
	switch {
	case v.IsError():
		switch {
		case bytes.HasPrefix(v.Str, []byte("BUSY")):
			st.fails["busy"]++
		case bytes.HasPrefix(v.Str, []byte("OOM")):
			st.fails["oom"]++
		default:
			st.fails["error"]++
		}
	case req.get && v.Nil:
	case req.get:
		if v.Type != '$' || len(v.Str) != 7 || string(v.Str[:5]) != respTag(req.idx) {
			c.wrongf("resp: GET %s returned %q, not a value tagged %s", respKey(req.idx), v.Str, respTag(req.idx))
		} else {
			st.hits++
		}
	case v.Type != '+' || string(v.Str) != "OK":
		c.wrongf("resp: write of %s answered %c%q, want +OK", respKey(req.idx), v.Type, v.Str)
	}
}

func (r *respConn) closed(stop *atomic.Bool, count *atomic.Uint64) error {
	return closedLoop(srvBatch, stop, count, r.submit, r.snd.Flush, r.await)
}

func (r *respConn) open(cfg openLoopConfig) openLoopResult {
	return openLoop(cfg, func(uint64) (respReq, error) { return r.submit() }, r.snd.Flush, r.await)
}

func (r *respConn) setMode(rtt, traced bool) { r.mode = connMode{rtt, traced} }
func (r *respConn) stats() *connStats        { return &r.st }
func (r *respConn) close()                   { r.snd.Close() }
