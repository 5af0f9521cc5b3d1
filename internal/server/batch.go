// Per-shard batched execution. In batched mode (the default) a reader
// goroutine only parses and routes: each data request is packed into one
// fixed-size mpmc.Payload and enqueued onto the target shard's bounded
// request ring. One executor goroutine per shard holds the shard's only
// long-lived kvmap lease and drains its ring in batches, so lease
// acquisition, warning-check placement and map cache misses amortize
// across every connection hitting the shard — and the session economy
// shrinks from conns×shards leases to exactly one per shard.
//
// The rings are the OA-native bounded MPMC queues of internal/mpmc: the
// server's hot path runs through the reclamation scheme it serves.
// Backpressure inverts the old model: instead of per-(conn,shard) BUSY
// at lease time, a full ring makes the producer wait up to RingWait for
// the executor to catch up, then answer BUSY. Responses flow back
// through each connection's outbox, which restores wire order.
package server

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/kvmap"
	"repro/internal/lease"
	"repro/internal/mpmc"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Request payload layout (mpmc.PayloadWords = 8 words):
//
//	w0  op:8 | unused:24 | conn slot:24 | unused:8
//	w1  request id (echoed into the response frame)
//	w2  key
//	w3  second argument (PUT value, CAS old)
//	w4  third argument (CAS new)
//	w5  enqueue timestamp (trace.Now), start of the queue stage
//	w6  readNs:32 | routeNs:32 (reader-side stage durations, saturated)
//	w7  outbox sequence on the issuing connection
const (
	pwMeta = iota
	pwID
	pwKey
	pwArg1
	pwArg2
	pwEnqTS
	pwStages
	pwSeq
)

func packMeta(op uint8, slot uint32) uint64 {
	return uint64(op)<<56 | uint64(slot&0xFFFFFF)<<8
}

func unpackMeta(w uint64) (op uint8, slot uint32) {
	return uint8(w >> 56), uint32(w>>8) & 0xFFFFFF
}

func sat32(ns int64) uint64 {
	if ns < 0 {
		ns = 0
	}
	if ns > 0xFFFFFFFF {
		ns = 0xFFFFFFFF
	}
	return uint64(ns)
}

func packStageNs(readNs, routeNs int64) uint64 {
	return sat32(readNs)<<32 | sat32(routeNs)
}

func unpackStageNs(w uint64) (readNs, routeNs int64) {
	return int64(w >> 32), int64(w & 0xFFFFFFFF)
}

// runOp executes one data op on sess and appends the encoded response
// to dst (a caller-owned scratch buffer; the outbox copies it out).
// Shared by the inline path (reader goroutine) and the batched path
// (executor).
func runOp(dst []byte, sess *kvmap.Session, op uint8, id, key, a1, a2 uint64) []byte {
	switch op {
	case OpGet:
		if v, ok := sess.Get(key); ok {
			return AppendFrame(dst, id, StOK, v)
		}
		return AppendFrame(dst, id, StNotFound)
	case OpPut:
		prev, had := sess.Put(key, a1)
		if had {
			return AppendFrame(dst, id, StOK, prev)
		}
		return AppendFrame(dst, id, StNotFound, 0)
	case OpDel:
		if v, ok := sess.Remove(key); ok {
			return AppendFrame(dst, id, StOK, v)
		}
		return AppendFrame(dst, id, StNotFound)
	case OpCAS:
		swapped, found := sess.CompareAndSwap(key, a1, a2)
		switch {
		case swapped:
			return AppendFrame(dst, id, StOK)
		case found:
			return AppendFrame(dst, id, StCASMismatch)
		default:
			return AppendFrame(dst, id, StNotFound)
		}
	}
	return AppendFrame(dst, id, StBadRequest)
}

// executor is one shard's single consumer: it owns the shard's only
// kvmap session (the long-lived lease) and one mpmc consumer session,
// and is the only goroutine executing ops on the shard in batched mode
// — which is also what makes its trace-ring writes single-writer.
type executor struct {
	s     *Server
	shard int
	sess  *kvmap.Session // the shard's one long-lived map lease (nil after ErrClosed)
	cons  *mpmc.Session  // ring consumer session
	ts    *obs.PerThread

	// Producers nudge work only when idle is set, so the steady-state
	// enqueue path is one atomic load — no futex wake per request.
	idle atomic.Bool
	work chan struct{}

	batches  atomic.Uint64
	ops      atomic.Uint64
	maxBatch atomic.Uint64
	spanSeq  uint64   // sampled per-request trace emission
	batchSeq uint64   // sampled exec_batch emission
	scratch  [32]byte // response encode buffer, copied out by the outbox
}

func newExecutor(s *Server, shard int) (*executor, error) {
	sess, err := s.shards.Shard(shard).Acquire()
	if err != nil {
		return nil, err
	}
	cons, err := s.rings.Acquire()
	if err != nil {
		sess.Release()
		return nil, err
	}
	return &executor{
		s:     s,
		shard: shard,
		sess:  sess,
		cons:  cons,
		ts:    s.shards.Shard(shard).Manager().ObsStats().At(sess.TID()),
		work:  make(chan struct{}, 1),
	}, nil
}

// wake nudges an idle executor. Producers call it after every enqueue;
// when the executor is busy draining it costs one atomic load.
func (e *executor) wake() {
	if e.idle.Load() {
		select {
		case e.work <- struct{}{}:
		default:
		}
	}
}

func (e *executor) run() {
	defer e.s.execWG.Done()
	q := e.s.rings.Queue(e.shard)
	var p mpmc.Payload
	for {
		if gate := e.s.cfg.ExecGate; gate != nil {
			gate(e.shard)
		}
		n := 0
		for e.cons.Dequeue(q, &p) {
			// Count the op before completing it so the batched-ops ledger
			// can never trail a response a client has already observed.
			e.ops.Add(1)
			e.process(&p)
			n++
		}
		if n > 0 {
			e.batches.Add(1)
			if uint64(n) > e.maxBatch.Load() {
				e.maxBatch.Store(uint64(n))
			}
			if trace.Enabled() {
				e.batchSeq++
				if e.batchSeq%uint64(e.s.cfg.SpanSample) == 0 {
					e.s.rings.Manager().TraceRecorder().Ring(e.cons.TID()).
						Record(trace.EvBatch, trace.RingPayload(e.shard, uint64(n)))
				}
			}
			continue
		}
		// Empty ring: advertise idleness, then re-check — a producer that
		// enqueued between the drain and the store saw idle=false and did
		// not signal, so the recheck closes the sleep/wake race.
		e.idle.Store(true)
		if e.cons.Dequeue(q, &p) {
			e.idle.Store(false)
			e.ops.Add(1)
			e.batches.Add(1)
			e.process(&p)
			continue
		}
		select {
		case <-e.work:
			e.idle.Store(false)
		case <-e.s.execStop:
			// Shutdown: connections are gone and their pending entries
			// completed, but drain once more so nothing is stranded.
			for e.cons.Dequeue(q, &p) {
				e.ops.Add(1)
				e.process(&p)
			}
			if e.sess != nil {
				e.sess.Release()
			}
			e.cons.Release()
			return
		}
	}
}

// process executes one dequeued request and completes it into the
// issuing connection's outbox. The queue stage is the real ring wait:
// enqueue timestamp → this dequeue, which includes the request's
// position within the executor's current batch.
func (e *executor) process(p *mpmc.Payload) {
	s := e.s
	op, slot := unpackMeta(p[pwMeta])
	id := p[pwID]
	start := trace.Now()
	queueNs := start - int64(p[pwEnqTS])
	var r0, d0 uint64
	if e.ts != nil {
		r0, d0 = e.ts.Load(obs.Restarts), e.ts.Load(obs.DrainPasses)
	}
	resp := e.exec(e.scratch[:0], op, id, p[pwKey], p[pwArg1], p[pwArg2])
	execNs := trace.Now() - start
	readNs, routeNs := unpackStageNs(p[pwStages])
	status := resp[respStatusOffset]
	serverNs := routeNs + queueNs + execNs
	if op >= OpGet && op <= OpCAS && status <= StCASMismatch {
		s.lat[op][e.shard].ObserveNs(uint64(serverNs))
	}
	cp := s.tab[slot].Load()
	if serverNs >= int64(s.cfg.SlowThreshold) {
		var stages [trace.NumStages]int64
		stages[trace.StageRead] = readNs
		stages[trace.StageRoute] = routeNs
		stages[trace.StageExec] = execNs
		stages[trace.StageQueue] = queueNs
		var restarts, drains uint64
		if e.ts != nil {
			restarts, drains = e.ts.Load(obs.Restarts)-r0, e.ts.Load(obs.DrainPasses)-d0
		}
		var connID uint64
		if cp != nil {
			connID = cp.id
		}
		s.slowlog.record(time.Now().UnixNano(), connID, op, status, e.shard,
			serverNs, stages, restarts, drains)
	}
	if e.sess != nil && trace.Enabled() {
		e.spanSeq++
		if e.spanSeq%uint64(s.cfg.SpanSample) == 0 {
			ring := s.shards.Shard(e.shard).Manager().TraceRecorder().Ring(e.sess.TID())
			var durs [trace.NumStages]int64
			durs[trace.StageRead], durs[trace.StageRoute] = readNs, routeNs
			durs[trace.StageExec], durs[trace.StageQueue] = execNs, queueNs
			for st, d := range durs {
				if d > 0 {
					ring.Record(trace.EvReqStage, trace.StagePayload(trace.Stage(st), d))
				}
			}
			ring.Record(trace.EvReqSpan, trace.SpanPayload(op, status, e.shard, serverNs))
			s.rings.Manager().TraceRecorder().Ring(e.cons.TID()).
				Record(trace.EvRingDeq, trace.RingPayload(e.shard, uint64(queueNs)))
		}
	}
	// Complete even when the client has vanished: the conn's run() holds
	// the slot until its in-flight count drains, so the completion lands
	// in a live outbox (the dead-socket writer discards it) and the
	// requests-read/responses-sent ledger stays balanced.
	if cp != nil {
		cp.complete(p[pwSeq], resp)
		cp.inflight.Add(-1)
	}
}

// exec runs one op on the executor's session, recovering from a
// capacity-starved allocator: the request is answered CAPACITY and the
// session — whose protocol state cannot be trusted past a mid-operation
// unwind — is cycled for a fresh lease, exactly what a disconnect does
// in inline mode. The executor itself survives; only the one request
// pays.
func (e *executor) exec(dst []byte, op uint8, id, key, a1, a2 uint64) (resp []byte) {
	if e.sess == nil {
		return AppendFrame(dst, id, StClosed)
	}
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !errors.Is(err, lease.ErrCapacityExhausted) {
				panic(r)
			}
			e.s.capTotal.Add(1)
			e.s.logf("shard %d executor: capacity exhausted: %v", e.shard, err)
			resp = AppendFrame(dst, id, StCapacity)
			e.refreshSession()
		}
	}()
	return runOp(dst, e.sess, op, id, key, a1, a2)
}

func (e *executor) refreshSession() {
	m := e.s.shards.Shard(e.shard)
	e.sess.Release()
	e.sess, e.ts = nil, nil
	for {
		sess, err := m.Acquire()
		if err == nil {
			e.sess = sess
			e.ts = m.Manager().ObsStats().At(sess.TID())
			return
		}
		if errors.Is(err, lease.ErrClosed) {
			return // teardown: remaining ring entries answer CLOSED
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// enqueue routes one packed request onto shard's ring, waiting up to
// RingWait when the ring is full. Reports false when the wait expires —
// the caller answers BUSY.
func (c *conn) enqueue(shard int, p *mpmc.Payload) bool {
	q := c.s.rings.Queue(shard)
	e := c.s.execs[shard]
	if c.prod.TryEnqueue(q, p) {
		e.wake()
		return true
	}
	deadline := time.Now().Add(c.s.cfg.RingWait)
	for {
		e.wake() // full ring: the consumer is the only way out
		time.Sleep(5 * time.Microsecond)
		p[pwEnqTS] = uint64(trace.Now())
		if c.prod.TryEnqueue(q, p) {
			e.wake()
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// readLoopBatched is the batched twin of readLoopInline: decode,
// validate, answer protocol ops locally, and hand every data op to its
// shard's executor through the ring. Response order is restored by the
// outbox sequence allocated here, in request order.
func (c *conn) readLoopBatched() {
	fr := newFrameReader(c.nc, maxRequestFrame)
	s := c.s
	for {
		c.sp.Begin()
		f, err := fr.read()
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				s.badTotal.Add(1)
				c.reply(AppendFrame(c.scratch[:0], 0, StFrameTooBig))
			}
			return
		}
		c.sp.Mark(trace.StageRead)
		c.stripe.reqsRead.Add(1)
		nargs, known := argWords(f.Code)
		if !known || f.Code == OpGoAway || len(f.Body) != 8*nargs {
			s.badTotal.Add(1)
			c.reply(AppendFrame(c.scratch[:0], f.ID, StBadRequest))
			continue
		}
		c.stripe.reqsTotal[f.Code].Add(1)
		switch f.Code {
		case OpPing:
			c.reply(AppendFrame(c.scratch[:0], f.ID, StOK))
			continue
		case OpStats:
			c.reply(appendBytesFrame(nil, f.ID, StOK, s.statsBody()))
			continue
		}
		shard := s.shards.ShardIndex(f.word(0))
		c.sp.Mark(trace.StageRoute)
		seq := c.ob.alloc()
		var p mpmc.Payload
		p[pwMeta] = packMeta(f.Code, c.slot)
		p[pwID] = f.ID
		p[pwKey] = f.word(0)
		if nargs > 1 {
			p[pwArg1] = f.word(1)
		}
		if nargs > 2 {
			p[pwArg2] = f.word(2)
		}
		p[pwStages] = packStageNs(c.sp.Dur(trace.StageRead), c.sp.Dur(trace.StageRoute))
		p[pwSeq] = seq
		c.inflight.Add(1)
		p[pwEnqTS] = uint64(trace.Now())
		if !c.enqueue(shard, &p) {
			c.inflight.Add(-1)
			s.busyTotal.Add(1)
			s.ringFull.Add(1)
			c.complete(seq, AppendFrame(c.scratch[:0], f.ID, StBusy))
			continue
		}
		s.stripes[shard].ops.Add(1)
		if trace.Enabled() {
			c.spanSeq++
			if c.spanSeq%uint64(s.cfg.SpanSample) == 0 {
				s.rings.Manager().TraceRecorder().Ring(c.prod.TID()).
					Record(trace.EvRingEnq, trace.RingPayload(shard, uint64(s.rings.Queue(shard).Len())))
			}
		}
	}
}
