package server

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/mpmc"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/ttlcache"
)

// Config sizes a Server. One of Map or Shards is required; zero values
// elsewhere pick the documented defaults.
type Config struct {
	// Map is the single-structure path: serve one kvmap instance. Kept
	// for existing callers; internally it is wrapped as one shard.
	Map *kvmap.Map
	// Shards is the scale-out path: the keyspace is partitioned across
	// per-core kvmap instances and each request is routed by key hash in
	// the connection's reader goroutine, so each shard sees an
	// independent operation stream. Takes precedence over Map.
	Shards *kvmap.Sharded
	// Cache, when set, layers TTL/LRU cache semantics over the shards on
	// the RESP surface: GET applies lazy expiry, SET takes the cache's
	// default TTL and evicts under pressure instead of failing, and the
	// EXPIRE/TTL/SETEX commands come alive. It must wrap the same
	// sharded map the server serves; when Shards (and Map) are nil the
	// server adopts Cache.Shards(). The binary protocol keeps serving
	// the raw map words underneath.
	Cache *ttlcache.Sharded
	// Window bounds the per-connection in-flight pipeline: responses
	// executed but not yet written. When the writer falls this far behind,
	// the reader stops decoding, so backpressure reaches the client as TCP
	// flow control. The reader reads ahead of the window by at most one
	// 32 KiB buffer of undecoded bytes. Default 256.
	Window int
	// LeaseWait bounds how long a request waits for a free session slot
	// on its target shard before the server answers BUSY. A short wait
	// rides out lease churn from disconnecting peers without stalling the
	// connection. Default 2ms.
	LeaseWait time.Duration
	// DrainTimeout bounds Shutdown: connections whose client has not
	// closed by then are force-closed. Default 5s.
	DrainTimeout time.Duration
	// SlowThreshold is the server-side span duration (route+lease+exec+
	// queue, excluding socket wait) past which a request is recorded in
	// the slow-request ring at /debug/slowlog. Default 1ms.
	SlowThreshold time.Duration
	// SlowLogSize is the slow-request ring's capacity, rounded up to a
	// power of two. Default 256.
	SlowLogSize int
	// SpanSample emits every Nth data request's span into the shard's
	// trace ring (when tracing is enabled); 1 traces every request.
	// Latency histograms and the slow log see every request regardless —
	// sampling only thins the trace timeline. Default 64.
	SpanSample int
	// Inline restores the pre-ring execution model: every binary-protocol
	// request executes in its connection's reader goroutine on a
	// per-(conn,shard) lease. The default (false) is batched mode: readers
	// only parse and route, per-shard executors drain bounded request
	// rings on one long-lived lease each. RESP connections always execute
	// inline (variadic commands touch several shards mid-parse).
	Inline bool
	// RingSize bounds each shard's request ring in batched mode. A full
	// ring is the backpressure signal: producers wait RingWait, then
	// answer BUSY. Default 1024.
	RingSize int
	// RingWait bounds how long a request waits for space on a full shard
	// ring before the server answers BUSY. Defaults to LeaseWait.
	RingWait time.Duration
	// MaxConns caps concurrently registered batched connections (the
	// executor's conn-table size and the ring producer-session registry).
	// Connections past the cap fall back to inline execution. Default 1024.
	MaxConns int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)

	// ExecGate, when set, is called by each executor at the top of every
	// drain pass. In-package tests and cmd/healthsmoke stall an executor
	// here to pin queue-stage attribution, ring-full backpressure and
	// the health engine's ring-saturation rule. Never set in production.
	ExecGate func(shard int)
}

// shardStripe is one cache-padded counter block. The per-request counters
// used to be single shared atomics — three cross-core cache-line bounces
// per request, the kind of hidden serial point sharding exists to remove —
// so they are striped by shard (data ops) and by connection (protocol
// ops), and summed at snapshot time.
type shardStripe struct {
	ops       atomic.Uint64 // data requests routed to this shard
	reqsRead  atomic.Uint64 // requests decoded off sockets
	respsSent atomic.Uint64 // responses handed to writers
	reqsTotal [8]atomic.Uint64
	_         [128 - 11*8]byte // pad the 88 bytes of counters to two cache lines
}

// Server serves the wire protocols over listeners. One Server serves one
// sharded keyspace; connections lease a session per shard on their first
// request touching that shard and hold it until disconnect.
type Server struct {
	cfg    Config
	shards *kvmap.Sharded

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[*conn]struct{}
	closed bool

	nextConnID atomic.Uint64
	draining   atomic.Bool

	// Hot striped counters (one stripe per shard) plus cold shared ones,
	// exported via RegisterObs and the STATS op.
	stripes     []shardStripe
	stripeMask  uint64
	active      atomic.Int64  // open connections
	connsTotal  atomic.Uint64 // connections accepted
	busyTotal   atomic.Uint64 // BUSY responses (lease wait exhausted)
	capTotal    atomic.Uint64 // CAPACITY responses
	badTotal    atomic.Uint64 // BAD_REQUEST / FRAME_TOO_BIG responses
	goawaysSent atomic.Uint64
	forceClosed atomic.Uint64 // conns cut by DrainTimeout

	// lat[op][shard] is the server-side latency histogram for one
	// (command, shard) pair, recorded from the request span for every
	// completed data op (statuses OK/NOT_FOUND/CAS_MISMATCH). Indexed by
	// opcode; only OpGet..OpCAS rows are populated.
	lat     [OpCAS + 1][]metrics.Histogram
	slowlog *slowLog

	// healthFn, when set via SetHealth, supplies the flight recorder's
	// health document; it rides along in STATS bodies and the RESP
	// `INFO health` section. Stored as func() any so the server stays
	// decoupled from the flight package.
	healthFn atomic.Value

	// Batched-mode machinery (nil/empty in inline mode): the shared ring
	// group (one bounded MPMC queue per shard), one executor per shard,
	// and the slot table executors use to find a request's connection.
	rings     *mpmc.Group
	execs     []*executor
	execStop  chan struct{}
	execWG    sync.WaitGroup
	tab       []atomic.Pointer[conn]
	freeSlots []uint32 // guarded by mu
	ringFull  atomic.Uint64
}

var opNames = [8]string{"", "get", "put", "del", "cas", "ping", "stats", "goaway"}

// New builds a Server around cfg.Shards (or cfg.Map, wrapped as one
// shard).
func New(cfg Config) *Server {
	if cfg.Shards == nil && cfg.Map == nil && cfg.Cache != nil {
		cfg.Shards = cfg.Cache.Shards()
	}
	if cfg.Shards == nil {
		if cfg.Map == nil {
			panic("server: Config.Map, Config.Shards or Config.Cache is required")
		}
		cfg.Shards = kvmap.ShardedOf(cfg.Map)
	}
	if cfg.Cache != nil && cfg.Cache.Shards() != cfg.Shards {
		panic("server: Config.Cache must wrap Config.Shards")
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.LeaseWait <= 0 {
		cfg.LeaseWait = 2 * time.Millisecond
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = time.Millisecond
	}
	if cfg.SlowLogSize <= 0 {
		cfg.SlowLogSize = 256
	}
	if cfg.SpanSample <= 0 {
		cfg.SpanSample = 64
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.RingWait <= 0 {
		cfg.RingWait = cfg.LeaseWait
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	s := &Server{
		cfg:     cfg,
		shards:  cfg.Shards,
		conns:   make(map[*conn]struct{}),
		stripes: make([]shardStripe, cfg.Shards.NumShards()),
		slowlog: newSlowLog(cfg.SlowLogSize),
	}
	s.stripeMask = uint64(len(s.stripes) - 1)
	for op := OpGet; op <= OpCAS; op++ {
		s.lat[op] = make([]metrics.Histogram, cfg.Shards.NumShards())
	}
	if !cfg.Inline {
		s.startExecutors()
	}
	return s
}

// startExecutors builds the batched-mode machinery: the shared ring
// group (producer session per connection + consumer session per
// executor, hence MaxConns+shards contexts), the conn slot table, and
// one executor goroutine per shard, each taking its shard's long-lived
// map lease now — before any connection can compete for it.
func (s *Server) startExecutors() {
	n := s.shards.NumShards()
	s.rings = mpmc.NewGroup(core.Config{MaxThreads: s.cfg.MaxConns + n}, n, s.cfg.RingSize)
	s.tab = make([]atomic.Pointer[conn], s.cfg.MaxConns)
	s.freeSlots = make([]uint32, s.cfg.MaxConns)
	for i := range s.freeSlots {
		s.freeSlots[i] = uint32(s.cfg.MaxConns - 1 - i)
	}
	s.execStop = make(chan struct{})
	s.execs = make([]*executor, n)
	for i := range s.execs {
		e, err := newExecutor(s, i)
		if err != nil {
			// Only possible when a shard's registry cannot spare a single
			// session — a sizing bug worth failing loudly at construction.
			panic("server: cannot lease executor session for shard " +
				strconv.Itoa(i) + ": " + err.Error())
		}
		s.execs[i] = e
		s.execWG.Add(1)
		go e.run()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// NumShards returns how many keyspace shards the server routes across.
func (s *Server) NumShards() int { return len(s.stripes) }

func (s *Server) sumStripes(f func(*shardStripe) uint64) uint64 {
	var n uint64
	for i := range s.stripes {
		n += f(&s.stripes[i])
	}
	return n
}

// RegisterObs registers the server's gauges and counters (oa_server_*)
// with reg. Call once, before Serve.
func (s *Server) RegisterObs(reg *obs.Registry) {
	reg.Gauge("oa_server_connections", "open client connections",
		func() float64 { return float64(s.active.Load()) })
	reg.Counter("oa_server_connections_total", "connections accepted",
		func() uint64 { return s.connsTotal.Load() })
	reg.CounterVec("oa_server_requests_total", "requests served by opcode", "op",
		len(opNames), func(i int) uint64 {
			return s.sumStripes(func(st *shardStripe) uint64 { return st.reqsTotal[i].Load() })
		})
	reg.Gauge("oa_server_shards", "keyspace shards the router spreads over",
		func() float64 { return float64(s.NumShards()) })
	reg.CounterVec("oa_server_shard_ops", "data requests routed to each keyspace shard", "shard",
		len(s.stripes), func(i int) uint64 { return s.stripes[i].ops.Load() })
	reg.GaugeVec("oa_server_shard_sessions_leased", "sessions currently leased per shard", "shard",
		s.shards.NumShards(), func(i int) float64 {
			return float64(s.shards.Shard(i).Manager().Lessor().Leased())
		})
	reg.Counter("oa_server_busy_total", "requests answered BUSY (no free session)",
		func() uint64 { return s.busyTotal.Load() })
	reg.Counter("oa_server_capacity_total", "requests answered CAPACITY",
		func() uint64 { return s.capTotal.Load() })
	reg.Counter("oa_server_goaways_total", "GOAWAY frames sent",
		func() uint64 { return s.goawaysSent.Load() })
	reg.Counter("oa_server_force_closed_total", "connections cut at DrainTimeout",
		func() uint64 { return s.forceClosed.Load() })
	reg.Counter("oa_server_requests_read_total", "requests decoded off sockets",
		func() uint64 { return s.sumStripes(func(st *shardStripe) uint64 { return st.reqsRead.Load() }) })
	reg.Counter("oa_server_responses_sent_total", "responses queued to writers",
		func() uint64 { return s.sumStripes(func(st *shardStripe) uint64 { return st.respsSent.Load() }) })
	reg.Counter("oa_server_bad_requests_total", "requests answered BAD_REQUEST or FRAME_TOO_BIG",
		func() uint64 { return s.badTotal.Load() })
	reg.Counter("oa_server_slow_requests_total", "requests whose server-side span crossed SlowThreshold",
		func() uint64 { return s.slowlog.total() })
	if s.rings != nil {
		reg.GaugeVec("oa_server_ring_depth", "bounded request-ring depth per shard", "shard",
			len(s.execs), func(i int) float64 { return float64(s.rings.Queue(i).Len()) })
		reg.Gauge("oa_server_ring_cap", "bounded request-ring capacity per shard",
			func() float64 { return float64(s.cfg.RingSize) })
		reg.Counter("oa_server_ring_full_total", "requests answered BUSY because the shard ring stayed full past RingWait",
			func() uint64 { return s.ringFull.Load() })
		reg.Counter("oa_server_exec_batches_total", "executor drain batches",
			func() uint64 {
				var n uint64
				for _, e := range s.execs {
					n += e.batches.Load()
				}
				return n
			})
		reg.Counter("oa_server_exec_batched_ops_total", "data requests executed via shard rings",
			func() uint64 {
				var n uint64
				for _, e := range s.execs {
					n += e.ops.Load()
				}
				return n
			})
		reg.Trace(s.rings.Manager().TraceRecorder())
	}
	for op := OpGet; op <= OpCAS; op++ {
		hs := s.lat[op]
		reg.HistogramVec("oa_server_latency_"+opNames[op]+"_seconds",
			"server-side "+opNames[op]+" latency (route+lease+exec+queue, socket wait excluded)",
			"shard", len(hs),
			func(i int) *metrics.Histogram { return &hs[i] })
	}
	reg.Handle("/debug/slowlog", http.HandlerFunc(s.serveSlowLog))
}

// Serve accepts binary-protocol connections on ln until Shutdown (which
// returns nil here) or a listener error. It owns ln and closes it on
// return.
func (s *Server) Serve(ln net.Listener) error { return s.serve(ln, protoBinary) }

// ServeRESP accepts RESP2 connections on ln — the listener off-the-shelf
// Redis tooling (redis-cli, redis-benchmark, memtier) talks to. Both
// listeners share one shard router and one session economy; a Server may
// run both concurrently.
func (s *Server) ServeRESP(ln net.Listener) error { return s.serve(ln, protoRESP) }

func (s *Server) serve(ln net.Listener, proto uint8) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	defer ln.Close()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		c := &conn{
			s:        s,
			id:       s.nextConnID.Add(1),
			proto:    proto,
			nc:       nc,
			sessions: make([]*kvmap.Session, s.shards.NumShards()),
		}
		c.ob.init(s.cfg.Window)
		c.stripe = &s.stripes[c.id&s.stripeMask]
		if proto == protoBinary && s.rings != nil {
			// Batched mode: a table slot (how executors find the conn) and
			// one ring producer session. Exhaustion of either — only possible
			// past MaxConns — degrades this connection to inline execution.
			if !s.register(c) {
				c.inline = true
			}
		} else {
			c.inline = true
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.active.Add(1)
		if s.draining.Load() {
			// Raced with Shutdown's broadcast: deliver the GOAWAY ourselves.
			c.sendGoAway()
		}
		go c.run()
	}
}

// Shutdown drains the server: stop accepting, send GOAWAY everywhere,
// and wait for clients to finish their pipelines and close — up to
// DrainTimeout, after which the stragglers are cut. It reports how many
// connections were force-closed. (RESP has no in-band drain signal; RESP
// connections drain when their client closes, or are cut at the
// timeout.)
func (s *Server) Shutdown() int {
	if s.draining.Swap(true) {
		return 0 // already draining; first caller reports
	}
	s.mu.Lock()
	for _, ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.sendGoAway()
	}
	s.mu.Unlock()

	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var forced int
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.nc.Close()
		forced++
	}
	s.mu.Unlock()
	s.forceClosed.Add(uint64(forced))

	// Wait for the cut connections' goroutines to release their leases.
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Every connection is gone, so every ring entry has been completed
	// and counted (the zero-drop ledger covers the rings). Now stop the
	// executors; each final-drains its ring and releases its leases.
	if s.execStop != nil {
		close(s.execStop)
		s.execWG.Wait()
		s.rings.Close()
	}
	return forced
}

// Snapshot is the server-side counter block of a STATS response.
// Session fields aggregate across shards.
type Snapshot struct {
	Connections   int64    `json:"connections"`
	ConnsTotal    uint64   `json:"connections_total"`
	RequestsRead  uint64   `json:"requests_read"`
	ResponsesSent uint64   `json:"responses_sent"`
	Busy          uint64   `json:"busy"`
	Capacity      uint64   `json:"capacity"`
	BadRequests   uint64   `json:"bad_requests"`
	SlowRequests  uint64   `json:"slow_requests"`
	GoAways       uint64   `json:"goaways"`
	ForceClosed   uint64   `json:"force_closed"`
	Shards        int      `json:"shards"`
	ShardOps      []uint64 `json:"shard_ops"`
	SessionsCap   int      `json:"sessions_cap"`
	SessionsInUse int      `json:"sessions_leased"`
	SessionGrants uint64   `json:"session_grants"`
	// Batched-execution block: zero values in inline mode.
	ExecMode   string `json:"exec_mode"`
	RingCap    int    `json:"ring_cap"`
	RingDepth  []int  `json:"ring_depth"`
	RingFull   uint64 `json:"ring_full"`
	Batches    uint64 `json:"exec_batches"`
	BatchedOps uint64 `json:"exec_batched_ops"`
	MaxBatch   uint64 `json:"exec_max_batch"`
}

func (s *Server) snapshot() Snapshot {
	shardOps := make([]uint64, len(s.stripes))
	for i := range s.stripes {
		shardOps[i] = s.stripes[i].ops.Load()
	}
	mode, ringCap := "inline", 0
	var depth []int
	var batches, batchedOps, maxBatch uint64
	if s.rings != nil {
		mode, ringCap = "batched", s.cfg.RingSize
		depth = make([]int, len(s.execs))
		for i, e := range s.execs {
			depth[i] = s.rings.Queue(i).Len()
			batches += e.batches.Load()
			batchedOps += e.ops.Load()
			if m := e.maxBatch.Load(); m > maxBatch {
				maxBatch = m
			}
		}
	}
	return Snapshot{
		ExecMode:      mode,
		RingCap:       ringCap,
		RingDepth:     depth,
		RingFull:      s.ringFull.Load(),
		Batches:       batches,
		BatchedOps:    batchedOps,
		MaxBatch:      maxBatch,
		Connections:   s.active.Load(),
		ConnsTotal:    s.connsTotal.Load(),
		RequestsRead:  s.sumStripes(func(st *shardStripe) uint64 { return st.reqsRead.Load() }),
		ResponsesSent: s.sumStripes(func(st *shardStripe) uint64 { return st.respsSent.Load() }),
		Busy:          s.busyTotal.Load(),
		Capacity:      s.capTotal.Load(),
		BadRequests:   s.badTotal.Load(),
		SlowRequests:  s.slowlog.total(),
		GoAways:       s.goawaysSent.Load(),
		ForceClosed:   s.forceClosed.Load(),
		Shards:        s.shards.NumShards(),
		ShardOps:      shardOps,
		SessionsCap:   s.shards.SessionsCap(),
		SessionsInUse: s.shards.SessionsLeased(),
		SessionGrants: s.shards.SessionGrants(),
	}
}

// CmdLatency summarizes one command's server-side latency histogram,
// merged across shards. All durations are nanoseconds; quantiles are
// log₂-bucket upper bounds.
type CmdLatency struct {
	Count  uint64 `json:"count"`
	MeanNs uint64 `json:"mean_ns"`
	P50Ns  uint64 `json:"p50_ns"`
	P90Ns  uint64 `json:"p90_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	P999Ns uint64 `json:"p999_ns"`
	MaxNs  uint64 `json:"max_ns"`
}

// latencySnapshot merges each command's per-shard histograms and
// summarizes them. This one snapshot feeds STATS, stats.json's server
// block and the RESP INFO latency section, so the three surfaces cannot
// drift.
func (s *Server) latencySnapshot() map[string]CmdLatency {
	out := make(map[string]CmdLatency, OpCAS)
	for op := OpGet; op <= OpCAS; op++ {
		var merged metrics.Histogram
		for i := range s.lat[op] {
			merged.Merge(&s.lat[op][i])
		}
		snap := merged.Snapshot()
		cl := CmdLatency{Count: snap.Count, MaxNs: snap.Max}
		if snap.Count > 0 {
			cl.MeanNs = snap.Sum / snap.Count
			cl.P50Ns = snap.QuantileNs(0.50)
			cl.P90Ns = snap.QuantileNs(0.90)
			cl.P99Ns = snap.QuantileNs(0.99)
			cl.P999Ns = snap.QuantileNs(0.999)
		}
		out[opNames[op]] = cl
	}
	return out
}

// SetHealth registers the health-document supplier (the flight
// recorder's Status). Call before Serve; the document is embedded in
// every STATS body under "health" and rendered by `INFO health`.
func (s *Server) SetHealth(fn func() any) { s.healthFn.Store(fn) }

// healthDoc returns the current health document, or nil when no
// supplier is registered.
func (s *Server) healthDoc() any {
	if fn, ok := s.healthFn.Load().(func() any); ok && fn != nil {
		return fn()
	}
	return nil
}

// statsBody builds the STATS JSON: server counters, per-command latency
// summaries, the health block when a flight recorder is attached, the
// cache block when the TTL/LRU layer is configured, plus per-shard
// reclamation stats ("map" stays the shard-0 block for pre-sharding
// consumers).
func (s *Server) statsBody() []byte {
	var cacheStats any
	if s.cfg.Cache != nil {
		cacheStats = s.cfg.Cache.Stats()
	}
	b, err := json.Marshal(struct {
		Server  Snapshot              `json:"server"`
		Latency map[string]CmdLatency `json:"latency"`
		Health  any                   `json:"health,omitempty"`
		Cache   any                   `json:"cache,omitempty"`
		Map     any                   `json:"map"`
		Maps    any                   `json:"map_shards"`
	}{s.snapshot(), s.latencySnapshot(), s.healthDoc(), cacheStats, s.shards.Shard(0).Stats(), s.shards.Stats()})
	if err != nil {
		return []byte(`{}`)
	}
	return b
}

// FinalStats returns the STATS JSON document plus a newline — the
// machine-readable shutdown dump commands print on stdout.
func (s *Server) FinalStats() []byte {
	return append(s.statsBody(), '\n')
}

// Wire protocol selector for a connection.
const (
	protoBinary = iota
	protoRESP
)

// conn is one client connection: a reader goroutine that decodes and
// routes (executing inline or enqueueing onto shard rings), a writer
// goroutine that batches and flushes the outbox, and — in batched mode —
// completions arriving from shard executors. sessions holds the lazily
// leased per-shard sessions of the inline path.
type conn struct {
	s        *Server
	id       uint64
	proto    uint8
	nc       net.Conn
	ob       outbox // sequence-ordered in-flight window
	gaOnce   sync.Once
	stripe   *shardStripe // protocol-op counter stripe (by conn id)
	sessions []*kvmap.Session

	// Batched-mode identity: inline falls back to the classic path (RESP,
	// Config.Inline, or conn-table exhaustion). slot indexes the server's
	// conn table; prod is the connection's ring producer session; inflight
	// counts enqueued-but-incomplete requests — the conn's teardown and
	// slot reuse wait for it to drain (a vanished client only retires its
	// own pending entries).
	inline   bool
	slot     uint32
	prod     *mpmc.Session
	inflight atomic.Int64

	// Request-span state, owned by the reader goroutine. sp is the
	// per-request stopwatch, reused across requests; spanSeq drives the
	// 1-in-SpanSample trace emission.
	sp      trace.Span
	spanSeq uint64
	// scratch is the reader goroutine's response encode buffer: replies
	// the reader builds (inline data ops, protocol ops, errors, RESP) are
	// encoded here and copied into the outbox, so they allocate nothing
	// unless they outgrow it.
	scratch [32]byte
	// Per-request attribution filled in by respSession for the RESP
	// loop, whose dispatch routes inside respExecute (variadic commands
	// touch several shards; the span is attributed to the first).
	reqOp   uint8
	reqSess *kvmap.Session
	reqTS   *obs.PerThread
	reqR0   uint64
	reqD0   uint64
	reqShrd int32
}

func (c *conn) sendGoAway() {
	c.gaOnce.Do(func() {
		if c.proto == protoBinary {
			c.s.goawaysSent.Add(1)
		}
		c.ob.pushGoAway()
	})
}

// register assigns c a conn-table slot and a ring producer session.
func (s *Server) register(c *conn) bool {
	s.mu.Lock()
	if len(s.freeSlots) == 0 {
		s.mu.Unlock()
		return false
	}
	slot := s.freeSlots[len(s.freeSlots)-1]
	s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	s.mu.Unlock()
	prod, err := s.rings.Acquire()
	if err != nil {
		s.mu.Lock()
		s.freeSlots = append(s.freeSlots, slot)
		s.mu.Unlock()
		return false
	}
	c.slot, c.prod = slot, prod
	s.tab[slot].Store(c)
	return true
}

// unregister frees c's table slot for reuse. Only called after the
// connection's in-flight count drained, so no executor can still route a
// completion to the recycled slot.
func (s *Server) unregister(c *conn) {
	s.tab[c.slot].Store(nil)
	c.prod.Release()
	c.prod = nil
	s.mu.Lock()
	s.freeSlots = append(s.freeSlots, c.slot)
	s.mu.Unlock()
}

func (c *conn) run() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.writeLoop()
	}()
	if c.proto == protoRESP {
		c.respReadLoop()
	} else {
		c.readLoop()
	}
	// Disconnect retires only this connection's pending ring entries:
	// wait for the shard executors to complete them (they count toward
	// the response ledger even when the client vanished mid-batch), then
	// tear the outbox down and recycle the slot.
	for c.inflight.Load() != 0 {
		time.Sleep(20 * time.Microsecond)
	}
	c.releaseSessions()
	c.ob.close()
	wg.Wait()
	c.nc.Close()
	if c.prod != nil {
		c.s.unregister(c)
	}
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	c.s.active.Add(-1)
}

func (c *conn) releaseSessions() {
	for i, sess := range c.sessions {
		if sess == nil {
			continue
		}
		if trace.Enabled() {
			c.s.shards.Shard(i).Manager().TraceRecorder().Ring(sess.TID()).Record(trace.EvUnlease, c.id)
		}
		sess.Release()
		c.sessions[i] = nil
	}
}

// session returns the connection's leased session on shard, acquiring one
// on first touch. Acquisition waits up to LeaseWait for churn from
// disconnecting peers to free a slot on that shard.
func (c *conn) session(shard int) (*kvmap.Session, error) {
	if sess := c.sessions[shard]; sess != nil {
		return sess, nil
	}
	m := c.s.shards.Shard(shard)
	deadline := time.Now().Add(c.s.cfg.LeaseWait)
	for {
		sess, err := m.Acquire()
		if err == nil {
			if trace.Enabled() {
				m.Manager().TraceRecorder().Ring(sess.TID()).Record(trace.EvLease, c.id)
			}
			c.sessions[shard] = sess
			return sess, nil
		}
		if errors.Is(err, lease.ErrClosed) || time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func (c *conn) readLoop() {
	if c.inline {
		c.readLoopInline()
	} else {
		c.readLoopBatched()
	}
}

func (c *conn) readLoopInline() {
	fr := newFrameReader(c.nc, maxRequestFrame)
	for {
		c.sp.Begin()
		f, err := fr.read()
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The length prefix named an allocation we refuse to make;
				// answer with the typed error, then cut — the stream past a
				// hostile prefix cannot be resynchronized.
				c.s.badTotal.Add(1)
				c.reply(AppendFrame(c.scratch[:0], 0, StFrameTooBig))
			}
			return // EOF: client closed; anything else: cut the pipeline
		}
		c.sp.Mark(trace.StageRead)
		c.stripe.reqsRead.Add(1)
		nargs, known := argWords(f.Code)
		if !known || f.Code == OpGoAway || len(f.Body) != 8*nargs {
			c.s.badTotal.Add(1)
			c.reply(AppendFrame(c.scratch[:0], f.ID, StBadRequest))
			continue
		}
		c.stripe.reqsTotal[f.Code].Add(1)
		switch f.Code {
		case OpPing:
			c.reply(AppendFrame(c.scratch[:0], f.ID, StOK))
			continue
		case OpStats:
			c.reply(appendBytesFrame(nil, f.ID, StOK, c.s.statsBody()))
			continue
		}
		// Route by key hash in this reader goroutine: each shard sees an
		// independent stream, and responses stay in request order because
		// execution is synchronous here regardless of the target shard.
		shard := c.s.shards.ShardIndex(f.word(0))
		c.sp.Mark(trace.StageRoute)
		sess, err := c.session(shard)
		c.sp.Mark(trace.StageLease)
		if err != nil {
			status := uint8(StBusy)
			if errors.Is(err, lease.ErrClosed) {
				status = StClosed
			} else {
				c.s.busyTotal.Add(1)
			}
			c.reply(AppendFrame(c.scratch[:0], f.ID, status))
			c.sp.Mark(trace.StageQueue)
			c.finishSpan(nil, f.Code, status, shard, 0, 0)
			continue
		}
		c.s.stripes[shard].ops.Add(1)
		// Restart/drain deltas around the op attribute reclamation work
		// (scheme-forced restarts, drain passes) to the request that
		// absorbed it — the session is leased to this connection and
		// executes on this goroutine, so the counter block is quiescent
		// outside the execute call.
		ts := c.s.shards.Shard(shard).Manager().ObsStats().At(sess.TID())
		r0, d0 := ts.Load(obs.Restarts), ts.Load(obs.DrainPasses)
		resp, fatal := c.execute(sess, f)
		c.sp.Mark(trace.StageExec)
		status := resp[respStatusOffset]
		c.reply(resp)
		c.sp.Mark(trace.StageQueue)
		c.finishSpan(sess, f.Code, status, shard,
			ts.Load(obs.Restarts)-r0, ts.Load(obs.DrainPasses)-d0)
		if fatal {
			return
		}
	}
}

// respStatusOffset is the status byte's position in an encoded response
// frame: after the u32 length and u64 id.
const respStatusOffset = 12

// finishSpan closes one routed request's span: the per-(command, shard)
// latency histogram sees every completed data op, the slow log sees any
// request (including BUSY) whose server-side time crossed the
// threshold, and 1-in-SpanSample spans are emitted into the routed
// shard's trace ring — the same single-writer ring the session's
// reclamation events go to, because this goroutine holds the session.
func (c *conn) finishSpan(sess *kvmap.Session, op, status uint8, shard int, restarts, drains uint64) {
	serverNs := c.sp.ServerNs()
	if op >= OpGet && op <= OpCAS && status <= StCASMismatch {
		c.s.lat[op][shard].ObserveNs(uint64(serverNs))
	}
	if serverNs >= int64(c.s.cfg.SlowThreshold) {
		c.s.slowlog.record(time.Now().UnixNano(), c.id, op, status, shard,
			serverNs, c.sp.Durations(), restarts, drains)
	}
	if sess != nil && trace.Enabled() {
		c.spanSeq++
		if c.spanSeq%uint64(c.s.cfg.SpanSample) == 0 {
			ring := c.s.shards.Shard(shard).Manager().TraceRecorder().Ring(sess.TID())
			c.sp.Emit(ring, op, status, shard)
		}
	}
}

// reply completes one response in request order: allocate the next
// outbox sequence and fill it immediately. Reader-goroutine only; it
// blocks while the in-flight window is full, which is exactly the
// backpressure contract — the reader stops reading until the writer
// catches up.
func (c *conn) reply(b []byte) {
	c.complete(c.ob.alloc(), b)
}

// complete fills a previously allocated outbox sequence. Safe from any
// goroutine (shard executors complete ring entries here).
func (c *conn) complete(seq uint64, b []byte) {
	c.stripe.respsSent.Add(1)
	c.ob.complete(seq, b)
}

// execute runs one data request on the connection's session for the
// routed shard. A capacity-starved allocator panics with an error
// wrapping lease.ErrCapacityExhausted; that is answered CAPACITY and
// treated as fatal for the connection (the session's protocol state
// cannot be trusted past a mid-operation unwind).
func (c *conn) execute(sess *kvmap.Session, f frame) (resp []byte, fatal bool) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !errors.Is(err, lease.ErrCapacityExhausted) {
				panic(r)
			}
			c.s.capTotal.Add(1)
			c.s.logf("conn %d: capacity exhausted: %v", c.id, err)
			resp, fatal = AppendFrame(c.scratch[:0], f.ID, StCapacity), true
		}
	}()
	var key, a1, a2 uint64
	if n := len(f.Body) >> 3; n > 0 {
		key = f.word(0)
		if n > 1 {
			a1 = f.word(1)
		}
		if n > 2 {
			a2 = f.word(2)
		}
	}
	return runOp(c.scratch[:0], sess, f.Code, f.ID, key, a1, a2), false
}

// writeBufSize is the writer's flush threshold.
const writeBufSize = 32 << 10

// writeLoop batches responses: it copies the contiguous completed run
// off the outbox into its own buffer, and writes only when nothing more
// is immediately releasable (or the buffer holds writeBufSize bytes), so
// a pipelining client costs ~one syscall per batch, not per response.
// The GOAWAY push frame exists only in the binary protocol; RESP2 has no
// server-initiated signal, so RESP connections just observe the drain as
// their eventual close. A dead socket flips the loop into discard mode —
// it keeps consuming completions so neither the reader (window space)
// nor the executors' ledger ever depends on the peer.
func (c *conn) writeLoop() {
	out := make([]byte, 0, writeBufSize)
	dead := false
	for {
		var ga, closed bool
		out, ga, closed = c.ob.take(out)
		if ga && c.proto == protoBinary {
			out = AppendFrame(out, 0, StGoAway)
		}
		if len(out) > 0 && (ga || closed || len(out) >= writeBufSize || c.ob.empty()) {
			if !dead {
				if _, err := c.nc.Write(out); err != nil {
					dead = true
				}
			}
			out = out[:0]
		}
		if closed {
			return
		}
	}
}
