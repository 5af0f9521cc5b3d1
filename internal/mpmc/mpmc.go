// Package mpmc is a bounded multi-producer/multi-consumer queue of
// fixed-size multi-word payloads under the optimistic-access scheme —
// the work-distribution structure the ROADMAP asks OA to prove itself
// on, and the server's per-shard request ring.
//
// Internally each queue is a Michael-Scott linked queue over the shared
// OA arena (the same normalized enqueue/dequeue as internal/queue, with
// warning checks at every restart point and the hazard-pointer fallback
// during drain inherited from core), plus an atomic length word that
// enforces the bound: TryEnqueue reserves a length credit before
// touching the structure and rolls it back when the queue is full, so
// the bound is conservative — a full answer can race a concurrent
// dequeue, but the queue never exceeds its capacity. A linked queue
// bounded by a counter, rather than an array ring, is what lets the OA
// machinery do the memory management: nodes are arena slots recycled
// through the ordinary retire → warning → drain pipeline, and a slot
// held by a lagging consumer's hazard pointer is simply re-retired.
//
// Several queues share one Group: one arena, one session registry, one
// reclamation phase. A session leased from the group can produce to or
// consume from any of its queues — the server leases one producer
// session per connection (not one per (connection, queue)) and one
// consumer session per executor.
package mpmc

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/normalized"
	"repro/internal/obs"
	"repro/internal/smr"
)

// PayloadWords is the fixed payload width in 64-bit words. Eight words
// fit a routed server request (metadata, id, key, operands, timestamps)
// and keep a node at 72 bytes — just over a cache line.
const PayloadWords = 8

// Payload is one queue element. Values pass by pointer through
// TryEnqueue/Dequeue so the hot path stays allocation-free.
type Payload [PayloadWords]uint64

// Node is the queue node; all fields atomic (stale reads under OA).
type Node struct {
	Vals [PayloadWords]atomic.Uint64
	Next atomic.Uint64
}

// ResetNode is the allocation hook: it zeroes only Next, the one field
// a concurrent reader can follow before the owner publishes the node.
// The payload words need no memset: TryEnqueue overwrites all of them
// before the link CAS that publishes the node, and a stale reader (a
// Dequeue still holding an old pointer to the recycled slot) could see
// any payload value anyway — it reads the words optimistically and
// discards them when its warning Check fires.
func ResetNode(n *Node) {
	n.Next.Store(0)
}

// Group owns a set of bounded queues sharing one OA manager. All
// sentinels and elements live in the group's arena.
type Group struct {
	mgr      *core.Manager[Node]
	queues   []Queue
	sessions []*Session
}

// Queue is one bounded MPMC queue of a Group. The head and tail are
// structure roots (never recycled); length is the bound credit counter.
type Queue struct {
	g      *Group
	head   atomic.Uint64 // arena.Ptr of the sentinel
	tail   atomic.Uint64
	length atomic.Int64 // reserved elements, counted before linking
	bound  int64
	_      [88]byte // keep adjacent queues' hot words on separate lines
}

// NewGroup builds n bounded queues of capacity bound each, backed by one
// manager sized from cfg. cfg.Capacity is raised, if needed, to hold
// every queue full plus the local-pool float the thread contexts need to
// make allocation progress.
func NewGroup(cfg core.Config, n, bound int) *Group {
	if n < 1 {
		n = 1
	}
	if bound < 1 {
		bound = 1
	}
	cfg.OwnerHPs = 3
	if cfg.LocalPool <= 0 {
		// Ring traffic is small and bursty; a modest transfer block keeps
		// the arena floor (2·MaxThreads·LocalPool) reasonable even with a
		// producer context per connection.
		cfg.LocalPool = 16
	}
	if min := n*(bound+2) + 2*cfg.MaxThreads*cfg.LocalPool; cfg.Capacity < min {
		cfg.Capacity = min
	}
	g := &Group{
		mgr:      core.NewManager[Node](cfg, ResetNode),
		queues:   make([]Queue, n),
		sessions: make([]*Session, cfg.MaxThreads),
	}
	t0 := g.mgr.Thread(0)
	for i := range g.queues {
		q := &g.queues[i]
		q.g = g
		q.bound = int64(bound)
		s := arena.MakePtr(t0.Alloc())
		q.head.Store(uint64(s))
		q.tail.Store(uint64(s))
	}
	for i := range g.sessions {
		g.sessions[i] = &Session{g: g, t: g.mgr.Thread(i), pending: arena.NoSlot}
	}
	return g
}

// Queues returns how many queues the group holds.
func (g *Group) Queues() int { return len(g.queues) }

// Queue returns queue i.
func (g *Group) Queue(i int) *Queue { return &g.queues[i] }

// Manager exposes the underlying optimistic access manager (stats,
// lessor, trace recorder).
func (g *Group) Manager() *core.Manager[Node] { return g.mgr }

// Stats reports the group's reclamation counters.
func (g *Group) Stats() smr.Stats { return g.mgr.Stats() }

// RegisterObs forwards to the core manager.
func (g *Group) RegisterObs(reg *obs.Registry) { g.mgr.RegisterObs(reg) }

// Session returns the fixed-slot session for thread context tid —
// usable on every queue of the group. Like kvmap, session structs are
// cached per context so lease churn cannot strand a pending slot.
func (g *Group) Session(tid int) *Session { return g.sessions[tid] }

// Acquire leases a free thread context and returns its session. Fails
// with lease.ErrNoFreeSessions when all contexts are leased and
// lease.ErrClosed after Close.
func (g *Group) Acquire() (*Session, error) {
	t, err := g.mgr.AcquireThread()
	if err != nil {
		return nil, err
	}
	return g.sessions[t.ID()], nil
}

// Close marks the session registry closed; outstanding sessions stay
// valid until released.
func (g *Group) Close() { g.mgr.Close() }

// Len returns the queue's current element count (reservations included,
// so it can transiently exceed the number of linked elements, never the
// bound).
func (q *Queue) Len() int {
	n := q.length.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Cap returns the queue's bound.
func (q *Queue) Cap() int { return int(q.bound) }

// Session is one leased thread context, bound to its group. A session
// may be used by one goroutine at a time, on any of the group's queues.
type Session struct {
	g       *Group
	t       *core.Thread[Node]
	pending uint32
}

// TID returns the session's thread context id.
func (s *Session) TID() int { return s.t.ID() }

// Release returns the session's thread context to the free pool. The
// pending pre-allocated slot stays attached to the cached session, so
// the next lessee of this context inherits it.
func (s *Session) Release() { s.g.mgr.ReleaseThread(s.t) }

// helpSwing advances a lagging tail (see queue.OAQueue: the CAS target
// is a root, the operands are node handles, so Algorithm 2 applies to
// them).
func (s *Session) helpSwing(q *Queue, last, next arena.Ptr) {
	th := s.t
	if th.ProtectCAS(arena.NilPtr, last, next) {
		return // restart
	}
	q.tail.CompareAndSwap(uint64(last), uint64(next))
	th.ClearCAS()
}

// TryEnqueue appends *p to q, or reports false immediately when the
// queue is at capacity. Once the length credit is reserved the enqueue
// is lock-free and always completes (normalized form: the generator
// finds the tail cell and emits the single link CAS; wrap-up swings the
// tail).
func (s *Session) TryEnqueue(q *Queue, p *Payload) bool {
	if q.length.Add(1) > q.bound {
		q.length.Add(-1)
		return false
	}
	th := s.t
	var dl normalized.DescList
	for {
		// --- CAS generator ---
		last := arena.Ptr(q.tail.Load())
		if th.Check() {
			continue
		}
		next := arena.Ptr(th.Node(last.Slot()).Next.Load())
		tailNow := arena.Ptr(q.tail.Load())
		if th.Check() {
			continue
		}
		if tailNow != last {
			continue
		}
		if !next.IsNil() {
			s.helpSwing(q, last, next)
			continue
		}
		if s.pending == arena.NoSlot {
			s.pending = th.Alloc()
		}
		n := th.Node(s.pending)
		for i, w := range p {
			n.Vals[i].Store(w)
		}
		n.Next.Store(0)
		newPtr := arena.MakePtr(s.pending)
		dl.Reset()
		dl.Append(&th.Node(last.Slot()).Next, 0, uint64(newPtr))
		th.SetOwnerHP(0, last)
		th.SetOwnerHP(1, newPtr)
		if th.SealGenerator() {
			continue
		}
		// --- CAS executor ---
		failed := normalized.Execute(&dl)
		// --- wrap-up ---
		if failed != 0 {
			th.ClearOwnerHPs()
			continue
		}
		s.pending = arena.NoSlot
		// Swing the tail while the owner hazard pointers still pin last
		// and newPtr (no ABA window).
		q.tail.CompareAndSwap(uint64(last), uint64(newPtr))
		th.ClearOwnerHPs()
		return true
	}
}

// Dequeue removes the oldest element into *p, reporting false when the
// queue is empty. The payload words are read optimistically from the
// successor node and validated by a warning check before the head-swing
// CAS is sealed, so a recycled node's new occupant is never returned.
func (s *Session) Dequeue(q *Queue, p *Payload) bool {
	th := s.t
	var dl normalized.DescList
	for {
		// --- CAS generator ---
		first := arena.Ptr(q.head.Load())
		last := arena.Ptr(q.tail.Load())
		if th.Check() {
			continue
		}
		next := arena.Ptr(th.Node(first.Slot()).Next.Load())
		headNow := arena.Ptr(q.head.Load())
		if th.Check() {
			continue
		}
		if headNow != first {
			continue
		}
		if first == last {
			if next.IsNil() {
				if th.Check() {
					continue
				}
				return false
			}
			s.helpSwing(q, last, next)
			continue
		}
		n := th.Node(next.Slot())
		for i := range p {
			p[i] = n.Vals[i].Load()
		}
		if th.Check() {
			continue
		}
		dl.Reset()
		dl.Append(&q.head, uint64(first), uint64(next))
		th.SetOwnerHP(0, first)
		th.SetOwnerHP(1, next)
		if th.SealGenerator() {
			continue
		}
		// --- CAS executor ---
		failed := normalized.Execute(&dl)
		// --- wrap-up ---
		th.ClearOwnerHPs()
		if failed != 0 {
			continue
		}
		th.Retire(first.Slot()) // the old sentinel: unlinked, single retirer
		q.length.Add(-1)
		return true
	}
}
