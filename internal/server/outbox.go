// Per-connection completion outbox. With per-shard executors completing
// requests concurrently with the reader (PING/STATS, errors) the old
// response channel is not enough: the wire contract says responses leave
// in request order, but completions arrive in execution order. The
// outbox is a sequence-indexed reorder buffer: the reader assigns every
// request a dense sequence number at decode time, any goroutine
// completes its slot later, and the writer releases only the contiguous
// prefix — so ordering costs one mutex hop instead of a dedicated
// reorder goroutine.
//
// The buffer doubles as the in-flight window: alloc blocks the reader
// while window responses are unwritten (the old channel-capacity
// backpressure, now explicit), which also guarantees complete never
// blocks — every live sequence has a reserved slot — so executors can
// never be stalled by one slow connection.
//
// Slots own their bytes. complete copies the encoded response into the
// slot's retained backing slice (pre-sized from one per-connection
// arena), so producers encode into their own scratch buffers and a
// steady-state response allocates nothing. take copies the released run
// into the writer's buffer while it holds the lock; a slot is free for
// its next sequence the moment next advances past it, and the writer
// never reads memory a producer may be refilling.
package server

import "sync"

// slotSize is each outbox slot's pre-sized capacity: every binary
// data-op response (at most 21 bytes) and the common RESP replies fit.
// A larger reply (STATS, INFO) grows its slot; take drops a grown
// backing slice past slotKeep so one big reply does not pin memory for
// the connection's lifetime.
const (
	slotSize = 32
	slotKeep = 256
)

type outboxSlot struct {
	b     []byte
	ready bool
}

type outbox struct {
	mu     sync.Mutex
	filled sync.Cond    // writer waits: head-of-line completion, goaway, close
	space  sync.Cond    // reader waits: window space
	slots  []outboxSlot // responses indexed by seq&mask
	mask   uint64
	limit  uint64 // window: max live sequences (seq - next)
	seq    uint64 // next sequence the reader assigns
	next   uint64 // next sequence the writer releases
	goaway bool   // pending GOAWAY push (binary protocol)
	closed bool
}

func (ob *outbox) init(window int) {
	n := 1
	for n < window {
		n <<= 1
	}
	ob.slots = make([]outboxSlot, n)
	backing := make([]byte, n*slotSize)
	for i := range ob.slots {
		ob.slots[i].b = backing[i*slotSize : i*slotSize : (i+1)*slotSize]
	}
	ob.mask = uint64(n - 1)
	ob.limit = uint64(window)
	ob.filled.L = &ob.mu
	ob.space.L = &ob.mu
}

// alloc assigns the next response sequence, blocking while the window is
// full. Only the connection's reader goroutine calls it, so sequences
// are dense and in request order.
func (ob *outbox) alloc() uint64 {
	ob.mu.Lock()
	for ob.seq-ob.next >= ob.limit && !ob.closed {
		ob.space.Wait()
	}
	s := ob.seq
	ob.seq++
	ob.mu.Unlock()
	return s
}

// complete copies sequence seq's encoded response into its slot. Never
// blocks: alloc reserved the slot. Safe from any goroutine; the caller
// keeps ownership of frame and may reuse it as soon as complete returns.
func (ob *outbox) complete(seq uint64, frame []byte) {
	ob.mu.Lock()
	sl := &ob.slots[seq&ob.mask]
	sl.b = append(sl.b[:0], frame...)
	sl.ready = true
	if seq == ob.next {
		ob.filled.Signal()
	}
	ob.mu.Unlock()
}

// take blocks until something is releasable and appends it to dst: a
// pending GOAWAY push (alone, so the writer can flush it promptly), else
// the contiguous run of completed responses, else closed — reported
// only once nothing else is pending, so no completion is ever lost. dst
// belongs to the writer; the released slots are free again on return.
func (ob *outbox) take(dst []byte) (out []byte, goaway, closed bool) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for {
		if ob.goaway {
			ob.goaway = false
			return dst, true, false
		}
		if ob.slots[ob.next&ob.mask].ready {
			for {
				sl := &ob.slots[ob.next&ob.mask]
				if !sl.ready {
					break
				}
				dst = append(dst, sl.b...)
				sl.ready = false
				if cap(sl.b) > slotKeep {
					sl.b = nil
				}
				ob.next++
			}
			ob.space.Signal()
			return dst, false, false
		}
		if ob.closed {
			return dst, false, true
		}
		ob.filled.Wait()
	}
}

// empty reports whether the writer has nothing releasable — the
// flush-on-empty trigger.
func (ob *outbox) empty() bool {
	ob.mu.Lock()
	e := !ob.slots[ob.next&ob.mask].ready && !ob.goaway
	ob.mu.Unlock()
	return e
}

// pushGoAway schedules an out-of-band GOAWAY push.
func (ob *outbox) pushGoAway() {
	ob.mu.Lock()
	ob.goaway = true
	ob.filled.Signal()
	ob.mu.Unlock()
}

// close ends the stream: take drains what remains, then reports closed.
func (ob *outbox) close() {
	ob.mu.Lock()
	ob.closed = true
	ob.filled.Signal()
	ob.space.Signal()
	ob.mu.Unlock()
}
