// Package server is a pipelined TCP front end for the OA key-value map:
// the piece that turns the library into a service and exercises session
// leasing the way a real deployment does (dynamic connection populations
// multiplexing onto the fixed SMR thread registry).
//
// # Wire protocol
//
// Length-prefixed binary frames, little-endian, symmetric in both
// directions:
//
//	frame   := len:u32 | id:u64 | code:u8 | body
//	len     counts the bytes after the length field (id+code+body)
//	id      correlates a response to its request (echoed verbatim);
//	        server-initiated frames (GOAWAY) carry id 0
//	code    request opcode or response status
//	body    op-specific u64 words (see below) or, for STATS, JSON
//
// Requests:
//
//	GET   key            → OK val | NOT_FOUND
//	PUT   key val        → OK prev (NOT_FOUND when no previous value)
//	DEL   key            → OK val | NOT_FOUND
//	CAS   key old new    → OK | CAS_MISMATCH cur | NOT_FOUND
//	PING                 → OK
//	STATS                → OK json
//
// Responses may also carry BUSY (no free session after LeaseWait — back
// off and retry, ideally on an existing connection), CLOSED (server
// draining), CAPACITY (node budget exhausted) or BAD_REQUEST. Clients
// pipeline freely: the server executes a connection's requests in order
// and writes responses in the same order.
//
// Both ends decode through a 32 KiB read-ahead buffer, so a pipelined
// burst costs one read syscall, not two per frame. The server therefore
// reads up to one such buffer of requests past its in-flight window
// (Config.Window) before backpressure stops it.
//
// # Graceful drain
//
// On Shutdown the server stops accepting, pushes a GOAWAY frame to every
// connection, and keeps serving. A conforming client stops issuing new
// requests when it sees GOAWAY, awaits its outstanding responses, and
// closes; the server releases the connection's session lease and exits
// the connection only when the client closes (or DrainTimeout forces it).
// The in-order execute-then-respond pipeline means a cooperative drain
// drops zero in-flight requests.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/oaerr"
)

// Request opcodes.
const (
	OpGet    = 1
	OpPut    = 2
	OpDel    = 3
	OpCAS    = 4
	OpPing   = 5
	OpStats  = 6
	OpGoAway = 7 // server→client only
)

// Response status codes.
const (
	StOK          = 0
	StNotFound    = 1
	StCASMismatch = 2
	StBusy        = 3
	StClosed      = 4
	StCapacity    = 5
	StBadRequest  = 6
	StGoAway      = 7
	StFrameTooBig = 8
)

// argWords returns how many u64 argument words each opcode carries.
func argWords(op byte) (int, bool) {
	switch op {
	case OpGet, OpDel:
		return 1, true
	case OpPut:
		return 2, true
	case OpCAS:
		return 3, true
	case OpPing, OpStats:
		return 0, true
	default:
		return 0, false
	}
}

// frameOverhead is id+code. maxResponseFrame bounds what a client will
// buffer for one response (it must fit the STATS JSON body, which is well
// under a page); maxRequestFrame bounds what the server will buffer for
// one request — the largest legitimate request is CAS at 9+24 bytes, so
// anything past a small page is a corrupt or hostile length prefix, and
// the server must reply with a typed error rather than trust the prefix
// and attempt the allocation it names.
const (
	frameOverhead    = 9
	maxResponseFrame = 1 << 16
	maxRequestFrame  = 1 << 12
)

// ErrFrameTooLarge reports a frame whose length prefix exceeds the
// reader's limit. The stream past the prefix cannot be trusted, so the
// connection is cut after the typed FRAME_TOO_BIG response. It is the
// shared oaerr sentinel, so errors.Is matches across the package oamem
// surface, this package, and client libraries.
var ErrFrameTooLarge = oaerr.ErrFrameTooLarge

// AppendFrame appends one wire frame to b. Exported so the zero-alloc
// proofs and encode benchmarks exercise the exact production path.
func AppendFrame(b []byte, id uint64, code byte, body ...uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(frameOverhead+8*len(body)))
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, code)
	for _, w := range body {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// appendBytesFrame appends a frame with a raw byte body (STATS JSON).
func appendBytesFrame(b []byte, id uint64, code byte, body []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(frameOverhead+len(body)))
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, code)
	return append(b, body...)
}

// frame is a decoded wire frame; Body aliases the read buffer and is only
// valid until the next readFrame on the same reader.
type frame struct {
	ID   uint64
	Code byte
	Body []byte
}

// word returns the i-th u64 of the body.
func (f *frame) word(i int) uint64 {
	return binary.LittleEndian.Uint64(f.Body[8*i:])
}

// readBufSize is the frame reader's read-ahead buffer: one socket read
// fills it with as many pipelined frames as the peer has sent, so a
// frame costs a copy, not the two read syscalls (prefix, then body) an
// unbuffered decode pays.
const readBufSize = 32 << 10

// frameReader decodes frames from a stream through a read-ahead buffer,
// reusing one frame buffer. max bounds the length prefix it will honor:
// a prefix past it fails with an error wrapping ErrFrameTooLarge before
// any body allocation happens.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
	max uint32
	hdr [4]byte
}

func newFrameReader(r io.Reader, max uint32) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBufSize), buf: make([]byte, 0, 256), max: max}
}

// read decodes the next frame. io.EOF (clean close between frames) passes
// through untouched so callers can distinguish it from a truncated frame
// (io.ErrUnexpectedEOF); a length prefix past max wraps ErrFrameTooLarge
// and one too short to hold the id and code wraps oaerr.ErrBadRequest.
func (fr *frameReader) read() (frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:])
	if n > fr.max {
		return frame{}, fmt.Errorf("server: frame length %d over the %d-byte limit: %w",
			n, fr.max, ErrFrameTooLarge)
	}
	if n < frameOverhead {
		return frame{}, fmt.Errorf("server: frame length %d under the %d-byte header: %w",
			n, frameOverhead, oaerr.ErrBadRequest)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, err
	}
	return frame{
		ID:   binary.LittleEndian.Uint64(fr.buf),
		Code: fr.buf[8],
		Body: fr.buf[9:],
	}, nil
}
