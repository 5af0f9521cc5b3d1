package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/oaerr"
)

// frameSplits are the read patterns a socket can deliver a byte stream
// in. The frame reader buffers ahead, so a frame's prefix, id, code or
// body can straddle any read boundary; each split must decode the same.
var frameSplits = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-err", iotest.DataErrReader},
}

// refFrame is one step of the reference decode: a frame, or the class
// of error that ends the stream.
type refFrame struct {
	id   uint64
	code byte
	body []byte
	err  error // nil, io.EOF, io.ErrUnexpectedEOF, ErrFrameTooLarge, oaerr.ErrBadRequest
}

// refDecode decodes data the obvious way, in one pass over the whole
// slice: the oracle the buffered reader is checked against.
func refDecode(data []byte, max uint32) []refFrame {
	var out []refFrame
	for {
		switch {
		case len(data) == 0:
			return append(out, refFrame{err: io.EOF})
		case len(data) < 4:
			return append(out, refFrame{err: io.ErrUnexpectedEOF})
		}
		n := binary.LittleEndian.Uint32(data)
		data = data[4:]
		switch {
		case n > max:
			return append(out, refFrame{err: ErrFrameTooLarge})
		case n < frameOverhead:
			return append(out, refFrame{err: oaerr.ErrBadRequest})
		case uint32(len(data)) < n:
			return append(out, refFrame{err: io.ErrUnexpectedEOF})
		}
		out = append(out, refFrame{
			id:   binary.LittleEndian.Uint64(data),
			code: data[8],
			body: data[9:n],
		})
		data = data[n:]
	}
}

// checkFrames feeds data through every split and compares each frame
// and the terminating error with want. It also checks the reader never
// grows its frame buffer past max.
func checkFrames(t *testing.T, data []byte, max uint32, want []refFrame) {
	t.Helper()
	for _, sp := range frameSplits {
		fr := newFrameReader(sp.wrap(bytes.NewReader(data)), max)
		for i, w := range want {
			f, err := fr.read()
			if c := cap(fr.buf); c > 256 && c > int(max) {
				t.Fatalf("%s: frame buffer grew to %d bytes, limit %d", sp.name, c, max)
			}
			if w.err != nil {
				if !errors.Is(err, w.err) {
					t.Fatalf("%s: step %d: err = %v, want %v", sp.name, i, err, w.err)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s: step %d: err = %v, want frame id %d code %d", sp.name, i, err, w.id, w.code)
			}
			if f.ID != w.id || f.Code != w.code || !bytes.Equal(f.Body, w.body) {
				t.Fatalf("%s: step %d: frame {%d %d %x}, want {%d %d %x}",
					sp.name, i, f.ID, f.Code, f.Body, w.id, w.code, w.body)
			}
		}
	}
}

// FuzzFrameReader drives the binary frame decoder with hostile bytes
// under every read split: it must yield exactly the reference decode's
// frames, end with a typed error (never a panic), and never buffer a
// frame past its limit. The second half is the round trip: frames built
// by AppendFrame from the fuzzed id, code and body words decode back
// unchanged under every split.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{}, uint64(1), byte(OpGet), []byte{7, 0, 0, 0, 0, 0, 0, 0})
	f.Add(AppendFrame(AppendFrame(nil, 1, OpPut, 5, 6), 2, OpGet, 5), uint64(0), byte(OpPing), []byte{})
	f.Add(AppendFrame(nil, 9, OpCAS, 1, 2, 3)[:20], uint64(1<<63), byte(StOK), []byte("12345678abcdefgh"))
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint64(3), byte(OpStats), []byte{1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}, uint64(4), byte(OpDel), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, id uint64, code byte, body []byte) {
		checkFrames(t, data, maxRequestFrame, refDecode(data, maxRequestFrame))
		checkFrames(t, data, 32, refDecode(data, 32))

		// Up to 64 words keeps the frames under maxResponseFrame.
		words := make([]uint64, min(len(body)/8, 64))
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		// Two frames back to back, so the second starts mid-buffer.
		stream := AppendFrame(nil, id, code, words...)
		stream = AppendFrame(stream, ^id, code+1, words...)
		checkFrames(t, stream, maxResponseFrame, []refFrame{
			{id: id, code: code, body: body[:8*len(words)]},
			{id: ^id, code: code + 1, body: body[:8*len(words)]},
			{err: io.EOF},
		})
	})
}

// decodeRESP reads commands until the stream ends, copying each argument
// vector out of the reader's reused buffers. The bufio buffer is the
// smallest allowed, so lines and bulk strings straddle refills.
func decodeRESP(r io.Reader) ([][][]byte, error) {
	rr := newRESPReader(bufio.NewReaderSize(r, 16))
	var cmds [][][]byte
	for {
		args, err := rr.readCommand()
		if err != nil {
			return cmds, err
		}
		cmd := make([][]byte, len(args))
		for i, a := range args {
			cmd[i] = append([]byte{}, a...)
		}
		cmds = append(cmds, cmd)
	}
}

// respErrClass names the ways a RESP stream may end; "" is any other
// error, which the reader must never return.
func respErrClass(err error) string {
	switch {
	case err == io.EOF:
		return "eof"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected-eof"
	case errors.Is(err, ErrRESPProtocol):
		return "protocol"
	}
	return ""
}

// FuzzRESPReader drives the RESP decoder with hostile bytes under every
// read split: it must never panic, must end the stream with a clean
// io.EOF, io.ErrUnexpectedEOF or an ErrRESPProtocol error, must never
// yield a command past respMaxArgs arguments or an argument past
// respMaxBulk bytes, and must decode the same commands and end the same
// way whatever the split.
func FuzzRESPReader(f *testing.F) {
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$3\r\nabc\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	f.Add([]byte("PING\r\nSET  k   v\r\n\r\n   \r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$5\r\nk"))
	f.Add([]byte("*1\r\n$70000\r\n"))
	f.Add([]byte("*65\r\n"))
	f.Add([]byte("*-1\r\n*1\r\n:1\r\n"))
	f.Add([]byte("*1\r\n$2\r\nabXY"))
	f.Add([]byte("GET k\n"))
	f.Add([]byte("PING"))
	f.Add([]byte(strings.Repeat("a ", respMaxArgs+1) + "\r\n"))
	// One byte past the bulk and line limits, with the bytes present.
	f.Add([]byte("*1\r\n$65537\r\n" + strings.Repeat("x", respMaxBulk+1) + "\r\n"))
	f.Add([]byte(strings.Repeat("x", respMaxBulk+1) + "\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref [][][]byte
		var refClass string
		for i, sp := range frameSplits {
			cmds, err := decodeRESP(sp.wrap(bytes.NewReader(data)))
			class := respErrClass(err)
			if class == "" {
				t.Fatalf("%s: stream ended with untyped error %v", sp.name, err)
			}
			// Every command ends in a line feed, so a stream cut anywhere
			// else ended mid-command and is not a clean io.EOF.
			if class == "eof" && len(data) > 0 && data[len(data)-1] != '\n' {
				t.Fatalf("%s: clean io.EOF on a stream cut mid-command", sp.name)
			}
			for _, args := range cmds {
				if len(args) > respMaxArgs {
					t.Fatalf("%s: command with %d args, limit %d", sp.name, len(args), respMaxArgs)
				}
				for _, a := range args {
					if len(a) > respMaxBulk {
						t.Fatalf("%s: %d-byte arg, limit %d", sp.name, len(a), respMaxBulk)
					}
				}
			}
			if i == 0 {
				ref, refClass = cmds, class
				continue
			}
			if class != refClass || len(cmds) != len(ref) {
				t.Fatalf("%s: %d commands then %s, whole read gave %d then %s",
					sp.name, len(cmds), class, len(ref), refClass)
			}
			for j := range cmds {
				if len(cmds[j]) != len(ref[j]) {
					t.Fatalf("%s: command %d has %d args, whole read %d", sp.name, j, len(cmds[j]), len(ref[j]))
				}
				for k := range cmds[j] {
					if !bytes.Equal(cmds[j][k], ref[j][k]) {
						t.Fatalf("%s: command %d arg %d = %q, whole read %q", sp.name, j, k, cmds[j][k], ref[j][k])
					}
				}
			}
		}
	})
}
