package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
