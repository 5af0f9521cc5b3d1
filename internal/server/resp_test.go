package server

import (
	"bytes"
	"net"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kvmap"
)

// newRESPTestServer serves the RESP listener over a sharded map.
func newRESPTestServer(t *testing.T, threads, shards int, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Shards = kvmap.NewSharded(core.Config{MaxThreads: threads, Capacity: 1 << 16}, 1<<14, shards)
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeRESP(ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("ServeRESP: %v", err)
		}
	})
	return s, ln.Addr().String()
}

func TestRESPRoundTrip(t *testing.T) {
	_, addr := newRESPTestServer(t, 4, 2, Config{})
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if v, err := c.Do("PING"); err != nil || string(v.Str) != "PONG" {
		t.Fatalf("PING = %q (%v), want PONG", v.Str, err)
	}
	if v, err := c.Do("ECHO", "hello"); err != nil || string(v.Str) != "hello" {
		t.Fatalf("ECHO = %q (%v)", v.Str, err)
	}
	if v, err := c.Do("SET", "foo", "bar"); err != nil || string(v.Str) != "OK" {
		t.Fatalf("SET = %q (%v), want OK", v.Str, err)
	}
	if v, err := c.Do("GET", "foo"); err != nil || string(v.Str) != "bar" {
		t.Fatalf("GET = %q (%v), want bar", v.Str, err)
	}
	if v, err := c.Do("EXISTS", "foo", "nope"); err != nil || v.Int != 1 {
		t.Fatalf("EXISTS = %d (%v), want 1", v.Int, err)
	}
	if v, err := c.Do("DEL", "foo", "nope"); err != nil || v.Int != 1 {
		t.Fatalf("DEL = %d (%v), want 1", v.Int, err)
	}
	if v, err := c.Do("GET", "foo"); err != nil || !v.Nil {
		t.Fatalf("GET after DEL = %+v (%v), want nil", v, err)
	}
	// Empty value round-trips too (len 0 packs to word 0... distinct from
	// absent).
	if v, err := c.Do("SET", "empty", ""); err != nil || string(v.Str) != "OK" {
		t.Fatalf("SET empty = %q (%v)", v.Str, err)
	}
	if v, err := c.Do("GET", "empty"); err != nil || v.Nil || len(v.Str) != 0 {
		t.Fatalf("GET empty = %+v (%v), want present empty bulk", v, err)
	}
	// Max-length and binary-safe values.
	if v, err := c.Do("SET", "bin", "a\x00b\xffc12"); err != nil || string(v.Str) != "OK" {
		t.Fatalf("SET bin = %q (%v)", v.Str, err)
	}
	if v, err := c.Do("GET", "bin"); err != nil || string(v.Str) != "a\x00b\xffc12" {
		t.Fatalf("GET bin = %q (%v)", v.Str, err)
	}
}

func TestRESPCASExtension(t *testing.T) {
	_, addr := newRESPTestServer(t, 2, 1, Config{})
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if v, _ := c.Do("CAS", "k", "a", "b"); !v.Nil {
		t.Fatalf("CAS on absent key = %+v, want nil", v)
	}
	c.Do("SET", "k", "a")
	if v, _ := c.Do("CAS", "k", "a", "b"); v.Int != 1 {
		t.Fatalf("CAS a->b = %+v, want :1", v)
	}
	if v, _ := c.Do("CAS", "k", "a", "c"); v.Int != 0 {
		t.Fatalf("stale CAS = %+v, want :0", v)
	}
	if v, _ := c.Do("GET", "k"); string(v.Str) != "b" {
		t.Fatalf("GET after CAS = %q, want b", v.Str)
	}
}

func TestRESPErrors(t *testing.T) {
	_, addr := newRESPTestServer(t, 2, 1, Config{})
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if v, _ := c.Do("SET", "k", "eight-bytes!"); !v.IsError() || !strings.Contains(string(v.Str), "7-byte") {
		t.Fatalf("over-long SET = %+v, want 7-byte limit error", v)
	}
	if v, _ := c.Do("NOSUCH", "x"); !v.IsError() || !strings.Contains(string(v.Str), "unknown command") {
		t.Fatalf("unknown command = %+v", v)
	}
	if v, _ := c.Do("GET"); !v.IsError() || !strings.Contains(string(v.Str), "wrong number") {
		t.Fatalf("GET arity error = %+v", v)
	}
	// A command name carrying CR/LF is echoed on one line: the next reply
	// stays in step.
	if v, _ := c.Do("NO\r\n+OK", "x"); !v.IsError() || string(v.Str) != "ERR unknown command 'NO  +OK'" {
		t.Fatalf("unknown command with CRLF = %+v", v)
	}
	if v, _ := c.Do("PING"); string(v.Str) != "PONG" {
		t.Fatalf("PING after CRLF echo = %+v", v)
	}
	if v, _ := c.Do("INFO"); v.Type != '$' || !bytes.Contains(v.Str, []byte("oa_server:1")) {
		t.Fatalf("INFO = %+v, want bulk containing oa_server:1", v)
	}
	// Tool-compat probes.
	if v, _ := c.Do("COMMAND", "DOCS"); v.Type != '*' || len(v.Array) != 0 {
		t.Fatalf("COMMAND DOCS = %+v, want empty array", v)
	}
	if v, _ := c.Do("SELECT", "0"); string(v.Str) != "OK" {
		t.Fatalf("SELECT = %+v", v)
	}
}

// TestRESPPipelining issues a deep pipeline before reading any reply and
// checks responses come back in command order.
func TestRESPPipelining(t *testing.T) {
	_, addr := newRESPTestServer(t, 4, 2, Config{Window: 64})
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 500
	for i := 0; i < n; i++ {
		key := "key:" + strconv.Itoa(i)
		c.Send("SET", key, strconv.Itoa(i))
		c.Send("GET", key)
	}
	c.Flush()
	for i := 0; i < n; i++ {
		set, err := c.Recv()
		if err != nil || string(set.Str) != "OK" {
			t.Fatalf("SET %d = %+v (%v)", i, set, err)
		}
		get, err := c.Recv()
		if err != nil || string(get.Str) != strconv.Itoa(i) {
			t.Fatalf("GET %d = %q (%v), want %d — pipeline out of order", i, get.Str, err, i)
		}
	}
}

// TestRESPInlineCommand drives the inline (space-separated) form a human
// types over nc.
func TestRESPInlineCommand(t *testing.T) {
	_, addr := newRESPTestServer(t, 2, 1, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("PING\r\nSET ikey ival\r\nGET ikey\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	got := ""
	for !strings.Contains(got, "ival") {
		n, err := nc.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, got)
		}
		got += string(buf[:n])
	}
	want := "+PONG\r\n+OK\r\n$4\r\nival\r\n"
	if got != want {
		t.Fatalf("inline session = %q, want %q", got, want)
	}
}

// TestRESPMalformed checks protocol garbage yields a typed -ERR and a cut
// connection, and a hostile bulk length is refused without the allocation
// it names.
func TestRESPMalformed(t *testing.T) {
	for _, tc := range []struct{ name, payload string }{
		{"bad array header", "*notanumber\r\n"},
		{"hostile bulk length", "*1\r\n$2147483000\r\n"},
		{"over-limit args", "*9999\r\n"},
		{"wrong element type", "*1\r\n:5\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := newRESPTestServer(t, 2, 1, Config{})
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write([]byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			var got []byte
			buf := make([]byte, 512)
			for {
				n, err := nc.Read(buf)
				got = append(got, buf[:n]...)
				if err != nil {
					break // server must cut the connection after the error
				}
			}
			if !bytes.HasPrefix(got, []byte("-ERR protocol error")) {
				t.Fatalf("reply = %q, want -ERR protocol error prefix", got)
			}
		})
	}
}

// TestRESPBusyOnExhaustion pins the single session slot of the only shard
// from one connection and checks another connection's command is answered
// -BUSY (typed admission control, not a hang).
func TestRESPBusyOnExhaustion(t *testing.T) {
	_, addr := newRESPTestServer(t, 1, 1, Config{Inline: true, LeaseWait: 1e6 /* 1ms */})
	holder, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if v, _ := holder.Do("SET", "k", "v"); string(v.Str) != "OK" {
		t.Fatalf("holder SET = %+v", v)
	}
	second, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	v, err := second.Do("GET", "k")
	if err != nil || !v.IsError() || !bytes.HasPrefix(v.Str, []byte("BUSY")) {
		t.Fatalf("starved GET = %+v (%v), want -BUSY", v, err)
	}
	if v, err := second.Do("PING"); err != nil || string(v.Str) != "PONG" {
		t.Fatalf("PING on starved conn = %+v (%v)", v, err)
	}
}
