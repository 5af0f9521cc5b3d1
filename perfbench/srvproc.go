package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/smr"
	"repro/internal/ttlcache"
)

// serverProc is one oaserver child process listening on loopback.
type serverProc struct {
	cmd      *exec.Cmd
	addr     string // binary protocol
	respAddr string // RESP, when started with -resp

	stdout bytes.Buffer // the final STATS document, written at drain
	mu     sync.Mutex
	tail   []string // last stderr lines, for diagnostics
	exited chan struct{}
	err    error // from Wait, valid once exited is closed
}

// startServer spawns the binary with the given flags plus loopback
// listeners on free ports and returns once it is listening.
func startServer(path string, resp bool, flags ...string) (*serverProc, error) {
	if path == "" {
		return nil, errors.New("no oaserver binary given (-server)")
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	if resp {
		args = append(args, "-resp", "127.0.0.1:0")
	}
	p := &serverProc{cmd: exec.Command(path, args...), exited: make(chan struct{})}
	p.cmd.Stdout = &p.stdout
	// The server dies with the benchmark if the benchmark is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting oaserver: %w", err)
	}
	ready := make(chan struct{})
	go func() {
		defer func() {
			p.err = p.cmd.Wait() // after the last read from the pipe
			close(p.exited)
		}()
		sc := bufio.NewScanner(errPipe)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if f := strings.Fields(line); len(f) >= 4 && f[1] == "serving" && f[2] == "on" {
				p.addr = f[3]
			} else if len(f) >= 4 && f[1] == "RESP" && f[2] == "on" {
				p.respAddr = f[3]
			}
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			up := p.addr != "" && (!resp || p.respAddr != "")
			p.mu.Unlock()
			if up && !signalled {
				signalled = true
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("oaserver exited before listening: %v; stderr: %s", p.err, p.stderrTail())
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("oaserver did not listen within 30s; stderr: %s", p.stderrTail())
	}
}

func (p *serverProc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// drain sends SIGTERM, waits for the graceful drain and returns the
// final STATS document the server prints on its way out.
func (p *serverProc) drain() (statsDoc, error) {
	var doc statsDoc
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return doc, fmt.Errorf("signalling oaserver: %w", err)
	}
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		p.kill()
		return doc, fmt.Errorf("oaserver did not drain within 30s; stderr: %s", p.stderrTail())
	}
	if p.err != nil {
		return doc, fmt.Errorf("oaserver: %v; stderr: %s", p.err, p.stderrTail())
	}
	if err := json.Unmarshal(bytes.TrimSpace(p.stdout.Bytes()), &doc); err != nil {
		return doc, fmt.Errorf("parsing the final stats: %w", err)
	}
	return doc, nil
}

// kill stops the process without a drain and waits for it to exit.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // it may have exited already
	<-p.exited
}

// statsDoc is the STATS reply, decoded into the server's own types.
type statsDoc struct {
	Server  server.Snapshot              `json:"server"`
	Latency map[string]server.CmdLatency `json:"latency"`
	Cache   *ttlcache.Stats              `json:"cache"`
	Maps    []smr.Stats                  `json:"map_shards"`
}

func fetchStats(cl *server.Client) (statsDoc, error) {
	var doc statsDoc
	b, err := cl.Stats()
	if err != nil {
		return doc, fmt.Errorf("STATS: %w", err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("parsing STATS: %w", err)
	}
	return doc, nil
}

// mapTotals sums the per-shard reclamation stats.
func (d statsDoc) mapTotals() smr.Stats {
	var s smr.Stats
	for _, m := range d.Maps {
		s.Add(m)
	}
	return s
}
