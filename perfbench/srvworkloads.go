package main

import (
	"fmt"
	"net"

	"repro/internal/server"
)

// bin_zipf sizes. The open-loop rate is about half the closed-loop
// throughput on a 2-vCPU host, so the server is loaded but not saturated.
const (
	binKeys     = 100000
	binOpenRate = 20000
)

// resp_cache sizes: the LRU watermark holds a small share of the zipf
// keyspace, so GETs miss and SETs evict.
const (
	respKeys      = 200000
	respWatermark = 16384
)

func dialTCP(addr string) (net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	return nc, nil
}

func runBinZipf(c *runCtx) error {
	c.sizes = map[string]any{
		"keys": binKeys, "theta": 0.99, "get_pct": binGetPct, "put_pct": 100 - binGetPct,
		"conns": srvConns, "batch": srvBatch, "open_rate": srvOpenRate, "open_window": srvOpenWin,
		"setups": srvSetups, "rate_windows": srvSegments, "latency_window_s": srvLatWindow.Seconds(), "server_flags": "shipped defaults",
	}
	return runServerWorkload(c, srvSpec{
		dial: func(c *runCtx, p *serverProc, id uint64) (loadConn, error) {
			return dialBin(c, p.addr, binKeys, id)
		},
		prefill: func(c *runCtx, p *serverProc, st *connStats) error {
			return binScan(c, p, st, true)
		},
		scan: func(c *runCtx, p *serverProc, st *connStats) error {
			return binScan(c, p, st, false)
		},
	})
}

// binScan walks the whole keyspace over one connection: the prefill
// PUTs every key's first tagged value (each must be a fresh insert), the
// final scan GETs every key (each must hold a value with its tag).
func binScan(c *runCtx, p *serverProc, st *connStats, fill bool) error {
	cl, err := server.Dial(p.addr, 2*scanBatch)
	if err != nil {
		return fmt.Errorf("dialing %s: %w", p.addr, err)
	}
	defer cl.Close()
	calls := make([]*server.Call, 0, scanBatch)
	for lo := uint64(1); lo <= binKeys; lo += scanBatch {
		calls = calls[:0]
		hi := min(lo+scanBatch, binKeys+1)
		for k := lo; k < hi; k++ {
			var call *server.Call
			if fill {
				call, err = cl.Put(k, tagged(k, 0))
			} else {
				call, err = cl.Get(k)
			}
			if err != nil {
				return err
			}
			st.sent++
			calls = append(calls, call)
		}
		for i, call := range calls {
			if err := call.Wait(); err != nil {
				return err
			}
			st.recv++
			k := lo + uint64(i)
			switch {
			case fill && call.Status == server.StNotFound:
			case fill:
				c.wrongf("binary prefill: PUT of fresh key %d answered status %d", k, call.Status)
			default:
				checkBinReply(c, st, k, true, call)
			}
		}
	}
	return nil
}

func runRESPCache(c *runCtx) error {
	c.sizes = map[string]any{
		"keys": respKeys, "theta": 0.99, "lru_watermark": respWatermark,
		"get_pct": respGetPct, "set_pct": respSetPct, "setex_pct": 100 - respGetPct - respSetPct, "setex_ttl_s": respTTLs,
		"conns": srvConns, "batch": srvBatch, "open_rate": srvOpenRate, "open_window": srvOpenWin,
		"setups": srvSetups, "rate_windows": srvSegments, "latency_window_s": srvLatWindow.Seconds(), "server_flags": fmt.Sprintf("-cache -max-entries %d", respWatermark),
	}
	return runServerWorkload(c, srvSpec{
		flags: []string{"-cache", "-max-entries", fmt.Sprint(respWatermark)},
		resp:  true,
		dial: func(c *runCtx, p *serverProc, id uint64) (loadConn, error) {
			return dialRESP(c, p.respAddr, respKeys, id)
		},
		prefill: func(c *runCtx, p *serverProc, st *connStats) error {
			return respScan(c, p, st, true)
		},
		scan: func(c *runCtx, p *serverProc, st *connStats) error {
			return respScan(c, p, st, false)
		},
	})
}

// respScan walks the keyspace over one connection: the prefill SETs the
// respWatermark hottest keys, coldest of them first, so the cache starts
// full of what the zipf mix asks for most; the final scan GETs every
// key and checks each hit's tag.
func respScan(c *runCtx, p *serverProc, st *connStats, fill bool) error {
	r, err := dialRESP(c, p.respAddr, respKeys, 0)
	if err != nil {
		return err
	}
	defer r.close()
	reqs := make([]respReq, 0, scanBatch)
	n := uint64(respKeys)
	if fill {
		n = respWatermark
	}
	for lo := uint64(0); lo < n; lo += scanBatch {
		reqs = reqs[:0]
		for i := lo; i < min(lo+scanBatch, n); i++ {
			var req respReq
			if fill {
				idx := r.keys.index(n - 1 - i)
				req, err = r.send(respReq{idx: idx}, "SET", respKey(idx), respValue(idx, 0))
			} else {
				req, err = r.send(respReq{idx: i, get: true}, "GET", respKey(i))
			}
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		if err := r.snd.Flush(); err != nil {
			return err
		}
		for _, req := range reqs {
			if err := r.await(req); err != nil {
				return err
			}
		}
	}
	st.add(&r.st)
	return nil
}
