package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/oamem"
)

func testCtx() *runCtx {
	return &runCtx{seed: 1, failed: map[string]uint64{}, vals: map[string]measured{}}
}

func TestTagsTellKeysApart(t *testing.T) {
	for k := uint64(1); k < 20000; k++ {
		if !tagOK(k, tagged(k, uint32(k*7))) {
			t.Fatalf("key %d rejects its own tagged value", k)
		}
		if tagOK(k, tagged(k+1, 0)) {
			t.Fatalf("key %d accepts key %d's value", k, k+1)
		}
		if respTag(k) == respTag(k+1) {
			t.Fatalf("keys %d and %d share a RESP tag", k, k+1)
		}
	}
	if v := respValue(123, 1295); len(v) != 7 {
		t.Fatalf("RESP value %q is not 7 bytes", v)
	}
}

func TestBinaryOracleCatchesAliasedReply(t *testing.T) {
	c := testCtx()
	st := newConnStats(0)
	checkBinReply(c, &st, 5, true, &server.Call{Status: server.StOK, Val: tagged(5, 9)})
	if c.wrongCount() != 0 || st.hits != 1 {
		t.Fatalf("a correct reply was judged wrong (%d) or not counted as a hit (%d)", c.wrongCount(), st.hits)
	}
	checkBinReply(c, &st, 5, true, &server.Call{Status: server.StOK, Val: tagged(6, 9)})
	checkBinReply(c, &st, 5, true, &server.Call{Status: server.StNotFound})
	if c.wrongCount() != 2 {
		t.Fatalf("another key's value and a lost key gave %d wrong answers, want 2", c.wrongCount())
	}
	checkBinReply(c, &st, 5, false, &server.Call{Status: server.StBusy})
	if st.fails["busy"] != 1 || c.wrongCount() != 2 {
		t.Fatalf("BUSY must count as a failure, not a wrong answer: fails=%v wrong=%d", st.fails, c.wrongCount())
	}
}

func TestRESPOracleCatchesAliasedReply(t *testing.T) {
	c := testCtx()
	st := newConnStats(0)
	get := respReq{idx: 10, get: true}
	checkRESPReply(c, &st, get, server.RESPValue{Type: '$', Str: []byte(respValue(10, 3))})
	checkRESPReply(c, &st, get, server.RESPValue{Type: '$', Nil: true})
	if c.wrongCount() != 0 || st.hits != 1 {
		t.Fatalf("a hit and a miss gave %d wrong answers and %d hits, want 0 and 1", c.wrongCount(), st.hits)
	}
	checkRESPReply(c, &st, get, server.RESPValue{Type: '$', Str: []byte(respValue(11, 3))})
	checkRESPReply(c, &st, respReq{idx: 10}, server.RESPValue{Type: ':', Int: 1})
	if c.wrongCount() != 2 {
		t.Fatalf("another key's value and a bad write reply gave %d wrong answers, want 2", c.wrongCount())
	}
	checkRESPReply(c, &st, get, server.RESPValue{Type: '-', Str: []byte("OOM capacity")})
	if st.fails["oom"] != 1 {
		t.Fatalf("-OOM must count as a failure: %v", st.fails)
	}
}

// TestChurnOracleCatchesCorruptedMap builds the state the workers would
// leave and corrupts it three ways; each must be reported.
func TestChurnOracleCatchesCorruptedMap(t *testing.T) {
	for _, corrupt := range []string{"none", "value", "extra", "lost"} {
		c := testCtx()
		sh, err := oamem.ShardedKV(oamem.WithServerShards(churnShards), oamem.WithThreads(churnWorkers), oamem.WithCapacity(4096))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := acquireAll(sh)
		if err != nil {
			t.Fatal(err)
		}
		ws := []*churnWorker{{w: 0, lo: 10, hi: 50}, {w: 1, lo: 3, hi: 40}}
		for _, wk := range ws {
			for seq := wk.lo; seq < wk.hi; seq++ {
				k := churnKey(sh, wk.w, seq)
				sess[sh.ShardIndex(k)].Put(k, tagged(k, uint32(seq)))
			}
		}
		switch k := churnKey(sh, 1, 20); corrupt {
		case "value":
			sess[sh.ShardIndex(k)].Put(k, tagged(k, 999))
		case "extra":
			k = churnKey(sh, 0, 5) // removed from the window already
			sess[sh.ShardIndex(k)].Put(k, tagged(k, 5))
		case "lost":
			sess[sh.ShardIndex(k)].Remove(k)
		}
		releaseAll(sess)
		if err := checkChurn(c, sh, ws); err != nil {
			t.Fatal(err)
		}
		sh.Close()
		if got := c.wrongCount() > 0; got != (corrupt != "none") {
			t.Errorf("corruption %q: oracle reported %d wrong answers", corrupt, c.wrongCount())
		}
	}
}

// TestWrongAnswerReportsNoMetrics: a run that records a wrong answer
// exits 1 and prints no result line.
func TestWrongAnswerReportsNoMetrics(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append([]workload(nil), saved...)
	workloads = append(workloads, workload{name: "corrupt", why: "test", run: func(c *runCtx) error {
		c.attempted = 1
		for _, d := range endToEnd {
			c.set(d.Name, 1, 1)
		}
		c.wrongf("key %d answered with another key's value", 7)
		return nil
	}})
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "corrupt", "--seconds", "1"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if strings.Contains(out.String(), `"metrics"`) || strings.Contains(out.String(), "perfbench: metric") {
		t.Fatalf("a wrong run reported metrics:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "another key's value") {
		t.Fatalf("the wrong answer was not shown: %q", errb.String())
	}
}
