// Command perfbench is the repository's benchmark. It runs one of four
// workloads, checks every answer the program gives, and prints each
// metric by name with its unit and direction, ending with one JSON line:
//
//	bash perfbench/run.sh --workload sets_read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it times its own calls into each layer's public
// functions, reads each layer's public counters, and reports the
// per-layer metrics. A run that sees any wrong answer prints what was
// wrong to standard error and exits 1 without reporting metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*runCtx) error
}

var workloads = []workload{
	{"sets_read", "Figure 1 at 2 threads: 80% reads on LinkedList128 and SkipList under OA, interleaved with NoRecl rounds; the read barrier and traversal", runSetsRead},
	{"kv_churn", "sharded kv map with a sliding window of fresh puts and oldest removes: half the ops allocate or retire, so reclamation phases run hundreds of times a second", runKVChurn},
	{"bin_zipf", "binary protocol on the batched executors, zipf 0.99 over a prefilled keyspace that fits: codec, MPMC ring, batching, outbox; no reclamation", runBinZipf},
	{"resp_cache", "RESP inline path with -cache and an LRU watermark below a zipf keyspace; SETEX TTLs expire mid-run: the ttlcache expiry and eviction layer", runRESPCache},
}

// runCtx carries one run's settings and collects what it measured.
type runCtx struct {
	seed   uint64
	dur    time.Duration
	trace  bool
	server string // path of the oaserver binary

	sizes     any // the workload's concrete sizes, for the record
	attempted uint64
	failed    map[string]uint64 // failure class → count

	vals map[string]measured

	mu        sync.Mutex
	wrongN    int
	wrongMsgs []string
}

type measured struct {
	v       float64
	samples uint64
	note    string
}

// set records a metric with the number of samples behind it.
func (c *runCtx) set(name string, v float64, samples uint64) {
	c.vals[name] = measured{v: v, samples: samples}
}

// setNote records a metric with a note on how it was derived.
func (c *runCtx) setNote(name string, v float64, samples uint64, note string) {
	c.vals[name] = measured{v: v, samples: samples, note: note}
}

// fail counts n failed operations of one class.
func (c *runCtx) fail(class string, n uint64) {
	if n > 0 {
		c.failed[class] += n
	}
}

// wrongf records a wrong answer. Safe for concurrent use.
func (c *runCtx) wrongf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrongN++
	if len(c.wrongMsgs) < 20 {
		c.wrongMsgs = append(c.wrongMsgs, fmt.Sprintf(format, args...))
	}
}

func (c *runCtx) wrongCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrongN
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		name    = fset.String("workload", "", "workload to run: sets_read, kv_churn, bin_zipf or resp_cache")
		seed    = fset.Uint64("seed", 1, "seed for every generated input")
		seconds = fset.Int("seconds", 10, "measured seconds")
		traceOn = fset.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
		srvPath = fset.String("server", "", "path of the oaserver binary (server workloads)")
		root    = fset.String("root", ".", "root of the checkout, hashed into the record")
		gitSHA  = fset.String("git-sha", "none", "git commit of the checkout, for the record")
	)
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	c := &runCtx{
		seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *traceOn == 1,
		server: *srvPath, failed: map[string]uint64{}, vals: map[string]measured{},
	}
	if err := w.run(c); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	if n := c.wrongCount(); n > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong answers; no metrics reported\n", w.name, n)
		for _, m := range c.wrongMsgs {
			fmt.Fprintln(stderr, "  wrong:", m)
		}
		return 1
	}

	var failed uint64
	for _, n := range c.failed {
		failed += n
	}
	if c.attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: %s: no operations attempted\n", w.name)
		return 2
	}
	if c.trace {
		c.set("fail_frac", float64(failed)/float64(c.attempted), c.attempted)
	}

	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	meta := map[string]any{
		"workload": w.name, "why": w.why, "sizes": c.sizes,
		"seed": *seed, "seconds": *seconds, "trace": *traceOn,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "kernel": kernel(), "git_sha": *gitSHA,
		"src_sha256": sourceHash(*root), "failures": c.failed,
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding the record:", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench: record %s\n", mb)

	out := map[string]any{}
	for _, d := range defs {
		m, ok := c.vals[d.Name]
		switch {
		case !ok && c.trace:
			m.note = "n/a: this workload does not reach the layer"
		case !ok || math.IsNaN(m.v) || math.IsInf(m.v, 0):
			fmt.Fprintf(stderr, "perfbench: %s: end-to-end metric %s was not measured\n", w.name, d.Name)
			return 2
		}
		line := fmt.Sprintf("perfbench: metric %-28s %14.6g %-10s (%s is better, n=%d)", d.Name, m.v, d.Unit, d.Better, m.samples)
		if d.Layer != "" {
			line += fmt.Sprintf(" layer=%s moves: %s", d.Layer, d.Moves)
		}
		if m.note != "" {
			line += " [" + m.note + "]"
		}
		fmt.Fprintln(stdout, line)
		out[d.Name] = map[string]any{"value": m.v, "unit": d.Unit}
	}
	res, err := json.Marshal(map[string]any{
		"correct": true, "attempted": c.attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding the result:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", res)
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(b))
}

// sourceHash identifies the measured tree when it is not a git checkout:
// a SHA-256 over the paths and contents of its Go sources and go.mod
// files, in path order.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
