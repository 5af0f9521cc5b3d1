package main

// metricDef declares one reported metric. BENCHMARK.json at the root of
// the repository lists the same names, units and directions (a test
// keeps the two in step); the layer and the prediction live here, next
// to the code that measures them, and every record prints them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Layer names the module a per-layer metric observes.
	Layer string
	// Moves says which end-to-end metric the per-layer metric should
	// move, on which workload, and where it is predicted flat.
	Moves string
}

// endToEnd are what a library user or a server client sees. Every
// workload reports every one of them, from an untraced run.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "hit_frac", Unit: "fraction", Better: "higher", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesCore   = "vs_norecl.* and ops_per_s on sets_read; ops_per_s, p90_us on kv_churn; flat on bin_zipf"
	movesSets   = "ops_per_s and vs_norecl.* on sets_read"
	movesKV     = "ops_per_s and p90_us on kv_churn"
	movesServer = "ops_per_s, p90_us on bin_zipf; flat on resp_cache (RESP runs inline)"
	movesCache  = "hit_frac, ops_per_s, p90_us on resp_cache"
	movesClient = "ops_per_s, p50_us, p90_us on bin_zipf and resp_cache"
)

// perLayer come from the traced run. A workload that does not reach a
// layer reports 0 for its metrics and says so in its record.
var perLayer = []metricDef{
	{Name: "core.restarts_per_kop", Unit: "1/kop", Better: "lower", Layer: "core", Moves: movesCore},
	{Name: "core.checks_per_op", Unit: "1/op", Better: "lower", Layer: "core", Moves: movesCore},
	{Name: "core.drain_passes_per_s", Unit: "1/s", Better: "lower", Layer: "core", Moves: movesCore},
	{Name: "core.hp_publishes_per_op", Unit: "1/op", Better: "lower", Layer: "core", Moves: movesCore},
	{Name: "core.phases_per_s", Unit: "1/s", Better: "lower", Layer: "core", Moves: movesCore},
	{Name: "core.recycled_per_retire", Unit: "ratio", Better: "higher", Layer: "core", Moves: movesCore},
	{Name: "core.unreclaimed_peak", Unit: "slots", Better: "lower", Layer: "core", Moves: "bounded garbage on kv_churn and sets_read (the paper's robustness property)"},
	{Name: "vs_norecl.list128", Unit: "ratio", Better: "higher", Layer: "core", Moves: "the paper's Figure 1 quantity on sets_read"},
	{Name: "vs_norecl.skiplist", Unit: "ratio", Better: "higher", Layer: "core", Moves: "the paper's Figure 1 quantity on sets_read"},
	{Name: "ops_per_s.list128", Unit: "ops/s", Better: "higher", Layer: "list", Moves: movesSets},
	{Name: "ops_per_s.skiplist", Unit: "ops/s", Better: "higher", Layer: "skiplist", Moves: movesSets},
	{Name: "norecl.ops_per_s.list128", Unit: "ops/s", Better: "higher", Layer: "list", Moves: "reference for vs_norecl.list128 on sets_read"},
	{Name: "norecl.ops_per_s.skiplist", Unit: "ops/s", Better: "higher", Layer: "skiplist", Moves: "reference for vs_norecl.skiplist on sets_read"},
	{Name: "list.contains_ns", Unit: "ns", Better: "lower", Layer: "list", Moves: movesSets},
	{Name: "list.update_ns", Unit: "ns", Better: "lower", Layer: "list", Moves: movesSets},
	{Name: "skiplist.contains_ns", Unit: "ns", Better: "lower", Layer: "skiplist", Moves: movesSets},
	{Name: "skiplist.update_ns", Unit: "ns", Better: "lower", Layer: "skiplist", Moves: movesSets},
	{Name: "kvmap.get_ns", Unit: "ns", Better: "lower", Layer: "kvmap", Moves: movesKV},
	{Name: "kvmap.get_p99_ns", Unit: "ns", Better: "lower", Layer: "kvmap", Moves: movesKV},
	{Name: "kvmap.put_ns", Unit: "ns", Better: "lower", Layer: "kvmap", Moves: movesKV},
	{Name: "kvmap.put_p99_ns", Unit: "ns", Better: "lower", Layer: "kvmap", Moves: movesKV},
	{Name: "kvmap.remove_ns", Unit: "ns", Better: "lower", Layer: "kvmap", Moves: movesKV},
	{Name: "kvmap.remove_p99_ns", Unit: "ns", Better: "lower", Layer: "kvmap", Moves: movesKV},
	{Name: "server.batch_avg", Unit: "ops/batch", Better: "higher", Layer: "server", Moves: movesServer},
	{Name: "server.batches_per_s", Unit: "1/s", Better: "lower", Layer: "server", Moves: movesServer},
	{Name: "server.ring_full", Unit: "count", Better: "lower", Layer: "server", Moves: movesServer},
	{Name: "server.ring_depth_peak", Unit: "requests", Better: "lower", Layer: "server", Moves: movesServer},
	{Name: "server.busy", Unit: "count", Better: "lower", Layer: "server", Moves: movesServer},
	{Name: "server.get_p99_ns", Unit: "ns", Better: "lower", Layer: "server", Moves: movesServer + " (log2 bound, coarse)"},
	{Name: "ttlcache.evicted_per_set", Unit: "ratio", Better: "lower", Layer: "ttlcache", Moves: movesCache},
	{Name: "ttlcache.expired_per_s", Unit: "1/s", Better: "lower", Layer: "ttlcache", Moves: movesCache},
	{Name: "ttlcache.reliefs", Unit: "count", Better: "lower", Layer: "ttlcache", Moves: movesCache},
	{Name: "open.p50_us", Unit: "us", Better: "lower", Layer: "server", Moves: "the latency a client at a fixed 40,000 req/s sees, timed from due time, on bin_zipf and resp_cache"},
	{Name: "open.p99_us", Unit: "us", Better: "lower", Layer: "server", Moves: "the latency a client at a fixed 40,000 req/s sees, timed from due time, on bin_zipf and resp_cache"},
	{Name: "client.send_ns", Unit: "ns", Better: "lower", Layer: "client", Moves: movesClient},
	{Name: "client.wait_ns", Unit: "ns", Better: "lower", Layer: "client", Moves: movesClient},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower", Layer: "generator", Moves: "open.p50_us, open.p99_us on bin_zipf and resp_cache (a late generator under-loads the server)"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower", Layer: "benchmark", Moves: "none: untraced ÷ traced ops_per_s, the instrument's own cost, on every workload"},
	{Name: "fail_frac", Unit: "fraction", Better: "lower", Layer: "benchmark", Moves: "failed ÷ attempted ops of the traced run, on every workload"},
}
