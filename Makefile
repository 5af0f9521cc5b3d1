# Convenience targets for the optimistic-access reproduction.

GO ?= go

.PHONY: all ci build test race race-full cover fuzz bench benchjson benchdiff benchdiff-smoke experiments stress obs-smoke trace-smoke serve-smoke resp-smoke shard-smoke slo-smoke batch-smoke health-smoke cache-smoke clean

all: build test

# Everything a merge gate needs: compile+vet, tests, the race detector
# over the reclamation core, the perf-diff smoke, the observability and
# event-trace endpoint smokes, the end-to-end serving smokes (binary
# protocol, RESP interop, shard scaling, batched-vs-inline execution),
# the SLO gate driven off the server's own latency histograms, the
# health-engine gate that provokes each degraded state on purpose, and
# the TTL/LRU cache gate (expiry, sweeping, eviction-not-OOM).
ci: build test race benchdiff-smoke obs-smoke trace-smoke serve-smoke resp-smoke shard-smoke slo-smoke batch-smoke health-smoke cache-smoke

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race detector focused where the lock-free interleavings live: the
# reclamation core, the sharded block pools, the MPMC request rings, the
# generic OA kit, the kv map (home of the aux-word CAS the TTL/LRU cache
# builds on) and the cache itself, the server (its outbox hands response
# buffers across goroutines), and the telemetry it samples concurrently
# (flight recorder, trace rings, obs registry).
# -short keeps it inside a merge-gate budget; race-full sweeps everything.
race:
	$(GO) test -race -short ./internal/core/... ./internal/pools/... ./internal/mpmc/... ./internal/oakit/... ./internal/kvmap/... ./internal/ttlcache/... ./internal/server/... ./internal/flight/... ./internal/trace/... ./internal/obs/...

race-full:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Short fuzz pass over every fuzz target (extend -fuzztime for real runs).
fuzz:
	$(GO) test -fuzz FuzzOAListVsModel -fuzztime 30s ./internal/list
	$(GO) test -fuzz FuzzOASkipListVsModel -fuzztime 30s ./internal/skiplist
	$(GO) test -fuzz FuzzMapVsModel -fuzztime 30s ./internal/kvmap
	$(GO) test -fuzz FuzzOAQueueVsModel -fuzztime 30s ./internal/queue
	$(GO) test -fuzz FuzzFrameReader -fuzztime 30s ./internal/server
	$(GO) test -fuzz FuzzRESPReader -fuzztime 30s ./internal/server

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable Figure 1 snapshot for cross-commit perf tracking. The
# note pins the baseline this file is diffed against (BENCH_8.json —
# see the notes inside both). Snapshots on this host are recorded as
# the per-cell median of several alternating passes of this target
# because the hypervisor-steal noise makes any single pass a coin flip
# — see the notes field inside them. From BENCH_9 on, snapshots run
# with the in-process flight recorder sampling at its default 250ms
# interval (oabench -flight, on by default), so the recorder's
# steady-state cost is inside the gated numbers, and carry an env
# fingerprint benchdiff checks before comparing.
BASELINE_NOTE = baseline: BENCH_9.json (re-paired side of the same \
5-alternating-pass per-cell-median procedure on this 1-vCPU host); \
this PR rebuilds internal/list on the generic OA kit (internal/oakit) \
and adds an immediate best-effort unlink after kvmap's logical \
deletes -- the gated structures' algorithms are unchanged, so every \
cell must stay within noise of the hand-written-list baseline; diff \
with make benchdiff

benchjson:
	$(GO) run ./cmd/oabench -experiment fig1 -duration 200ms -reps 6 \
		-json BENCH_10.json -notes "$(BASELINE_NOTE)"

# Per-cell throughput ratio gate between two oabench snapshots:
#   make benchdiff OLD=BENCH_3.json NEW=BENCH_4.json [THRESHOLD=0.85]
# Exits nonzero when any joined cell regresses below THRESHOLD; the p99
# latency comparison it appends is informational and never gates.
OLD ?= BENCH_9.json
NEW ?= BENCH_10.json
THRESHOLD ?= 0.85

benchdiff:
	$(GO) run ./cmd/benchdiff -old $(OLD) -new $(NEW) -threshold $(THRESHOLD)

# Mechanics-only smoke for the gate: a snapshot self-diff joins every cell
# at ratio 1.0, so it exercises the parser, join and gate without making
# CI depend on benchmark noise.
benchdiff-smoke:
	$(GO) run ./cmd/benchdiff -old BENCH_2.json -new BENCH_2.json -threshold 0.999 >/dev/null

# Full figure regeneration (paper settings: -duration 1s -reps 20).
experiments:
	$(GO) run ./cmd/oabench -experiment all -duration 300ms -reps 3
	$(GO) run ./cmd/oabench -experiment ext -duration 300ms -reps 3

stress:
	$(GO) run ./cmd/oastress -all -duration 5s

# End-to-end probe of the observability endpoint: starts oastress with
# -http/-snapshot, validates /metrics, /stats.json and /trace, then checks
# the SIGINT contract (verification + final stats dump + exit 130).
obs-smoke:
	$(GO) run ./cmd/obsprobe

# End-to-end probe of the event-trace dump: a short traced soak writes a
# Chrome trace_event file, tracecheck validates its shape and requires the
# phase-transition and restart events a healthy OA run produces.
TRACE_TMP := $(shell mktemp -u /tmp/oastress_trace.XXXXXX.json)
trace-smoke:
	$(GO) run ./cmd/oastress -structure Hash -scheme OA -threads 4 \
		-keys 256 -duration 2s -trace $(TRACE_TMP)
	$(GO) run ./cmd/tracecheck -require phase,restart,drain,refill $(TRACE_TMP)
	@rm -f $(TRACE_TMP)

# End-to-end probe of the network server: builds oaserver+oaload, bursts
# 64 pipelined connections at the default batched executors, asserts the
# throughput floor and the one-lease-per-shard economy, then SIGTERMs
# mid-load and checks the drain drops zero in-flight requests.
serve-smoke:
	$(GO) run ./cmd/servesmoke

# RESP2 interop probe: serves the -resp listener and drives it with the
# in-repo RESP client (round-trips, CAS extension, deep pipelining, typed
# errors, clean drain).
resp-smoke:
	$(GO) run ./cmd/respsmoke

# Shard scaling gate: measures the ops/s-vs-shards curve at 1/2/4 shards
# under zipfian load; on a >= 4-core runner 4 shards must deliver >= 1.8x
# the 1-shard rate (mechanics-only on smaller hosts).
shard-smoke:
	$(GO) run ./cmd/shardsmoke

# Batched-execution gate: measures inline-vs-batched throughput at
# 1/2/4 shards under 64 pipelined connections; on a >= 4-core runner
# batched must deliver >= 1.15x inline at 4 shards (mechanics-only on
# smaller hosts: ledger balance, exec-mode fidelity, lease economy).
batch-smoke:
	$(GO) run ./cmd/batchsmoke

# SLO gate: drives oaload against oaserver and asserts the objectives
# (throughput floor, per-command server-side p99, BUSY budget) from the
# server's OWN latency histograms, cross-checked against the client's
# -json report. Mechanics always; SLOs enforced when GOMAXPROCS >= 4.
slo-smoke:
	$(GO) run ./cmd/slocheck

# TTL/LRU cache gate: serves oaserver with -cache and drives the RESP
# listener through SETEX/EXPIRE/TTL, lazy expiry past a real deadline,
# background sweeping of untouched keys, and 5000 SETs past the LRU
# watermark that must all answer +OK (eviction instead of OOM), ending
# in a clean drain whose final stats carry the cache ledger.
cache-smoke:
	$(GO) run ./cmd/cachesmoke

# Health-engine gate: an in-process server with a tiny ring and a
# fast-ticking flight recorder is driven into ring saturation (stalled
# executor) and backlog growth (PUT+DEL churn); both rules must fire,
# surface on /healthz + INFO health + EvHealth, and clear. Endpoint and
# rule-catalog mechanics assert on any host; the transition assertions
# are strict when GOMAXPROCS >= 4 (and pass on 1 vCPU in practice —
# both provocations are deterministic, not scheduler races).
health-smoke:
	$(GO) run ./cmd/healthsmoke

clean:
	$(GO) clean ./...
