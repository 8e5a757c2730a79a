# Local invocations matching the CI jobs in .github/workflows/ci.yml —
# `make lint test` before pushing reproduces what CI will run.

.PHONY: all build test lint fmt doc paper pub-census no-sleep-poll test-stress perf perf-pairs profile sim-counters tcp-counters scale churn-scale sim scenarios tcp-demo tcp-demo-flap clean

all: lint build test doc

build:
	cargo build --release --workspace --all-targets

test:
	cargo test -q --workspace

lint:
	cargo fmt --all -- --check
	cargo clippy --workspace --all-targets -- -D warnings

fmt:
	cargo fmt --all

# The API docs must stay warning-free (CI denies rustdoc warnings).
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The paper's evaluation on the fleet simulator - Table 2, the §5.5 batching
# sweep, Figure 4 and the §5.5 device-vs-server claims - written to
# docs/REPRODUCTION.md. Byte-deterministic: CI regenerates it and diffs it
# like a golden trace, so an intended change ships the regenerated file.
paper:
	cargo run --release --bin paper

# Who calls each `pub` item of crates/*/src, outside its own file and its
# crate's unit tests (scripts/pub-census.sh, grep/awk only): one sorted row
# per item in docs/PUB_CENSUS.txt, byte-deterministic. An item without a
# caller is deleted unless the census keeps it (the paper's modules and the
# Table 2 applications). CI regenerates the file
# and diffs it, so a new public item ships together with its callers.
pub-census:
	sh scripts/pub-census.sh docs/PUB_CENSUS.txt

# No sleep outside tests: code waits on a waker, a condvar or a deadline, not
# in a sleep-and-poll loop. Scans crates/*/src above each file's
# `#[cfg(test)] mod tests` and fails on any `sleep(` but the two that model
# time on purpose: `run_redial`'s backoff between redials
# (core/src/transport/tcp/session.rs) and the arxiv workload's modelled
# reading time (workloads/src/arxiv.rs). Same step CI runs.
no-sleep-poll:
	@awk 'FNR == 1 { done = 0; prev = "" } \
		prev ~ /^#\[cfg\(test\)\]/ && /^mod tests/ { done = 1 } \
		{ prev = $$0 } \
		done || !/sleep\(/ { next } \
		FILENAME ~ /tcp\/session\.rs$$/ && /thread::sleep\(delay\)/ { next } \
		FILENAME ~ /arxiv\.rs$$/ && /sleep\(self\.reading_time\)/ { next } \
		{ print FILENAME ":" FNR ": " $$0; bad++ } \
		END { if (bad) { print bad " sleep(s) outside tests"; exit 1 } }' \
		$$(find crates/*/src -name '*.rs' | sort)

# Tier-1 under contention: `cargo test -q $(TEST)` ROUNDS times, each round
# pinned to CPU 0 beside a busy loop pinned to the same CPU
# (scripts/test-stress.sh). Prints the failures of each round and fails if
# any round did. Too slow for CI.
# `make test-stress TEST="--test sharded_dispatch" ROUNDS=40`.
ROUNDS ?= 20
TEST ?=
test-stress:
	sh scripts/test-stress.sh $(ROUNDS) $(TEST)

# The end-to-end benchmark, exactly as BENCHMARK.json declares it: every
# workload in a fresh process, results in target/perf/run-<rev>-seed<S>.json
# (≈ 2 min; `make perf PERF_ARGS=--trace` adds the per-layer runs). See
# crates/bench/perf/README.md.
perf:
	cargo run --release --offline --quiet --manifest-path crates/bench/perf/Cargo.toml -- all $(PERF_ARGS)

# The comparison a performance claim rests on: the harness built at BASE and
# from this checkout, one workload in alternating pairs (fresh process each,
# pair i on seed i, first side flipping), then medians, quartiles and pair
# wins per end-to-end metric. `make perf-pairs BASE=HEAD~1 WORKLOAD=tcp_bulk`.
BASE ?= HEAD
WORKLOAD ?= tcp_small
PAIRS ?= 10
SECONDS ?= 20
perf-pairs:
	sh scripts/perf-pairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SECONDS)

# Where the CPU time of one workload goes: an untraced benchmark run under a
# preloaded SIGPROF sampler (scripts/prof/, system `cc`, `nm` and `python3`
# only), printed as per-thread flat / total / caller tables.
# `make profile WORKLOAD=sim_churn SECONDS=20`.
profile:
	sh scripts/prof/profile.sh $(WORKLOAD) $(SECONDS)

# The deterministic counters of a traced two-second `sim_churn` run against
# scripts/sim_churn.expect: exact for the counts that repeat, an upper bound
# for allocations per task. Same step CI runs; "behaviour-preserving", checked.
sim-counters:
	sh scripts/sim-counters.sh

# The byte path's counterpart: a traced two-second `tcp_bulk` run must
# allocate at most 45 000 B per task (a send borrows its payload; a copy per
# send read 66 000) and fail no task. Same step CI runs.
tcp-counters:
	sh scripts/tcp-counters.sh

# The 10k-volunteer reactor demonstration: one master, a fixed thread pool,
# results seq-checked. CI runs the same example at 1k (its default).
scale:
	SCALE_VOLUNTEERS=10000 cargo run --release --example scale_smoke

# What one volunteer costs to bring in and see out must not grow with the
# fleet: set-up cycles (one task per volunteer) at 1 000 and 4 000
# volunteers, interleaved in one process, medians of nine; fails if the
# per-volunteer cost at 4 000 is over 1.6 x the cost at 1 000 (1.84 x when
# every exit scanned the reactor's sets, 1.3 x with ordered maps). Same
# step CI runs.
churn-scale:
	cargo run --release --example churn_scale

# The deterministic fleet simulator at 10k volunteers: the same reactor
# stack on a virtual clock, run twice from one seed through sim::oracle::run
# (canonical event traces compared byte for byte, then the contract
# checked), under a committed poll budget. Same target CI runs.
sim:
	cargo run --release --example sim_determinism

# The golden-trace regression suite: every scenarios/*.toml script runs
# twice on the virtual clock, is byte-compared against itself, held to the
# sim::oracle contract and its [expect] table, and diffed against the
# committed trace in scenarios/golden/. After an intentional behaviour
# change, re-bless with `make scenarios BLESS=1` and commit the golden diff
# for review.
scenarios:
	BLESS=$(BLESS) cargo run --release --example scenario_run

# The fleet across OS processes: one master listening on localhost TCP, a
# 64-volunteer fleet split over one process that crashes abruptly mid-run
# (exit 2 — expected) and one that survives. The master must detect the
# crash through the socket, re-lend, and still produce complete in-order
# output within the budget — while TCP_THREAD_CENSUS=1 asserts its whole
# transport side runs on poller_threads + 1 OS threads, not 2 per volunteer.
tcp-demo:
	cargo build --release --example tcp_master --example tcp_volunteer
	rm -f target/tcp-demo.addr
	PANDO_TCP_ADDR_FILE=target/tcp-demo.addr TCP_TASKS=2000 TCP_BUDGET_SECS=120 \
		TCP_MIN_VOLUNTEERS=64 TCP_THREAD_CENSUS=1 \
		target/release/examples/tcp_master & master=$$!; \
	PANDO_TCP_ADDR_FILE=target/tcp-demo.addr TCP_WORKERS=16 \
		TCP_NAME_PREFIX=doomed TCP_CRASH_AFTER=200 \
		target/release/examples/tcp_volunteer & crasher=$$!; \
	PANDO_TCP_ADDR_FILE=target/tcp-demo.addr TCP_WORKERS=48 \
		TCP_NAME_PREFIX=steady \
		target/release/examples/tcp_volunteer & steady=$$!; \
	wait $$master; status=$$?; \
	wait $$crasher $$steady 2>/dev/null; \
	rm -f target/tcp-demo.addr; \
	exit $$status

# The flapping-volunteer variant: one master and a single 32-volunteer
# process that joins through resumable sessions and abruptly severs every
# socket mid-run (TCP_DROP_AFTER), then redials with backoff and resumes
# under its old session tokens. The master must ride the flap out inside
# its reconnect_grace window: all 32 sessions resumed (TCP_MIN_RESUMED),
# zero crash re-lends (TCP_EXPECT_CRASHED=0), output complete and in order.
tcp-demo-flap:
	cargo build --release --example tcp_master --example tcp_volunteer
	rm -f target/tcp-demo-flap.addr
	PANDO_TCP_ADDR_FILE=target/tcp-demo-flap.addr TCP_TASKS=2000 TCP_BUDGET_SECS=120 \
		TCP_MIN_VOLUNTEERS=32 TCP_THREAD_CENSUS=1 \
		TCP_EXPECT_CRASHED=0 TCP_MIN_RESUMED=32 \
		target/release/examples/tcp_master & master=$$!; \
	PANDO_TCP_ADDR_FILE=target/tcp-demo-flap.addr TCP_WORKERS=32 \
		TCP_NAME_PREFIX=flappy TCP_DROP_AFTER=300 \
		target/release/examples/tcp_volunteer & flappy=$$!; \
	wait $$master; status=$$?; \
	wait $$flappy 2>/dev/null; \
	rm -f target/tcp-demo-flap.addr; \
	exit $$status

clean:
	cargo clean
