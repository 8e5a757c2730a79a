#!/bin/sh
# tcp-counters.sh [alloc-bytes-bound=45000]
#
# The byte path's counter gate (ROADMAP aim 1: deterministic counters are
# what CI gates on): one traced two-second `tcp_bulk` run of the benchmark
# harness, seed 1. What the process allocates per task is the workload's
# figure, not the host's - a 32 KiB payload and its framing cross the send
# path as borrowed pieces, so a task costs its own payload plus the
# receiver's frame buffer: 34 KB, where a contiguous copy per send read
# 66 KB. The bound sits between the two; and no task may fail.
# `make tcp-counters`.
set -eu

cd "$(dirname "$0")/.."
bound=${1:-45000}
out=$(cargo run --release --offline --quiet --manifest-path crates/bench/perf/Cargo.toml -- \
    --workload tcp_bulk --seed 1 --seconds 2 --trace 1)

# Metric rows read "tcp_bulk <name> <value> <unit>"; the JSON line carries
# the run's "attempted" and "failed" counts.
failed=$(printf "%s\n" "$out" | sed -n 's/.*"attempted": *[0-9]*, *"failed": *\([0-9]*\).*/\1/p')
printf "%s\n" "$out" | awk -v bound="$bound" -v failed="${failed:-missing}" '
    $1 == "tcp_bulk" && $2 == "proc.alloc_bytes_per_task" { bytes = $3; seen = 1 }
    END {
        if (!seen) { print "FAIL: no proc.alloc_bytes_per_task row in the run"; exit 1 }
        if (bytes + 0 > bound + 0) { printf "FAIL proc.alloc_bytes_per_task: want <= %s, got %s\n", bound, bytes; bad = 1 }
        if (failed != "0") { printf "FAIL failed: want 0, got %s\n", failed; bad = 1 }
        printf "tcp-counters: proc.alloc_bytes_per_task %.0f B (bound %s), failed %s\n", bytes, bound, failed
        exit bad
    }'
