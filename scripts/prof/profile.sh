#!/bin/sh
# profile.sh <workload> [seconds=20] [seed=1]
#
# `make profile WORKLOAD=sim_churn`: one untraced benchmark run under the
# SIGPROF sampler of scripts/prof/prof.c, then per-thread flat / total /
# caller tables on stdout. The harness is built with frame pointers into its
# own target directory, so neither the benchmark's nor the workspace's build
# is disturbed. Everything it writes goes under target/prof/. See README.md.
set -eu

usage="usage: $0 <workload> [seconds=20] [seed=1]"
workload=${1:?$usage}
seconds=${2:-20}
seed=${3:-1}

cd "$(dirname "$0")/../.."
out=target/prof
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/libprof.so" scripts/prof/prof.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=$out/build cargo build --release \
    --offline --quiet --manifest-path crates/bench/perf/Cargo.toml

PROF_OUT=$out/$workload.samples LD_PRELOAD=$PWD/$out/libprof.so "$out/build/release/perf" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$workload.stdout" &
pid=$!
# Thread names exist only while the threads do: read them every second
# until the harness exits (a later reading of a tid replaces an earlier one).
: >"$out/$workload.threads"
while kill -0 $pid 2>/dev/null; do
    for task in /proc/$pid/task/*; do
        if comm=$(cat "$task/comm" 2>/dev/null); then echo "${task##*/} $comm"; fi
    done >>"$out/$workload.threads"
    sleep 1
done
wait $pid || echo "the harness exited non-zero; see $out/$workload.stdout" >&2
grep -v '^{' "$out/$workload.stdout" >&2 || true
python3 scripts/prof/symbolize.py "$out/$workload.samples" "$out/$workload.threads"
