#!/bin/sh
# Tier-1 under contention: runs `cargo test -q ARGS...` ROUNDS times, every
# round pinned to CPU 0 beside a busy loop pinned to the same CPU, so a test
# that passes by luck of the scheduler gets ROUNDS chances to show it.
# Prints each round's verdict and the tests that failed in it; exits non-zero
# if any round failed.
#
#   sh scripts/test-stress.sh ROUNDS [cargo test arguments...]
#   sh scripts/test-stress.sh 40 --test sharded_dispatch
set -u
rounds=${1:-20}
[ $# -gt 0 ] && shift

# Build unpinned and without the busy loop: only the test runs are stressed.
cargo test -q --no-run "$@" || exit 1

taskset -c 0 sh -c 'while :; do :; done' &
busy=$!
trap 'kill $busy 2>/dev/null' EXIT INT TERM

log=$(mktemp)
failed=0
round=1
while [ "$round" -le "$rounds" ]; do
    if taskset -c 0 cargo test -q "$@" >"$log" 2>&1; then
        echo "round $round/$rounds: ok"
    else
        failed=$((failed + 1))
        echo "round $round/$rounds: FAILED"
        # libtest prints a `---- name stdout ----` header per failed test;
        # a binary that died without one shows its last lines instead.
        grep '^---- .* ----$' "$log" || tail -n 20 "$log"
    fi
    round=$((round + 1))
done
rm -f "$log"
echo "test-stress: $failed of $rounds rounds failed"
[ "$failed" -eq 0 ]
