#!/bin/sh
# sim-counters.sh [expect-file=scripts/sim_churn.expect]
#
# "Behaviour-preserving", checked mechanically: one traced two-second
# `sim_churn` run of the benchmark harness (seed 1, about a second of work)
# against the committed expectations. The simulator is deterministic, so its
# counters repeat exactly on any host: a line `name = value` must match the
# run's figure to the digit, a line `name <= value` bounds it from above
# (allocations per task: fewer is welcome, more is a regression to explain).
# A change that means to move a counter edits the expect file in the same
# commit, next to the golden traces it re-blesses. `make sim-counters`.
set -eu

cd "$(dirname "$0")/.."
expect=${1:-scripts/sim_churn.expect}
out=$(cargo run --release --offline --quiet --manifest-path crates/bench/perf/Cargo.toml -- \
    --workload sim_churn --seed 1 --seconds 2 --trace 1)

# Metric rows read "sim_churn <name> <value> <unit>", digests "note sim_churn <name> <hex>".
printf "%s\n" "$out" | awk -v expect="$expect" '
    $1 == "sim_churn" && NF == 4 { got[$2] = $3 }
    $1 == "note" && $2 == "sim_churn" && NF == 4 { got[$3] = $4 }
    END {
        while ((getline line < expect) > 0) {
            if (line ~ /^ *(#|$)/) continue
            split(line, want, " ")
            name = want[1]; relation = want[2]; value = want[3]; checked++
            if (!(name in got)) verdict = "missing from the run"
            else if (relation == "=" && got[name] == value) verdict = ""
            else if (relation == "<=" && got[name] + 0 <= value + 0) verdict = ""
            else verdict = "got " got[name]
            if (verdict != "") { printf "FAIL %s: want %s %s, %s\n", name, relation, value, verdict; failed++ }
        }
        if (!checked) { print "FAIL: no expectations read from " expect; exit 1 }
        printf "sim-counters: %d of %d expectations hold\n", checked - failed, checked
        exit failed > 0
    }'
