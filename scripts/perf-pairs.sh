#!/bin/sh
# perf-pairs.sh <base-rev> <workload> [pairs=10] [seconds=20]
#
# The A/B protocol a performance claim rests on (see crates/bench/perf/README.md
# and BENCHMARK.json): the benchmark harness is built once at <base-rev> and
# once from this checkout (uncommitted edits included), then <workload> runs in
# alternating pairs - one fresh process per run, pair i on seed i for both
# sides, the side that goes first flipping from pair to pair. Prints, per
# end-to-end metric, each side's quartiles and median and how many pairs the
# change won; a gain counts when it wins nine pairs in ten and the medians
# differ by more than the base's own q1-q3 distance.
#
# Everything it writes goes under target/perf-pairs/. The base revision is
# checked out as a detached git worktree there and removed again once built.
set -eu

usage="usage: $0 <base-rev> <workload> [pairs=10] [seconds=20]"
base_rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-20}

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify --short "$base_rev^{commit}")
work=$root/target/perf-pairs
mkdir -p "$work"

# build <source tree> <side>: the harness of that tree, as $work/perf-<side>.
build() {
    CARGO_TARGET_DIR=$work/build-$2 cargo build --release --offline --quiet \
        --manifest-path "$1/crates/bench/perf/Cargo.toml"
    cp "$work/build-$2/release/perf" "$work/perf-$2"
}

tree=$work/tree-$base_sha
git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --quiet --detach "$tree" "$base_sha"
trap 'git worktree remove --force "$tree" 2>/dev/null || true' EXIT
echo "building base $base_sha and change (this checkout) ..." >&2
build "$tree" base
git worktree remove --force "$tree"
trap - EXIT
build "$root" change

# run <side> <pair>: one fresh process; appends "pair metric value" rows and
# the run's failed/attempted counts to the side's files.
run() {
    out=$("$work/perf-$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) || {
        echo "$1 run of pair $2 exited non-zero" >&2
    }
    printf "%s\n" "$out" | awk -v w="$workload" -v p="$2" '$1 == w && NF == 4 { print p, $2, $3 }' \
        >>"$work/$1.rows"
    printf "%s\n" "$out" | sed -n 's/.*"attempted": *\([0-9]*\), *"failed": *\([0-9]*\).*/\1 \2/p' \
        >>"$work/$1.counts"
}

: >"$work/base.rows"; : >"$work/change.rows"
: >"$work/base.counts"; : >"$work/change.counts"
pair=1
while [ "$pair" -le "$pairs" ]; do
    if [ $((pair % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        echo "pair $pair/$pairs: $side" >&2
        run "$side" "$pair"
    done
    pair=$((pair + 1))
done

# Which way is better comes from BENCHMARK.json's end_to_end table.
awk '
    /"end_to_end"/ { inside = 1 }
    inside && /"name"/ { gsub(/[",]/, ""); name = $2 }
    inside && /"better"/ { gsub(/[",]/, ""); print name, $2 }
    inside && /\]/ { inside = 0 }
' BENCHMARK.json >"$work/better"

echo "$workload: base $base_sha vs change, $pairs pairs of $seconds s"
awk '
    function quantile(v, n, q,    pos, lo) {
        pos = (n - 1) * q; lo = int(pos)
        return lo + 1 < n ? v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) : v[n - 1]
    }
    function summary(side, metric,    n, i, j, t, v) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, metric, i) in val) v[n++] = val[side, metric, i]
        for (i = 1; i < n; i++) for (j = i; j > 0 && v[j - 1] > v[j]; j--) {
            t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
        }
        q1[side] = quantile(v, n, 0.25); q2[side] = quantile(v, n, 0.5)
        q3[side] = quantile(v, n, 0.75)
        printf "  %-6s n=%-2d q1 %-12.6g median %-12.6g q3 %-12.6g\n", side, n, q1[side], q2[side], q3[side]
    }
    FILENAME ~ /better$/ { better[$1] = $2; order[++metrics] = $1; next }
    { side = FILENAME ~ /base\.rows$/ ? "base" : "change"
      val[side, $2, $1] = $3 + 0; if ($1 > pairs) pairs = $1 }
    END {
        for (m = 1; m <= metrics; m++) {
            metric = order[m]; wins = losses = 0
            for (i = 1; i <= pairs; i++) {
                if (!(("base", metric, i) in val) || !(("change", metric, i) in val)) continue
                d = val["change", metric, i] - val["base", metric, i]
                if (better[metric] == "lower") d = -d
                if (d > 0) wins++; else if (d < 0) losses++
            }
            printf "%s (%s is better)\n", metric, better[metric]
            summary("base", metric); summary("change", metric)
            gap = q2["change"] - q2["base"]; if (better[metric] == "lower") gap = -gap
            printf "  change wins %d, loses %d of %d pairs; median better by %.6g (%+.1f %%), base q1-q3 distance %.6g\n",
                wins, losses, pairs, gap, q2["base"] ? 100 * gap / q2["base"] : 0, q3["base"] - q1["base"]
        }
    }
' "$work/better" "$work/base.rows" "$work/change.rows"
for side in base change; do
    awk -v s="$side" '{ a += $1; f += $2 } END { printf "%s: %d failed of %d attempted in %d runs\n", s, f, a, NR }' \
        "$work/$side.counts"
done
