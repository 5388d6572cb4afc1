#!/usr/bin/env sh
# Parent-vs-change perfbench comparison in alternating pairs.
#
#   scripts/perf_pairs.sh <parent-rev> <workload> <pairs> <first-seed>
#
# Extracts <parent-rev> with `git archive` into a temporary directory
# (under $TMPDIR), builds perfbench there and in this working tree with the
# command in BENCHMARK.json, then runs <pairs> pairs on seeds <first-seed>,
# <first-seed>+1, ...: both sides get the same seed, each run lasts
# BENCHMARK.json's `run_seconds`, and the side that runs first alternates
# from pair to pair, so a slow spell on a shared host lands on both sides.
# TRACE=1 passes `--trace 1` (per-layer metrics) instead of `--trace 0`.
#
# Every result line is printed as it arrives, wrapped as
# {"side", "seed", "first", "result"}. At the end, per metric: each side's
# median and quartiles, the change's median relative to the parent's, the
# pairs the change won, whether that gap exceeds the parent's IQR, and
# whether the change's median is worse than the metric's BENCHMARK.json
# bound. Exits 1 if any run was incorrect or had `failed > 0`.
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <first-seed>" >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=$3
first_seed=$4
trace=${TRACE:-0}

root=$(git rev-parse --show-toplevel)
bench="$root/BENCHMARK.json"
seconds=$(jq -r '.run_seconds' "$bench")
run_cmd=$(jq -r '.command | map(@sh) | join(" ")' "$bench")
build_cmd=$(jq -r '.command | map(if . == "run" then "build" else . end)
    | map(select(. != "--")) | map(@sh) | join(" ")' "$bench")

work=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
mkdir "$work/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent"

# Each tree must build into its own perfbench/target.
unset CARGO_TARGET_DIR
export CARGO_NET_OFFLINE=true
for tree in "$work/parent" "$root"; do
    echo "# building perfbench in $tree" >&2
    (cd "$tree" && eval "$build_cmd")
done

runs="$work/runs.jsonl"
: >"$runs"
bad=0

# run <side> <tree> <seed> <first>: one perfbench run, logged and checked.
run() {
    out=$(cd "$2" && eval "$run_cmd --workload $workload --seed $3 \
        --seconds $seconds --trace $trace") || true
    line=$(printf '%s\n' "$out" | grep '^{' | tail -n 1)
    if [ -z "$line" ]; then
        echo "# $1 seed=$3: no result line" >&2
        bad=1
        return
    fi
    printf '%s\n' "$line" | jq -c --arg side "$1" --argjson seed "$3" \
        --argjson first "$4" '{side: $side, seed: $seed, first: $first, result: .}' |
        tee -a "$runs"
    if ! printf '%s\n' "$line" | jq -e '.correct and .failed == 0' >/dev/null; then
        echo "# $1 seed=$3: incorrect or failed operations" >&2
        bad=1
    fi
}

i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((first_seed + i))
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$work/parent" "$seed" true
        run change "$root" "$seed" false
    else
        run change "$root" "$seed" true
        run parent "$work/parent" "$seed" false
    fi
    i=$((i + 1))
done

echo "# $workload: $pairs pairs, seeds $first_seed..$((first_seed + pairs - 1)), ${seconds} s runs, parent $parent_rev"
jq -rs --slurpfile bench "$bench" '
  def quantile($p): sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h
    | ($h | floor) as $lo | ([$lo + 1, $n - 1] | min) as $hi
    | $s[$lo] + ($h - $lo) * ($s[$hi] - $s[$lo]);
  def stats: {q1: quantile(0.25), med: quantile(0.5), q3: quantile(0.75)};
  def fmt: if fabs >= 100 then (. * 10 | round / 10 | tostring)
    else (. * 1000 | round / 1000 | tostring) end;
  def pct: if . == null then "-" else (. * 10 | round / 10 | tostring) + "%" end;
  ($bench[0].end_to_end + $bench[0].per_layer
    | map({key: .name, value: .}) | from_entries) as $spec
  | group_by(.seed) | map(select(length == 2)
      | {parent: (map(select(.side == "parent"))[0].result.metrics),
         change: (map(select(.side == "change"))[0].result.metrics)}) as $pairs
  | ($pairs[0].parent | keys_unsorted)[] as $m
  | ($spec[$m].better // "lower") as $better
  | ($pairs | map(.parent[$m].value)) as $p
  | ($pairs | map(.change[$m].value)) as $c
  | ($p | stats) as $ps | ($c | stats) as $cs
  | ([range($pairs | length)] | map(select(
      if $better == "lower" then $c[.] < $p[.] else $c[.] > $p[.] end)) | length) as $wins
  | (if $ps.med == 0 then null else ($cs.med / $ps.med - 1) * 100 end) as $delta
  | (if $spec[$m].bound == null or $ps.med == 0 then "-"
     elif ($better == "lower" and $cs.med > $ps.med * (1 + $spec[$m].bound))
       or ($better == "higher" and $cs.med < $ps.med * (1 - $spec[$m].bound))
     then "WORSE" else "ok" end) as $verdict
  | [$m, "parent \($ps.med | fmt) [\($ps.q1 | fmt), \($ps.q3 | fmt)]",
     "change \($cs.med | fmt) [\($cs.q1 | fmt), \($cs.q3 | fmt)]",
     ($delta | pct), "wins \($wins)/\($pairs | length)",
     "gap>IQR \(($cs.med - $ps.med | fabs) > ($ps.q3 - $ps.q1))",
     "bound \($verdict)"]
  | join("  ")' "$runs"

exit "$bad"
