#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark (BENCHMARK.json): the
# committed tree of <base-rev> against the working tree, on one workload.
#
#   scripts/bench_ab.sh <base-rev> <workload> <pairs> [first-seed] [seconds]
#
# The base side is <base-rev>'s committed files, extracted with
# `git archive` into target/bench-ab/<sha>/ (kept for later calls), so it
# builds and runs exactly what a fresh checkout of that commit would. The
# change side is the working tree. Both sides run BENCHMARK.json's
# command, from their own root, with
#
#   --workload <workload> --seed <s> --seconds <seconds> --trace 0
#
# Pair k (k = 0..pairs-1) uses seed first-seed+k on both sides (default
# first-seed 1; default seconds: BENCHMARK.json's run_seconds). The base
# side runs first in even pairs and second in odd ones.
#
# Every run's result line (the last line of its stdout) is kept as one
# JSON object in target/bench-ab/<workload>-<time>.jsonl, with its pair,
# seed, side, order and the 16-hex-digit digests it printed before the
# result line; its whole stdout is kept beside it. The summary prints,
# for each end-to-end metric, each side's median and quartiles, the
# number of pairs the change won, and the verdicts of two rules:
#
#   claim:         the change won at least 9/10 of the pairs, and its
#                  median beats the base's by more than the base's Q3 - Q1;
#   no regression: the change's median is no worse than the base's by
#                  more than the metric's BENCHMARK.json bound (a fraction
#                  of the base median),
#
# plus each side's spread, (Q3 - Q1) / median, marked UNRESOLVED when
# either exceeds the bound, unless every change run reads better than
# every base run. Then it prints every pair's failed counts,
# whether the two sides printed the same digests, and a flag on every
# pair in which the change failed more operations than the base.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <base-rev> <workload> <pairs> [first-seed] [seconds]" >&2
    exit 2
}
[ $# -ge 3 ] && [ $# -le 5 ] || usage
base_rev=$1
workload=$2
pairs=$3
first_seed=${4:-1}
seconds=${5:-$(jq '.run_seconds' BENCHMARK.json)}
[[ $pairs =~ ^[1-9][0-9]*$ && $first_seed =~ ^[0-9]+$ ]] || usage
jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' BENCHMARK.json >/dev/null \
    || { echo "unknown workload $workload" >&2; exit 2; }

sha=$(git rev-parse --verify "$base_rev^{commit}")
root=$PWD
out_dir=$root/target/bench-ab
base_dir=$out_dir/$sha
if [ ! -d "$base_dir" ]; then
    mkdir -p "$base_dir.tmp"
    git archive "$sha" | tar -x -C "$base_dir.tmp"
    mv "$base_dir.tmp" "$base_dir"
fi

mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
for dir in "$base_dir" "$root"; do
    echo "building perfbench in $dir" >&2
    cargo build --release --quiet --offline --manifest-path "$dir/perfbench/Cargo.toml"
done

stamp=$(date -u +%Y%m%dT%H%M%S)
raw=$out_dir/$workload-$stamp.jsonl
logs=$out_dir/$workload-$stamp.logs
mkdir -p "$logs"
: >"$raw"

# run <side> <dir> <pair> <seed> <order>: one benchmark run, one raw line.
run() {
    local side=$1 dir=$2 pair=$3 seed=$4 order=$5 log status=0 result digests
    log=$logs/$pair-$side.out
    (cd "$dir" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) >"$log" 2>"$log.err" || status=$?
    result=$(tail -n 1 "$log" | jq -ce 'select(type == "object" and has("metrics"))' \
        2>/dev/null || echo null)
    digests=$(head -n -1 "$log" | { grep -oE '\b[0-9a-f]{16}\b' || true; } \
        | jq -Rsc 'split("\n") | map(select(. != ""))')
    jq -nc --argjson pair "$pair" --argjson seed "$seed" --arg side "$side" \
        --argjson order "$order" --argjson status "$status" \
        --argjson digests "$digests" --argjson result "$result" \
        '{pair: $pair, seed: $seed, side: $side, order: $order, exit: $status,
          digests: $digests, result: $result}' >>"$raw"
    echo "pair $pair seed $seed $side: exit $status, failed $(jq -n "$result | .failed // \"-\"")" >&2
}

for ((k = 0; k < pairs; k++)); do
    seed=$((first_seed + k))
    if ((k % 2 == 0)); then
        run base "$base_dir" "$k" "$seed" 1
        run change "$root" "$k" "$seed" 2
    else
        run change "$root" "$k" "$seed" 1
        run base "$base_dir" "$k" "$seed" 2
    fi
done

echo "$workload: base $sha vs working tree, $pairs pairs of ${seconds} s, seeds $first_seed..$((first_seed + pairs - 1))"
echo "raw result lines: ${raw#"$root"/}"
jq -rs --slurpfile bench BENCHMARK.json '
    def q($p): sort | if length == 0 then null else
        ((length - 1) * $p) as $h | ($h | floor) as $l
        | .[$l] + ($h - $l) * (.[[$l + 1, length - 1] | min] - .[$l]) end;
    def r: if . == null then "-" else (. * 100 | round / 100 | tostring) end;
    def side($s): map(select(.side == $s)) | sort_by(.pair);
    def iqr: if length == 0 then null else q(0.75) - q(0.25) end;
    def spread: if length == 0 or q(0.5) == 0 then null else iqr / q(0.5) end;
    def failed: .result.failed // infinite;
    side("base") as $b | side("change") as $c
    | ([$b[].pair] - ([$b[].pair] - [$c[].pair])) as $both
    | ($bench[0].end_to_end[] as $m
       | [$b[].result.metrics[$m.name].value // empty] as $bv
       | [$c[].result.metrics[$m.name].value // empty] as $cv
       | [$both[] as $k
          | ($b[] | select(.pair == $k) | .result.metrics[$m.name].value) as $x
          | ($c[] | select(.pair == $k) | .result.metrics[$m.name].value) as $y
          | select($x != null and $y != null)
          | if $m.better == "lower" then $y < $x else $y > $x end] as $wins
       | ($wins | map(select(.)) | length) as $won
       | ($wins | length) as $n
       | "\($m.name) (\($m.unit), \($m.better) is better): base \($bv | q(0.5) | r) [\($bv | q(0.25) | r), \($bv | q(0.75) | r)]  change \($cv | q(0.5) | r) [\($cv | q(0.25) | r), \($cv | q(0.75) | r)]  change won \($won)/\($n)",
         if ($bv | length) == 0 or ($cv | length) == 0 then "  no verdict: a side has no values"
         else
           ($bv | q(0.5)) as $bm | ($cv | q(0.5)) as $cm
           # The gain is positive when the change is better.
           | (if $m.better == "lower" then $bm - $cm else $cm - $bm end) as $gain
           | ($bv | iqr) as $biqr
           # Every change run better than every base run resolves any spread.
           | (if $m.better == "lower" then ($cv | max) < ($bv | min) else ($cv | min) > ($bv | max) end) as $sep
           | "  claim (won >= 9/10 of pairs, median gain > base Q3 - Q1): \(if $won * 10 >= 9 * $n and $gain > $biqr then "HOLDS" else "fails" end) (gain \($gain | r) vs base IQR \($biqr | r))",
             "  no regression (median no worse than the base by more than \($m.bound * 100 | r)%): \(if $gain >= -$m.bound * $bm then "holds" else "FAILS" end) (change \(if $bm == 0 then null else ($cm / $bm - 1) * 100 end | r)% vs base)",
             "  spread (Q3 - Q1) / median: base \($bv | spread | r), change \($cv | spread | r), bound \($m.bound | r)\(if any([$bv, $cv][]; (spread // infinite) > $m.bound) and ($sep | not) then ": UNRESOLVED" else "" end)"
         end),
      "pair seed first   failed base/change   attempted base/change   same digests",
      ($both[] as $k
       | ($b[] | select(.pair == $k)) as $x | ($c[] | select(.pair == $k)) as $y
       | "\($k) \($x.seed) \(if $x.order == 1 then "base" else "change" end)   \($x.result.failed // "crash")/\($y.result.failed // "crash")   \($x.result.attempted // "-")/\($y.result.attempted // "-")   \($x.digests == $y.digests)\(if ($y | failed) > ($x | failed) then "   CHANGE FAILED MORE" else "" end)"),
      "pairs in which the change failed more operations than the base: \([$both[] as $k | ($b[] | select(.pair == $k)) as $x | ($c[] | select(.pair == $k)) as $y | select(($y | failed) > ($x | failed)) | $k] | if length == 0 then "none" else map(tostring) | join(", ") end)"
' "$raw"
