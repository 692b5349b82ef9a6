#!/usr/bin/env bash
# Alternating parent/change pairs of two prebuilt perfbench binaries.
#
#   ci/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS FIRST_SEED
#
# Pair i (0-based) runs both binaries on seed FIRST_SEED+i with
# `--workload WORKLOAD --seconds SECONDS --trace 0`; the parent goes first
# on even i, the change on odd i. Any run that exits nonzero, reports
# `"correct": false` or a nonzero `"failed"` fails the script.
#
# For each end-to-end metric named in BENCHMARK.json it prints one row:
# both sides' median with quartiles [q1, q3], the change's median delta
# against the parent's, how many pairs the change won (better by the
# metric's "better" direction; ties count for neither side), and whether
# the claim rule holds: at least ten pairs ran, the change wins at least
# 9 of 10 of them, and the medians differ, in the change's favour, by
# more than the parent's interquartile range. Quartiles interpolate
# linearly between order statistics.
#
# Only the JSON object perfbench already prints as its last line is read:
# its `correct` and `failed` fields, and each metric's full-precision
# value (the `<metric> <value> <unit>` rows above it round to 4
# decimals, which leaves a sub-millisecond `setup_s` one digit).
set -euo pipefail

if [ "$#" -ne 6 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS FIRST_SEED" >&2
  exit 2
fi
parent_bin=$1 change_bin=$2 workload=$3 pairs=$4 seconds=$5 first_seed=$6
root="$(cd "$(dirname "$0")/.." && pwd)"

# "name better" per end-to-end metric, in BENCHMARK.json order.
metrics="$(sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" |
  sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/p')"
if [ -z "$metrics" ]; then
  echo "pairs: no end_to_end metrics found in $root/BENCHMARK.json" >&2
  exit 1
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# run SIDE PAIR SEED: one run, its metric values appended to $work/SIDE
# as "pair metric value".
run() {
  local side=$1 pair=$2 seed=$3 bin out
  if [ "$side" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
  out="$work/run.txt"
  if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$out"; then
    echo "pairs: $side run of pair $pair (seed $seed) exited nonzero" >&2
    exit 1
  fi
  local json
  json="$(tail -n 1 "$out")"
  if ! grep -q '"correct": true' <<< "$json" || ! grep -q '"failed": 0[,}]' <<< "$json"; then
    echo "pairs: $side run of pair $pair (seed $seed) failed its check: ${json:0:120}" >&2
    exit 1
  fi
  local name value
  while read -r name _; do
    value="$(grep -o "\"$name\": {\"value\": [^,}]*" <<< "$json" | sed 's/.*: //' || true)"
    if [ -n "$value" ]; then echo "$pair $name $value" >> "$work/$side"; fi
  done <<< "$metrics"
}

: > "$work/parent"
: > "$work/change"
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    run "$side" "$i" "$seed"
  done
  echo "pair $i seed $seed done ($order)"
done

echo "$workload: $pairs pairs x ${seconds}s, seeds $first_seed..$((first_seed + pairs - 1))"
printf '%-20s %34s %34s %8s %6s %6s\n' metric "parent median [q1, q3]" \
  "change median [q1, q3]" delta wins claim
while read -r name better; do
  awk -v m="$name" -v better="$better" -v pairs="$pairs" '
    function q(a, n, f,   h, lo) {
      h = (n - 1) * f; lo = int(h)
      return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
    }
    function sorted(src, dst, n,   i, j, t) {
      for (i = 0; i < n; i++) dst[i] = src[i]
      for (i = 1; i < n; i++)
        for (j = i; j > 0 && dst[j - 1] > dst[j]; j--) {
          t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
        }
    }
    $2 != m { next }
    FILENAME ~ /parent$/ { par[$1] = $3 + 0; np++ }
    FILENAME ~ /change$/ { chg[$1] = $3 + 0; nc++ }
    END {
      if (np != pairs || nc != pairs) {
        printf "%-20s missing values (parent %d, change %d of %d)\n", m, np, nc, pairs
        exit 1
      }
      wins = 0
      for (i = 0; i < pairs; i++) {
        if (better == "lower" ? chg[i] < par[i] : chg[i] > par[i]) wins++
      }
      sorted(par, ps, pairs); sorted(chg, cs, pairs)
      pm = q(ps, pairs, 0.5); cm = q(cs, pairs, 0.5)
      iqr = q(ps, pairs, 0.75) - q(ps, pairs, 0.25)
      gap = better == "lower" ? pm - cm : cm - pm
      claim = (pairs >= 10 && wins * 10 >= 9 * pairs && gap > iqr) ? "holds" : "no"
      printf "%-20s %10.6g [%9.6g, %9.6g] %10.6g [%9.6g, %9.6g] %+7.1f%% %2d/%-3d %6s\n",
        m, pm, q(ps, pairs, 0.25), q(ps, pairs, 0.75), cm, q(cs, pairs, 0.25),
        q(cs, pairs, 0.75), pm != 0 ? 100 * (cm - pm) / pm : 0, wins, pairs, claim
    }' "$work/parent" "$work/change"
done <<< "$metrics"
