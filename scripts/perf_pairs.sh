#!/usr/bin/env bash
# Paired end-to-end benchmark: a base revision against the working tree.
#
#   scripts/perf_pairs.sh <base-rev> <workload> <pairs> [seconds]
#
# Exports <base-rev> with `git archive` into .perfbench_work/pairs/base and
# builds each side into its own target dir (.perfbench_work/pairs/target-base,
# .perfbench_work/pairs/target-change; perfbench/run.py builds into
# $CARGO_TARGET_DIR/perfbench). It then runs perfbench/run.py on the two
# sides alternately, <pairs> times, for [seconds] each (default 25), and
# prints each run's end-to-end metrics, each pair's ratios (change / base),
# the median ratio per metric and each side's median and quartiles.
#
# Pair i uses seed i on both sides, and the side that runs first alternates
# from pair to pair, so slow drift of the host (steal, frequency, other
# tenants) lands on both sides alike. Only paired ratios are worth reading:
# a single side's absolute figures can move by tens of percent within one
# session on a shared host.
#
# Minutes long (two runs of [seconds] plus start-up per pair): not part of
# scripts/verify.sh. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 <base-rev> <workload> <pairs> [seconds]" >&2
  exit 2
fi
BASE_REV="$1"
WORKLOAD="$2"
PAIRS="$3"
SECONDS_PER_RUN="${4:-25}"

ROOT="$(pwd)"
WORK="$ROOT/.perfbench_work/pairs"
BASE_SRC="$WORK/base"
OUT="$WORK/$WORKLOAD-$(date +%Y%m%d-%H%M%S)"

rm -rf "$BASE_SRC"
mkdir -p "$BASE_SRC" "$OUT"
git archive "$BASE_REV" | tar -x -C "$BASE_SRC"

# run <side> <seed>: one run.py invocation; its JSON line goes to
# $OUT/<side>-<seed>.json, the full report and build log beside it. A run
# that fails is reported in the table, not fatal to the others.
run() {
  local side="$1" seed="$2" src
  if [[ "$side" == base ]]; then src="$BASE_SRC"; else src="$ROOT"; fi
  (cd "$src" && CARGO_TARGET_DIR="$WORK/target-$side" \
     python3 perfbench/run.py --workload "$WORKLOAD" --seed "$seed" \
       --seconds "$SECONDS_PER_RUN" --trace 0) \
    > "$OUT/$side-$seed.out" 2> "$OUT/$side-$seed.log" ||
    echo "  $side run failed (exit $?); see $OUT/$side-$seed.log" >&2
  tail -n 1 "$OUT/$side-$seed.out" > "$OUT/$side-$seed.json"
}

for ((i = 1; i <= PAIRS; ++i)); do
  if ((i % 2 == 1)); then order=(base change); else order=(change base); fi
  for side in "${order[@]}"; do
    echo "pair $i/$PAIRS: $side (seed $i)" >&2
    run "$side" "$i"
  done
done

python3 - "$OUT" "$PAIRS" "$WORKLOAD" <<'EOF'
import json
import os
import statistics
import sys

out, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
METRICS = ("cpu_us_per_op", "setup_s")


def load(side, seed):
    try:
        with open(os.path.join(out, f"{side}-{seed}.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


print(f"workload {workload}, {pairs} pairs (ratio = change / base); runs in {out}")
header = f"{'pair':>4}  {'ok b/c':>7}  {'fail b/c':>9}"
for m in METRICS:
    header += f"  {m + ' base':>20}  {'change':>9}  {'ratio':>6}"
print(header)
ratios = {m: [] for m in METRICS}
values = {m: {"base": [], "change": []} for m in METRICS}
for i in range(1, pairs + 1):
    b, c = load("base", i), load("change", i)
    if b is None or c is None:
        print(f"{i:>4}  no result from {'base' if b is None else 'change'}: pair left out")
        continue
    ok = f"{'y' if b['correct'] else 'N'}/{'y' if c['correct'] else 'N'}"
    line = f"{i:>4}  {ok:>7}  {str(b['failed']) + '/' + str(c['failed']):>9}"
    for m in METRICS:
        bv, cv = b["metrics"][m]["value"], c["metrics"][m]["value"]
        r = cv / bv if bv else float("nan")
        ratios[m].append(r)
        values[m]["base"].append(bv)
        values[m]["change"].append(cv)
        line += f"  {bv:>20.3f}  {cv:>9.3f}  {r:>6.3f}"
    print(line)
def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


for m in METRICS:
    if not ratios[m]:
        continue
    lower = sum(1 for r in ratios[m] if r < 1.0)
    print(f"{m}: median ratio {statistics.median(ratios[m]):.3f}, "
          f"change lower in {lower}/{len(ratios[m])} pairs")
    for side in ("base", "change"):
        q1, q2, q3 = quartiles(values[m][side])
        print(f"  {side:>6}: median {q2:.3f}, quartiles {q1:.3f} .. {q3:.3f} "
              f"(spread {q3 - q1:.3f})")
EOF
