#!/usr/bin/env bash
# Same-machine A/B of two bench_e2e builds.
#
#   bench/e2e/ab.sh BASE_BUILD HEAD_BUILD [OUT_DIR]
#
# BASE_BUILD and HEAD_BUILD are build directories, each holding a bench_e2e
# built from the same benchmark code (see README.md, "A/B runs").  Passing
# one build twice measures the benchmark's own noise.  Run from the
# repository root.  For every workload in BENCHMARK.json it runs 10
# interleaved pairs, seed i for pair i, alternating which side goes first,
# each run as long as BENCHMARK.json's run_seconds.  Raw records go to
# OUT_DIR/runs.jsonl and the verdicts to OUT_DIR/report.txt and stdout.
#
# A run whose correctness checks fail (exit code 1 with a record) is kept
# and counted; any other failure stops the A/B.  Per workload the report
# gives each side's failed operations: a gain on a workload where head
# fails more operations than base does not count, and the script then exits
# with 1.
#
# Verdict per workload and end-to-end metric:
#   better      head wins >= 9/10 of the pairs (ties count for neither) and
#               the medians differ by more than base's quartile spread, or
#               every head run beats every base run
#   unresolved  either side's quartile spread (share of its median) exceeds
#               the metric's bound and head does not beat base on every run
#   regression  head's median is worse than base's by more than the bound
#   same        otherwise
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,27p' "$0" >&2
  exit 2
fi
base=$1
head=$2
out=${3:-.bench_build/ab-$(date +%Y%m%d-%H%M%S)}
pairs=10
spec=BENCHMARK.json
for bin in "$base/bench_e2e" "$head/bench_e2e"; do
  [ -x "$bin" ] || { echo "ab: no executable $bin" >&2; exit 2; }
done
[ -f "$spec" ] || { echo "ab: run from the repository root" >&2; exit 2; }

seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
mkdir -p "$out"
: > "$out/runs.jsonl"

for workload in $workloads; do
  for ((i = 1; i <= pairs; ++i)); do
    if ((i % 2)); then order="base head"; else order="head base"; fi
    for side in $order; do
      if [ "$side" = base ]; then dir=$base; else dir=$head; fi
      status=0
      record=$("$dir/bench_e2e" --workload "$workload" --seed "$i" \
                 --seconds "$seconds" --trace 0 | tail -n 1) || status=$?
      if [ "$status" -ne 0 ] && { [ "$status" -ne 1 ] || [ "${record:0:1}" != "{" ]; }; then
        echo "ab: $side $workload seed $i exited with $status" >&2
        exit 1
      fi
      printf '{"workload": "%s", "side": "%s", "seed": %d, "record": %s}\n' \
        "$workload" "$side" "$i" "$record" >> "$out/runs.jsonl"
      echo "ab: $workload pair $i $side done" >&2
    done
  done
done

python3 - "$spec" "$out/runs.jsonl" <<'EOF' | tee "$out/report.txt"
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]

def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3

more_failures = False
print(f"{'workload':10} {'metric':15} {'base median [q1, q3]':>34} "
      f"{'head median [q1, q3]':>34} {'spread b/h':>13} {'head wins':>9} "
      f"{'head vs base':>12}  verdict")
for w in spec["workloads"]:
    mine = [r for r in runs if r["workload"] == w["name"]]
    failed = {s: sum(r["record"]["failed"] for r in mine if r["side"] == s)
              for s in ("base", "head")}
    attempted = {s: sum(r["record"]["attempted"] for r in mine if r["side"] == s)
                 for s in ("base", "head")}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        side = {s: {r["seed"]: r["record"]["metrics"][name]["value"]
                    for r in mine if r["side"] == s}
                for s in ("base", "head")}
        seeds = sorted(set(side["base"]) & set(side["head"]))
        if len(seeds) < 2:
            continue
        b = [side["base"][s] for s in seeds]
        h = [side["head"][s] for s in seeds]
        bq, hq = quartiles(b), quartiles(h)
        spread_b = (bq[2] - bq[0]) / bq[1]
        spread_h = (hq[2] - hq[0]) / hq[1]
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(better(hv, bv) for hv, bv in zip(h, b))
        worse = (hq[1] - bq[1]) / bq[1] * (1 if lower else -1)
        if all(better(hv, bv) for hv in h for bv in b):
            verdict = "better"
        elif max(spread_b, spread_h) > bound:
            verdict = "unresolved"
        elif wins >= 0.9 * len(seeds) and abs(hq[1] - bq[1]) > bq[2] - bq[0]:
            verdict = "better"
        elif worse > bound:
            verdict = "regression"
        else:
            verdict = "same"
        if verdict == "better" and failed["head"] > failed["base"]:
            verdict = "void (head fails more operations)"
        print(f"{w['name']:10} {name:15} "
              f"{bq[1]:12.6g} [{bq[0]:9.6g}, {bq[2]:9.6g}] "
              f"{hq[1]:12.6g} [{hq[0]:9.6g}, {hq[2]:9.6g}] "
              f"{spread_b:6.3f}/{spread_h:6.3f} {wins:4d}/{len(seeds):<4d} "
              f"{worse:+11.3%}  {verdict} (bound {bound:.0%})")
    print(f"{w['name']:10} failed operations: base {failed['base']} of "
          f"{attempted['base']}, head {failed['head']} of {attempted['head']}")
    more_failures |= failed["head"] > failed["base"]
sys.exit(1 if more_failures else 0)
EOF
