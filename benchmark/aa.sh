#!/usr/bin/env bash
# A/A noise gate: two sets of runs of the same commit, as the driver makes
# them. Each set runs every workload once per seed (seeds 1..RUNS),
# alternating workloads, so drift of the machine hits all workloads alike.
# For every workload x end-to-end metric it prints both medians, both
# inter-quartile ranges as a share of the median (the spread), and whether
#   - each spread is within the metric's bound (setup_s is exempt), and
#   - the second median is not worse than the first by more than the bound.
# A spread above a third of the bound is flagged "wide": the contract asks
# for less. Then every workload runs once more on seed RUNS+1, which no set
# used, and is compared with set B. Exit status is non-zero if any pairing
# fails. The output is markdown; this commit's is benchmark/AA.md.
#
# usage: benchmark/aa.sh [RUNS=10] [SECONDS=run_seconds of BENCHMARK.json]
# Run from anywhere inside the repository, on an otherwise idle machine.
# Needs python3 for the statistics.
set -euo pipefail

runs=${1:-10}
cd "$(dirname "$0")/.."
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
out=benchmark/out/aa
mkdir -p "$out"
rm -f "$out"/*.jsonl

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/lasagna-benchmark
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

one_run() { # set seed workload
  echo "set $1 seed $2 $3" >&2
  "$bin" --workload "$3" --seed "$2" --seconds "$seconds" --trace 0 \
    | tail -n 1 >> "$out/$1-$3.jsonl"
}

for set in A B; do
  for seed in $(seq 1 "$runs"); do
    for workload in $workloads; do one_run "$set" "$seed" "$workload"; done
  done
done
for workload in $workloads; do one_run unseen $((runs + 1)) "$workload"; done

python3 - "$out" "$runs" "$seconds" <<'EOF'
import json, statistics, subprocess, sys
out, runs, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))

def sh(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"

def rows(set_name, workload):
    return [json.loads(line) for line in open(f"{out}/{set_name}-{workload}.jsonl")]

def column(set_name, workload, metric):
    rs = rows(set_name, workload)
    bad = [r for r in rs if not r["correct"] or r["failed"]]
    return [r["metrics"][metric]["value"] for r in rs], len(bad)

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

def worse(new, old, metric):
    return (new - old) / old * (1 if metric["better"] == "lower" else -1)

print("# A/A noise gate: two sets of runs of one commit\n")
print(f"Output of `benchmark/aa.sh {runs} {seconds}`. \"spread\" is the distance between the first and")
print("third quartile of a set's values (`statistics.quantiles(values, n=4)`) as a share of their")
print("median; \"wide\" marks a spread above a third of the bound.\n")
print(f"commit {sh('git', 'rev-parse', '--short', 'HEAD')} plus the working tree, {sh('rustc', '-V')}, "
      f"nproc {sh('nproc')}, {runs} runs per set (seeds 1..{runs}), --seconds {seconds}\n")
print("| workload | metric | bound | median A | median B | B vs A | spread A | spread B | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
failures = 0
attempted = {}
for w in (w["name"] for w in bench["workloads"]):
    attempted[w] = sorted({r["attempted"] for s in "AB" for r in rows(s, w)})
    for m in bench["end_to_end"]:
        a, bad_a = column("A", w, m["name"])
        b, bad_b = column("B", w, m["name"])
        med_a, med_b = statistics.median(a), statistics.median(b)
        drift = worse(med_b, med_a, m)
        sa, sb = spread(a), spread(b)
        gated = m["name"] != "setup_s"
        ok = drift <= m["bound"] and bad_a + bad_b == 0 and (not gated or max(sa, sb) <= m["bound"])
        wide = gated and max(sa, sb) > m["bound"] / 3
        verdict = ("pass, wide" if wide else "pass") if ok else "FAIL"
        failures += not ok
        print(f"| {w} | {m['name']} ({m['unit']}) | {m['bound']:.0%} | {med_a:.5g} | {med_b:.5g} | "
              f"{drift:+.2%} worse | {sa:.2%} | {sb:.2%} | {verdict} |")
print(f"\n{failures} failing pairings; failed or incorrect runs count as failures.\n")
print("Ops attempted per run, every run of both sets (a fixed count, so one value each): "
      + ", ".join(f"{w} {v}" for w, v in attempted.items()) + ".\n")

print(f"## Unseen seed\n\nSeed {runs + 1}, run once after set B, against set B's median.\n")
print("| workload | metric | bound | median B | unseen seed | vs median B | verdict |")
print("|---|---|---|---|---|---|---|")
for w in (w["name"] for w in bench["workloads"]):
    for m in bench["end_to_end"]:
        b, _ = column("B", w, m["name"])
        (u,), bad = column("unseen", w, m["name"])
        drift = worse(u, statistics.median(b), m)
        ok = drift <= m["bound"] and bad == 0
        failures += not ok
        print(f"| {w} | {m['name']} ({m['unit']}) | {m['bound']:.0%} | {statistics.median(b):.5g} | {u:.5g} | "
              f"{drift:+.2%} worse | {'pass' if ok else 'FAIL'} |")
print(f"\n{failures} failing pairings in all.")
sys.exit(1 if failures else 0)
EOF
