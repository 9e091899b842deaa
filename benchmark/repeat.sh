#!/usr/bin/env bash
# Runs every workload <sets> times, each time with another seed, and prints
# for every metric the median, the quartiles and the spread (distance
# between the quartiles as a share of the median) next to its bound from
# BENCHMARK.json. This is what calibrates the bounds and decides which
# candidates are end-to-end metrics and which are reported without a bound.
#
#   benchmark/repeat.sh <sets> [--trace] [--same-seed <n>] [--workload <name>]...
#
# --trace          run the traced pass (per-layer metrics) instead
# --same-seed <n>  use seed <n> for every set (two invocations then compare
#                  the same inputs); default is seeds 1, 2, 3, ...
# --workload       restrict to the named workloads (repeatable)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
sets="${1:?usage: repeat.sh <sets> [--trace] [--same-seed <n>] [--workload <name>]...}"
shift
trace=0
same_seed=""
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) trace=1 ;;
        --same-seed) same_seed="$2"; shift ;;
        --workload) workloads+=("$2"); shift ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(net-point embedded-join mixed-snapshot durable-lifecycle)
fi
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

mkdir -p "$here/out"
results="$here/out/repeat-$$.jsonl"
: > "$results"
cd "$root"
for set in $(seq 1 "$sets"); do
    seed="${same_seed:-$set}"
    for w in "${workloads[@]}"; do
        echo "set $set/$sets: $w seed $seed" >&2
        line="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)"
        printf '{"workload": "%s", "seed": %s, "result": %s}\n' "$w" "$seed" "$line" >> "$results"
    done
done

python3 - "$results" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

runs = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
worst = 0.0
for w in dict.fromkeys(r["workload"] for r in runs):
    mine = [r["result"] for r in runs if r["workload"] == w]
    bad = [r for r in mine if not r["correct"] or r["failed"]]
    print(f"\n== {w}: {len(mine)} runs, {len(bad)} incorrect")
    print(f"{'metric':<44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in mine[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in mine]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  > bound" if spread > bound else ("  > bound/3" if spread > bound / 3 else "")
        shown = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:<44} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.3f} {shown}{flag}")
print(f"\nlargest spread / bound over the bounded metrics: {worst:.2f} (the target is below 0.33)")
print(f"raw results: {sys.argv[1]}")
EOF
