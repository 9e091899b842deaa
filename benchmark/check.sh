#!/usr/bin/env bash
# The benchmark's own checks, a minute or so in all:
#
#   1. the harness's unit tests (percentile selection, span self-time
#      arithmetic, seed -> identical operation sequence, identical per-op
#      counters across two runs of one seed, the command line);
#   2. a smoke pass (tiny data, one-second window) of all four workloads,
#      untraced and traced: every run must be correct with no failed
#      operation, and must print exactly the metric names and units that
#      BENCHMARK.json lists for that kind of run - and the other way round;
#   3. outside the repository (only BENCHMARK.json and this directory) the
#      command must fail and print no result.
#
# Smoke numbers are never evidence for anything; see README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
manifest=benchmark/Cargo.toml

echo "== unit tests" >&2
cargo test --release --offline --quiet --manifest-path "$manifest"

mkdir -p "$here/out"
results="$here/out/check-$$.jsonl"
: > "$results"
for trace in 0 1; do
    for w in net-point embedded-join mixed-snapshot durable-lifecycle; do
        echo "== smoke: $w --trace $trace" >&2
        line="$(cargo run --release --offline --quiet --manifest-path "$manifest" -- \
            --workload "$w" --seed 7 --trace "$trace" --smoke 2>/dev/null | tail -n 1)"
        printf '{"workload": "%s", "trace": %s, "result": %s}\n' "$w" "$trace" "$line" >> "$results"
    done
done

python3 - "$results" BENCHMARK.json <<'EOF'
import json, sys

runs = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
listed = {
    0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
    1: {m["name"]: m["unit"] for m in spec["per_layer"]},
}
names = [w["name"] for w in spec["workloads"]]
problems = []
if sorted(names) != sorted({r["workload"] for r in runs}):
    problems.append(f"BENCHMARK.json lists workloads {names}")
for r in runs:
    where = f'{r["workload"]} --trace {r["trace"]}'
    result = r["result"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys are {sorted(result)}")
        continue
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    want = listed[r["trace"]]
    for name in sorted(set(want) - set(printed)):
        problems.append(f"{where}: {name} is in BENCHMARK.json but was not printed")
    for name in sorted(set(printed) - set(want)):
        problems.append(f"{where}: {name} was printed but is not in BENCHMARK.json")
    for name in sorted(set(printed) & set(want)):
        if printed[name] != want[name]:
            problems.append(f"{where}: {name} printed in {printed[name]}, listed in {want[name]}")
for p in problems:
    print("FAIL", p)
if problems:
    sys.exit(1)
print(f"ok: {len(runs)} smoke runs print exactly the names of BENCHMARK.json")
EOF
rm -f "$results"

echo "== outside the repository the command must fail" >&2
bare="$here/out/bare-$$"
rm -rf "$bare"
mkdir -p "$bare"
cp BENCHMARK.json "$bare/"
mkdir "$bare/benchmark"
cp -r benchmark/Cargo.toml benchmark/Cargo.lock benchmark/build.rs benchmark/src "$bare/benchmark/"
set +e
out="$(cd "$bare" && CARGO_TARGET_DIR="$bare/.bench_build" cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- --workload net-point --seed 1 --seconds 1 --trace 0 2>/dev/null)"
code=$?
set -e
rm -rf "$bare"
if [ "$code" -eq 0 ] || [ -n "$out" ]; then
    echo "FAIL the command ran outside the repository (exit $code)" >&2
    exit 1
fi
echo "ok: exit code $code and no result outside the repository"
