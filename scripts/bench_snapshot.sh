#!/usr/bin/env bash
# Runs the paper benchmarks and writes a dated JSON snapshot
# (BENCH_<date>.json in the repository root) so the performance trajectory of
# the hot paths is recorded PR over PR.
#
# Usage: scripts/bench_snapshot.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date +%F).json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

cargo bench -p dynar-bench | tee "$raw"

python3 - "$raw" "$out" <<'PY'
import datetime
import json
import re
import subprocess
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
pattern = re.compile(
    r"^(\S+)\s+time:\s+\[\s*(\S+)\s+(\S+)\s+(\S+)\s*\]\s+\((\d+) iterations\)"
)
units = {"ns": 1, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(text):
    match = re.match(r"([0-9.]+)(ns|µs|us|ms|s)$", text)
    if not match:
        raise ValueError(f"unparseable duration: {text}")
    return float(match.group(1)) * units[match.group(2)]


results = []
with open(raw_path, encoding="utf-8") as raw:
    for line in raw:
        match = pattern.match(line.strip())
        if match:
            results.append(
                {
                    "bench": match.group(1),
                    "min_ns": to_ns(match.group(2)),
                    "mean_ns": to_ns(match.group(3)),
                    "max_ns": to_ns(match.group(4)),
                    "iterations": int(match.group(5)),
                }
            )

# The fleet-tick group must include the lossy-hub datapoint so the
# reliability plane's retransmission overhead stays on the perf trajectory.
if not any("lossy" in r["bench"] for r in results):
    sys.exit("bench snapshot is missing the bench_fleet_tick lossy-hub datapoint")

# ... and the journaled-tick datapoint, so the durability plane's overhead
# stays on the trajectory too (scripts/bench_compare.sh gates it).
if not any("tick_with_journal" in r["bench"] for r in results):
    sys.exit("bench snapshot is missing the bench_fleet_tick tick_with_journal datapoint")

# ... and the campaign-tick datapoint, so the orchestration plane's overhead
# stays on the trajectory too (scripts/bench_compare.sh gates it at
# BENCH_CAMPAIGN_OVERHEAD_PCT over tick/50).
if not any("campaign_tick" in r["bench"] for r in results):
    sys.exit("bench snapshot is missing the bench_fleet_tick campaign_tick datapoint")

# ... and the large-fleet datapoints: the 10k-vehicle tick (linear-scaling
# evidence) and the par_tick row next to tick (BENCH_PAR_SPEEDUP in
# scripts/bench_compare.sh; both measure the same 8-lane round).
benches = {r["bench"] for r in results}
for required in ("bench_fleet_tick/tick/10000", "bench_fleet_tick/par_tick/500"):
    if required not in benches:
        sys.exit(f"bench snapshot is missing the {required} datapoint")

# ... and the compiled execution plane next to its interpreter baseline: a
# snapshot without the bench_vm compiled datapoint would silently drop the
# fast plane off the perf trajectory (BENCH_VM_SPEEDUP in
# scripts/bench_compare.sh).
for required in ("bench_vm/interpreter_arith", "bench_vm/compiled_arith"):
    if required not in benches:
        sys.exit(f"bench snapshot is missing the {required} datapoint")

rev = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
).stdout.strip()
snapshot = {
    "date": datetime.date.today().isoformat(),
    "git": rev,
    "command": "cargo bench -p dynar-bench",
    "results": results,
}

# Compare against the most recent previous snapshot, if any, so every
# snapshot carries its own baseline_mean_ns/speedup trajectory.
import pathlib

previous = sorted(
    p for p in pathlib.Path(".").glob("BENCH_*.json") if p.name != pathlib.Path(out_path).name
)
if previous:
    with open(previous[-1], encoding="utf-8") as prev_file:
        prev = json.load(prev_file)
    prev_means = {r["bench"]: r["mean_ns"] for r in prev.get("results", [])}
    snapshot["baseline"] = {
        "git": prev.get("git", ""),
        "note": f"previous snapshot {previous[-1].name}; mean_ns per benchmark",
        "mean_ns": prev_means,
    }
    for result in results:
        base = prev_means.get(result["bench"])
        if base:
            result["baseline_mean_ns"] = base
            result["speedup"] = round(base / result["mean_ns"], 2) if result["mean_ns"] else None

with open(out_path, "w", encoding="utf-8") as out:
    json.dump(snapshot, out, indent=2)
    out.write("\n")
print(f"wrote {out_path} ({len(results)} benchmarks)")
PY
