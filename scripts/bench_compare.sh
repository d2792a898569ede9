#!/usr/bin/env bash
# Compares two benchmark snapshots produced by scripts/bench_snapshot.sh and
# fails when any pinned benchmark's mean regressed by more than the allowed
# tolerance (default 15 %).
#
# Usage: scripts/bench_compare.sh <baseline.json> <candidate.json>
#
# Environment:
#   BENCH_COMPARE_TOLERANCE_PCT  maximum allowed mean regression per pinned
#                                benchmark, in percent (default: 15)
#   BENCH_JOURNAL_OVERHEAD_PCT   maximum allowed journaling overhead of
#                                tick_with_journal/50 over tick/50 within the
#                                candidate snapshot, in percent (default: 50;
#                                tighten on a quiet dedicated runner)
#   BENCH_CAMPAIGN_OVERHEAD_PCT  maximum allowed campaign-plane overhead of
#                                campaign_tick/50 over tick/50 within the
#                                candidate snapshot, in percent (default: 10;
#                                a held campaign's per-tick gate evaluation
#                                must stay a rounding error on the fleet tick)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <baseline.json> <candidate.json>" >&2
    exit 2
fi

baseline="$1" candidate="$2" \
tolerance="${BENCH_COMPARE_TOLERANCE_PCT:-15}" \
journal_overhead="${BENCH_JOURNAL_OVERHEAD_PCT:-50}" \
campaign_overhead="${BENCH_CAMPAIGN_OVERHEAD_PCT:-10}" \
python3 - <<'PY'
import json
import os
import sys

baseline_path = os.environ["baseline"]
candidate_path = os.environ["candidate"]
tolerance = float(os.environ["tolerance"])
journal_overhead = float(os.environ["journal_overhead"])
campaign_overhead = float(os.environ["campaign_overhead"])

# The hot paths whose trajectory is pinned PR over PR.  New benchmarks (and
# retired ones) are reported but never fail the comparison: only a pinned
# benchmark present in BOTH snapshots can regress.
PINNED = [
    "fig3_signal_chain/drive_10_ticks",
    "e1_deployment/plan_remote_control_app",
    "e2_mediation_overhead/direct_rte_route",
    "e2_mediation_overhead/pirte_mediated_route",
    "e6_port_multiplexing/dispatch_type_ii/1",
    "e6_port_multiplexing/dispatch_type_ii/16",
    "e6_port_multiplexing/dispatch_type_ii/64",
    "bench_fleet_tick/tick/10",
    "bench_fleet_tick/tick/50",
    "bench_fleet_tick/tick/100",
    "bench_fleet_tick/tick/500",
    "bench_fleet_tick/tick/10000",
    "bench_fleet_tick/par_tick/500",
    "bench_fleet_tick/lossy_tick/50",
    "bench_fleet_tick/tick_with_journal/50",
    "bench_fleet_tick/campaign_tick/50",
    "bench_vm/interpreter_arith",
    "bench_vm/interpreter_ports",
    "bench_vm/interpreter_branch",
]


def means(path):
    with open(path, encoding="utf-8") as f:
        snapshot = json.load(f)
    return {r["bench"]: r["mean_ns"] for r in snapshot.get("results", [])}


base = means(baseline_path)
cand = means(candidate_path)

# A pinned benchmark missing from the CANDIDATE is its own, explicit
# failure mode: the old behaviour ("skipped", then a confusing pass or an
# unrelated KeyError) hid renamed or silently-dropped hot-path benchmarks.
# Missing only from the BASELINE means the benchmark was pinned after the
# baseline was recorded — it has no trajectory yet, so it is reported and
# skipped, never failed (the next snapshot starts its trajectory).
missing = [bench for bench in PINNED if bench not in cand]
if missing:
    print("FAIL: pinned benchmark(s) missing from the candidate snapshot "
          f"({candidate_path}):", file=sys.stderr)
    for bench in missing:
        print(f"  {bench}", file=sys.stderr)
    print("(renamed a benchmark? update PINNED in scripts/bench_compare.sh "
          "and re-record the snapshot)", file=sys.stderr)
    sys.exit(3)
for bench in PINNED:
    if bench not in base:
        print(f"  {bench}: newly pinned (absent from baseline "
              f"{baseline_path}) — no trajectory to gate yet")

failures = []
print(f"comparing {candidate_path} against {baseline_path} "
      f"(tolerance {tolerance:.0f}%)")
for bench in sorted(set(base) | set(cand)):
    b, c = base.get(bench), cand.get(bench)
    if b is None or c is None:
        print(f"  {bench}: only in {'candidate' if b is None else 'baseline'} — skipped (not pinned)")
        continue
    delta_pct = (c - b) / b * 100.0
    pinned = bench in PINNED
    marker = " "
    if pinned and delta_pct > tolerance:
        failures.append((bench, b, c, delta_pct))
        marker = "!"
    print(f"  {marker} {bench}: {b:.0f} ns -> {c:.0f} ns ({delta_pct:+.1f}%"
          f"{', pinned' if pinned else ''})")

if failures:
    print(f"\nFAIL: {len(failures)} pinned benchmark(s) regressed beyond "
          f"{tolerance:.0f}%:", file=sys.stderr)
    for bench, b, c, delta in failures:
        print(f"  {bench}: {b:.0f} ns -> {c:.0f} ns ({delta:+.1f}%)", file=sys.stderr)
    sys.exit(1)

# Durability must stay close to free: within the candidate snapshot alone,
# the journaled steady-state tick may cost at most journal_overhead % more
# than the plain one.  This is an absolute property of the candidate, not a
# trajectory, so it holds even when the baseline predates the journal.
#
# The ratio is taken over min_ns, and the default allowance is deliberately
# loose: the two benchmarks are measured in separate windows, and on a busy
# shared runner the windows drift by ±30% minute over minute (an interleaved
# A/B of the same two scenarios measures the true overhead at ~5%).  The
# gate exists to catch *structural* regressions — journaling going O(V) per
# tick, or compaction firing every append — which show up as 2x+, far above
# any drift.  Tighten via BENCH_JOURNAL_OVERHEAD_PCT on a quiet runner.


def mins(path):
    with open(path, encoding="utf-8") as f:
        snapshot = json.load(f)
    return {r["bench"]: r["min_ns"] for r in snapshot.get("results", [])}


cand_min = mins(candidate_path)
plain = cand_min["bench_fleet_tick/tick/50"]
journaled = cand_min["bench_fleet_tick/tick_with_journal/50"]
overhead_pct = (journaled - plain) / plain * 100.0
print(f"journal overhead (min): tick/50 {plain:.0f} ns -> tick_with_journal/50 "
      f"{journaled:.0f} ns ({overhead_pct:+.1f}%, allowed {journal_overhead:.0f}%)")
if overhead_pct > journal_overhead:
    print(f"FAIL: journaling overhead {overhead_pct:+.1f}% exceeds "
          f"{journal_overhead:.0f}%", file=sys.stderr)
    sys.exit(1)

# The campaign plane must stay near-free on the steady-state tick: within
# the candidate snapshot alone, the tick with a held mid-wave campaign
# (whole fleet exposed, gate re-evaluated every round) may cost at most
# campaign_overhead % more than the plain one.  Like the journal gate this
# is an absolute property of the candidate, measured over min_ns; the tight
# default catches the structural failure — gate evaluation going O(fleet)
# work per exposed vehicle, or verdict records being journaled on held
# rounds — not runner drift.
campaigned = cand_min["bench_fleet_tick/campaign_tick/50"]
overhead_pct = (campaigned - plain) / plain * 100.0
print(f"campaign overhead (min): tick/50 {plain:.0f} ns -> campaign_tick/50 "
      f"{campaigned:.0f} ns ({overhead_pct:+.1f}%, allowed {campaign_overhead:.0f}%)")
if overhead_pct > campaign_overhead:
    print(f"FAIL: campaign overhead {overhead_pct:+.1f}% exceeds "
          f"{campaign_overhead:.0f}%", file=sys.stderr)
    sys.exit(1)

# The compiled execution plane, report-only: BENCH_VM_SPEEDUP is the fast
# plane against the pinned interpreter baseline per workload shape within
# the candidate snapshot.  Not gated — the interpreter datapoints above pin
# the baseline itself, and the speedup is runner-dependent; the bench binary
# already fails outright if superinstructions stop firing.
for workload in ("arith", "ports", "branch"):
    interp = cand.get(f"bench_vm/interpreter_{workload}")
    compiled = cand.get(f"bench_vm/compiled_{workload}")
    if interp and compiled:
        print(f"BENCH_VM_SPEEDUP/{workload}: {interp / compiled:.2f}x "
              f"(interpreter {interp:.0f} ns vs compiled {compiled:.0f} ns, "
              "report-only)")

# Report-only: BENCH_PAR_SPEEDUP is par_tick against tick at equal fleet
# size.  The server has one vehicle table now, so both rows measure the same
# 8-lane round (vehicle lanes on the lane pool, server phases on the
# caller's thread); the ratio is not gated and sits near 1 by construction.
for size in ("500", "10000"):
    serial = cand.get(f"bench_fleet_tick/tick/{size}")
    par = cand.get(f"bench_fleet_tick/par_tick/{size}")
    if serial and par:
        print(f"BENCH_PAR_SPEEDUP/{size}: {serial / par:.2f}x "
              f"(tick/{size} {serial:.0f} ns vs par_tick/{size} {par:.0f} ns, "
              "report-only)")

print("OK: no pinned benchmark regressed beyond the tolerance")
PY
