#!/usr/bin/env python3
"""Alternating parent/change pairs of one ``perf`` workload.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload forward_obs --seed 5 --pairs 10

``PARENT`` and ``CHANGE`` are two checkouts of this repository. Each pair runs
``python3 -m perf --workload W --seed S --seconds 12 --trace 0 --json …`` once
in each checkout, alternating which side goes first, and the summary applies
the rule a claimed gain has to meet (the choosing-metrics guide, section 8):
the change wins at least nine tenths of the pairs, ties counting for neither,
and the medians differ by more than the distance between the parent's
quartiles. Every other host-clock metric gets a verdict against its bound in
the benchmark's catalogue: ``ok``, ``WORSE`` (the change's median is worse
than the parent's by more than the bound) or ``unresolved`` (the parent's
quartile distance is wider than the bound). Metrics that must repeat exactly
(event counts, virtual latencies) are compared run by run and every
difference is listed. Every run is printed. The exit status is non-zero when
an exact metric differs, an operation failed or a metric is ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perf.metrics import END_TO_END  # noqa: E402 - the benchmark's own catalogue, read only

#: end-to-end metrics off the host clock (counts, virtual time): bit-identical
#: between two runs of one tree, so any difference is the change's doing
EXACT = tuple(name for name, _unit, _better, clock, _bound in END_TO_END if clock != "host")
HOST = tuple(name for name, _unit, _better, clock, _bound in END_TO_END if clock == "host")
HIGHER_IS_BETTER = {name for name, _unit, better, _clock, _bound in END_TO_END if better == "higher"}
#: how much worse than the parent's median a change's median may read, as a
#: fraction of the parent's median
BOUNDS = {name: bound for name, _unit, _better, _clock, bound in END_TO_END}


def run_once(checkout: str, args: argparse.Namespace, scratch: str) -> dict:
    """One untraced measurement in ``checkout``; the final JSON object."""
    path = os.path.join(scratch, "run.json")
    command = [
        sys.executable, "-m", "perf", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--json", path,
    ]
    # perf exits 1 both for a failed output check (JSON written) and for an
    # uncaught exception (none written): never read a previous run's file
    if os.path.exists(path):
        os.remove(path)
    child = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if child.returncode not in (0, 1) or not os.path.exists(path):
        sys.exit(f"{checkout}: perf exited with {child.returncode} without a usable result\n{child.stderr}")
    with open(path) as fh:
        result = json.load(fh)
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{name: cell["value"] for name, cell in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(name: str, parent: list[float], change: list[float]) -> str:
    """``ok``, ``WORSE`` or ``unresolved`` for one metric's runs on each side."""
    q1, median, q3 = quartiles(parent)
    sign = 1.0 if name in HIGHER_IS_BETTER else -1.0
    loss = sign * (median - statistics.median(change)) / median
    if loss > BOUNDS[name]:
        return "WORSE"
    every_run_better = min(sign * value for value in change) > max(sign * value for value in parent)
    if (q3 - q1) / median > BOUNDS[name] and not every_run_better:
        return "unresolved"
    return "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--metric", default="norm_records_per_s", help="the claimed metric")
    args = parser.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    sign = 1.0 if args.metric in HIGHER_IS_BETTER else -1.0

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args, scratch))
            parent, change = runs["parent"][-1], runs["change"][-1]
            print(
                f"pair {pair + 1:2d} ({order[0]} first)  {args.metric}: "
                f"parent {parent[args.metric]:.6g}  change {change[args.metric]:.6g}  "
                f"rss {parent['peak_rss_mb']:.1f} / {change['peak_rss_mb']:.1f} MB  "
                f"setup {parent['setup_s']:.3f} / {change['setup_s']:.3f} s  "
                f"failed {parent['failed']}/{parent['attempted']} , {change['failed']}/{change['attempted']}",
                flush=True,
            )

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs at --seconds {args.seconds:g}")
    summary = {}
    for side in ("parent", "change"):
        q1, q2, q3 = summary[side] = quartiles([run[args.metric] for run in runs[side]])
        print(f"  {side:7s}{args.metric} median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    gaps = [
        sign * (change[args.metric] - parent[args.metric])
        for parent, change in zip(runs["parent"], runs["change"])
    ]
    wins, ties = sum(g > 0 for g in gaps), sum(g == 0 for g in gaps)
    parent_q1, parent_median, parent_q3 = summary["parent"]
    gap = sign * (summary["change"][1] - parent_median)
    spread = parent_q3 - parent_q1
    print(f"  change wins {wins}/{args.pairs}, ties {ties}")
    print(
        f"  median gap {gap:+.6g} ({gap / parent_median:+.1%} of the parent's median) against "
        f"the parent's quartile distance {spread:.6g}: {'exceeds it' if gap > spread else 'inside it'}"
    )
    met = wins >= 0.9 * args.pairs and gap > spread
    print(f"  gain rule (wins >= 9/10 and gap > quartile distance): {'met' if met else 'NOT met'}")

    worse = False
    for name in HOST:
        if name == args.metric:
            continue
        parent_values, change_values = ([run[name] for run in runs[side]] for side in ("parent", "change"))
        judged = verdict(name, parent_values, change_values)
        worse |= judged == "WORSE"
        print(
            f"  {name}: parent median {statistics.median(parent_values):.6g}, change median "
            f"{statistics.median(change_values):.6g}, bound {BOUNDS[name]:.0%}: {judged}"
        )

    every_run = runs["parent"] + runs["change"]
    exact = True
    for name in EXACT:
        values = sorted({run[name] for run in every_run})
        if len(values) > 1:
            exact = False
            print(f"  EXACT METRIC DIFFERS  {name}: {values}")
    failed = sum(run["failed"] for run in every_run)
    if failed:
        print(f"  FAILED OPERATIONS: {failed}")
    elif exact:
        values = ", ".join(f"{name} = {every_run[0][name]!r}" for name in EXACT)
        print(f"  exact metrics identical on all {len(every_run)} runs ({values}); failed = 0")
    return 0 if exact and not failed and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
