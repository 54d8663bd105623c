#!/usr/bin/env python3
"""Per-layer cost of one ``perf`` workload in two checkouts, side by side.

    python3 scripts/layer_diff.py PARENT CHANGE --workload macro_columnar --seed 0
    python3 scripts/layer_diff.py PARENT CHANGE --workload all --seed 0

``PARENT`` and ``CHANGE`` are two checkouts of this repository. The script
runs ``python3 -m perf --workload W --seed S --trace 1 --json …`` once in
each and prints a Markdown table: per layer, ``calls_per_record``,
``norm_self_us_per_record`` and ``self_share`` for the parent and the change,
with the change's delta. ``--also METRIC`` (repeatable) appends any other
metric of the traced run, such as ``txn.commits``. Calls per record and the
counters are exact; self time is host time, so one traced pair shows where
time moved, not whether the change is faster (``scripts/ab_pairs.py`` does
that).

After the tables it lists every per-layer metric of the benchmark's
catalogue (``perf.metrics.PER_LAYER``) whose clock is ``count`` or
``virtual`` — state reads and writes, checkpoint and restore bytes, sink
records … — and that moved, leaving out the ``*.calls_per_record`` and
``trace.*`` rows, which a frame-count change is meant to move. It exits 1
when any of them moved: one command for "nothing exact moved".
``--workload all`` does this for every workload ``BENCHMARK.json`` names,
one table each, and exits 1 when an exact metric moved on any of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the benchmark declaration whose workloads ``--workload all`` runs
BENCHMARK = os.path.join(_ROOT, "BENCHMARK.json")
sys.path.insert(0, _ROOT)
from perf.metrics import PER_LAYER  # noqa: E402 - the benchmark's own catalogue, read only

#: the per-layer statistics, in table order
STATS = ("calls_per_record", "norm_self_us_per_record", "self_share")
#: per-layer metrics that repeat exactly for a seed and that a change which
#: only removes frames must leave alone
EXACT = tuple(
    name
    for name, _unit, _better, clock in PER_LAYER
    if clock in ("count", "virtual")
    and not name.endswith(".calls_per_record")
    and not name.startswith("trace.")
)


def run_traced(checkout: str, workload: str, seed: int, scratch: str) -> dict[str, float]:
    """One traced run in ``checkout``; its metrics as ``{name: value}``."""
    path = os.path.join(scratch, "trace.json")
    # never read a previous run's file: perf writes none when it raises
    if os.path.exists(path):
        os.remove(path)
    command = [
        sys.executable, "-m", "perf", "--workload", workload, "--seed", str(seed),
        "--trace", "1", "--json", path,
    ]
    child = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if child.returncode not in (0, 1) or not os.path.exists(path):
        sys.exit(f"{checkout}: perf exited with {child.returncode} without a usable result\n{child.stderr}")
    with open(path) as fh:
        result = json.load(fh)
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def layers(metrics: dict[str, float]) -> list[str]:
    """Layer names, in the order the traced run reports them."""
    suffix = "." + STATS[0]
    return [
        name[: -len(suffix)]
        for name in metrics
        if name.endswith(suffix) and not name.startswith("trace.")
    ]


def _cell(value: float | None) -> str:
    return "—" if value is None else f"{value:.4g}"


def _delta(parent: float | None, change: float | None) -> str:
    if parent is None or change is None:
        return "—"
    return f"{change - parent:+.4g}"


def table(parent: dict[str, float], change: dict[str, float], also: list[str]) -> str:
    """The Markdown comparison of two traced runs' metrics."""
    head = ["layer"]
    for stat in STATS:
        head += [f"{stat} parent", "change", "Δ"]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for layer in dict.fromkeys(layers(parent) + layers(change)):
        row = [layer]
        for stat in STATS:
            name = f"{layer}.{stat}"
            before, after = parent.get(name), change.get(name)
            row += [_cell(before), _cell(after), _delta(before, after)]
        lines.append("| " + " | ".join(row) + " |")
    extra = ["trace.total_calls_per_record", *also]
    lines += ["", "| metric | parent | change | Δ |", "|---|---|---|---|"]
    for name in extra:
        before, after = parent.get(name), change.get(name)
        lines.append(f"| {name} | {_cell(before)} | {_cell(after)} | {_delta(before, after)} |")
    return "\n".join(lines)


def moved(parent: dict[str, float], change: dict[str, float]) -> list[str]:
    """The :data:`EXACT` metrics whose value differs between the runs."""
    return [name for name in EXACT if parent.get(name) != change.get(name)]


def compare(sides: dict[str, str], workload: str, seed: int, also: list[str]) -> list[str]:
    """One traced pair of ``workload``: print its tables and return the
    exact metrics that moved."""
    runs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for side in ("parent", "change"):
            runs[side] = run_traced(sides[side], workload, seed, scratch)
    print(f"{workload} seed {seed}, --trace 1\n")
    print(table(runs["parent"], runs["change"], also))
    changed = moved(runs["parent"], runs["change"])
    if not changed:
        print(f"\nno exact per-layer metric moved ({len(EXACT)} compared)")
        return changed
    # full values: an exact metric that moved in its fifth digit still moved
    print("\nexact per-layer metrics that moved:\n")
    print("| metric | parent | change |\n|---|---|---|")
    for name in changed:
        print(f"| {name} | {runs['parent'].get(name, '—')} | {runs['change'].get(name, '—')} |")
    return changed


def benchmark_workloads() -> list[str]:
    """The workloads ``BENCHMARK.json`` names, in its order."""
    with open(BENCHMARK) as fh:
        return [workload["name"] for workload in json.load(fh)["workloads"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a perf workload, or 'all' of BENCHMARK.json's")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--also", action="append", default=[], metavar="METRIC",
                        help="another metric of the traced run to compare (repeatable)")
    args = parser.parse_args(argv)
    sides = {side: os.path.abspath(getattr(args, side)) for side in ("parent", "change")}
    workloads = benchmark_workloads() if args.workload == "all" else [args.workload]
    moved_on = {}
    for index, workload in enumerate(workloads):
        if index:
            print()
        moved_on[workload] = compare(sides, workload, args.seed, args.also)
    if args.workload == "all":
        print(f"\nall workloads, seed {args.seed}")
        for workload, changed in moved_on.items():
            print(f"  {workload:15s} {'exact metrics moved: ' + ', '.join(changed) if changed else 'nothing exact moved'}")
    return 1 if any(moved_on.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
