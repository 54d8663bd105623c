#!/usr/bin/env python3
"""Per-layer cost of one ``perf`` workload in two checkouts, side by side.

    python3 scripts/layer_diff.py PARENT CHANGE --workload macro_columnar --seed 0

``PARENT`` and ``CHANGE`` are two checkouts of this repository. The script
runs ``python3 -m perf --workload W --seed S --trace 1 --json …`` once in
each and prints a Markdown table: per layer, ``calls_per_record``,
``norm_self_us_per_record`` and ``self_share`` for the parent and the change,
with the change's delta. ``--also METRIC`` (repeatable) appends any other
metric of the traced run, such as ``txn.commits``. Calls per record and the
counters are exact; self time is host time, so one traced pair shows where
time moved, not whether the change is faster (``scripts/ab_pairs.py`` does
that).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

#: the per-layer statistics, in table order
STATS = ("calls_per_record", "norm_self_us_per_record", "self_share")


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--also", action="append", default=[], metavar="METRIC",
                        help="another metric of the traced run to compare (repeatable)")
    args = parser.parse_args(argv)
    runs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for side in ("parent", "change"):
            runs[side] = run_traced(os.path.abspath(getattr(args, side)), args.workload, args.seed, scratch)
    print(f"{args.workload} seed {args.seed}, --trace 1\n")
    print(table(runs["parent"], runs["change"], args.also))
    return 0


if __name__ == "__main__":
    sys.exit(main())
