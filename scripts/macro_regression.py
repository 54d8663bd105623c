#!/usr/bin/env python3
"""Diff a fresh macro-benchmark run against the committed baseline.

Usage:
    python scripts/macro_regression.py --baseline BENCH_macro.json \
        --fresh /tmp/macro_fresh.json [--baseline-section macro_suite_ci] \
        [--fresh-section macro_suite] [--threshold 0.2]

Per (config, query) cell, one hard gate and one printed warning:

* **correctness** (gate) — the deterministic sink digests must match the
  committed baseline bit-for-bit (same seed + scale ⇒ same outputs,
  whatever machine runs it). Q4's digest hashes libm/numpy float
  results, which may legitimately differ across platforms/BLAS builds,
  so Q4 falls back to output-count equality and a digest *warning*;
* **throughput** (warning only) — a per-query records/s drop of more than
  ``--threshold`` (default 20%) after dividing the per-cell fresh/baseline
  ratios by their own median is printed, never failed on: one single-shot
  wall sample per cell trips on an unmodified tree, a change that speeds
  up most configs makes the untouched ones look regressed, and a uniform
  slowdown cancels out entirely. ``python3 -m perf`` is the throughput gate.

Exit codes: 0 clean, 1 digest mismatch, 2 usage/shape error.
"""

from __future__ import annotations

import argparse
import json
import sys

#: queries whose digests are pure-Python arithmetic → platform-stable
EXACT_DIGEST_QUERIES = ("q1", "q2", "q3", "q5")


def load_section(path: str, section: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if section not in data:
        raise KeyError(f"{path} has no section {section!r} (has: {sorted(data)})")
    return data[section]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def compare(baseline: dict, fresh: dict, threshold: float) -> tuple[list[str], list[str]]:
    """Returns (failures, warnings)."""
    failures: list[str] = []
    warnings: list[str] = []

    if baseline.get("seed") != fresh.get("seed") or baseline.get("scale") != fresh.get(
        "scale"
    ):
        failures.append(
            f"baseline (seed={baseline.get('seed')}, scale={baseline.get('scale')}) and "
            f"fresh (seed={fresh.get('seed')}, scale={fresh.get('scale')}) runs are not "
            "comparable — regenerate the committed baseline"
        )
        return failures, warnings

    if not fresh.get("equivalence", {}).get("ok", False):
        failures.append(
            f"fresh run failed its own equivalence judge: "
            f"{fresh['equivalence']['mismatches']}"
        )

    shared_configs = sorted(set(baseline["configs"]) & set(fresh["configs"]))
    if not shared_configs:
        failures.append("no configurations in common between baseline and fresh run")
        return failures, warnings
    for name in sorted(set(baseline["configs"]) - set(fresh["configs"])):
        warnings.append(f"config {name!r} in baseline but missing from fresh run")

    ratios: list[float] = []
    cells: list[tuple[str, str, dict, dict]] = []
    for name in shared_configs:
        base_cells = baseline["configs"][name]["cells"]
        fresh_cells = fresh["configs"][name]["cells"]
        for query in sorted(set(base_cells) & set(fresh_cells)):
            base, new = base_cells[query], fresh_cells[query]
            cells.append((name, query, base, new))
            if base["throughput_records_per_wall_sec"] > 0:
                ratios.append(
                    new["throughput_records_per_wall_sec"]
                    / base["throughput_records_per_wall_sec"]
                )

    # Correctness gate.
    for name, query, base, new in cells:
        if query in EXACT_DIGEST_QUERIES:
            if new["digest"] != base["digest"]:
                failures.append(
                    f"{name}/{query}: sink digest diverged from committed baseline "
                    f"({base['digest'][:12]}… -> {new['digest'][:12]}…)"
                )
        else:
            if new["outputs"] != base["outputs"]:
                failures.append(
                    f"{name}/{query}: output count changed "
                    f"{base['outputs']} -> {new['outputs']}"
                )
            elif new["digest"] != base["digest"]:
                warnings.append(
                    f"{name}/{query}: digest differs (float-platform tolerance; "
                    "counts match)"
                )

    # Throughput, machine-speed normalised: informational (see module doc).
    if ratios and (machine_factor := median(ratios)) > 0:
        floor = 1.0 - threshold
        for name, query, base, new in cells:
            base_tput = base["throughput_records_per_wall_sec"]
            if base_tput <= 0:
                continue
            normalised = (
                new["throughput_records_per_wall_sec"] / base_tput
            ) / machine_factor
            if normalised < floor:
                warnings.append(
                    f"{name}/{query}: throughput at "
                    f"{normalised:.2f}x of baseline after machine normalisation "
                    f"(floor {floor:.2f}, raw "
                    f"{base_tput:.0f} -> {new['throughput_records_per_wall_sec']:.0f} "
                    f"rec/s, machine factor {machine_factor:.2f})"
                )
    return failures, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_macro.json")
    parser.add_argument("--fresh", required=True, help="freshly generated run")
    parser.add_argument("--baseline-section", default="macro_suite_ci")
    parser.add_argument("--fresh-section", default="macro_suite")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="per-query normalised throughput drop that prints a warning",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_section(args.baseline, args.baseline_section)
        fresh = load_section(args.fresh, args.fresh_section)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures, warnings = compare(baseline, fresh, args.threshold)
    for warning in warnings:
        print(f"warning: {warning}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}")
        print(f"{len(failures)} regression(s) against {args.baseline}")
        return 1
    print(
        f"macro regression gate clean: "
        f"baseline {args.baseline}[{args.baseline_section}] vs "
        f"{args.fresh}[{args.fresh_section}]: every digest equal"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
