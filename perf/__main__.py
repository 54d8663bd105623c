"""Command line of the benchmark: ``python3 -m perf`` from the repo root.

* ``--workload NAME`` measures one workload in this process and prints one
  final JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics with ``--trace 0`` (default), the per-layer metrics
  with ``--trace 1``. This is the form a driver or CI calls.
* without ``--workload`` every workload runs in its own sequential child
  process and the tables are printed together.
* ``--probes`` runs only the isolated layer probes.

The exit code is non-zero whenever an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any

from perf import harness
from perf.metrics import CLOCKS, END_TO_END, PER_LAYER, UNITS, as_result_metrics
from perf.probes import run_probes
from perf.trace import LAYER_NAMES
from perf.workloads import WHY, make_workloads

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trajectory.jsonl")
SMOKE_INPUTS = 2


def _parse(argv: list[str] | None) -> argparse.Namespace:
    names = list(make_workloads())
    parser = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 and 1 are pinned in golden.json)")
    parser.add_argument("--seconds", type=float, default=12.0, help="how long the untraced run measures")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="inputs divided by 4, two inputs, two repeats")
    parser.add_argument("--probes", action="store_true", help="only the isolated layer probes")
    parser.add_argument("--json", metavar="PATH", help="also write the final JSON object here")
    parser.add_argument("--record", action="store_true", help="append every metric to perf/trajectory.jsonl")
    parser.add_argument(
        "--regen-golden", action="store_true",
        help="rewrite perf/golden.json (reserved for issues of kind 'benchmark')",
    )
    return parser.parse_args(argv)


def _log(message: str) -> None:
    print(message, flush=True)


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", _ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _record(report: dict[str, Any], metrics: dict[str, dict], host_score: float) -> None:
    """Append one line per (workload, metric); earlier lines are never rewritten."""
    stamp = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "host_score": host_score,
    }
    with open(TRAJECTORY_PATH, "a") as fh:
        for name, cell in metrics.items():
            line = {
                "workload": report["workload"],
                "metric": name,
                "value": cell["value"],
                "unit": cell["unit"],
                "clock": CLOCKS[name],
                "seed": report["seed"],
                "sizes": report["sizes"],
                **stamp,
            }
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def _print_end_to_end(report: dict[str, Any]) -> None:
    info = report["info"]
    _log(
        f"\n{report['workload']}  seed={report['seed']} sizes={report['sizes']} "
        f"repeats={info['repeats']} over {info['inputs']} inputs  host_score={info['host_score']:.3f}"
    )
    _log(f"  engine profile applied: {report['profile']}")
    for name, unit, better, clock, bound in END_TO_END:
        _log(
            f"  {name:28s}{report['end_to_end'][name]:>16.6g} {unit:9s}"
            f"{clock:8s} {better} is better, bound {bound:.0%}"
        )
    q1, q3 = info["norm_records_per_s_quartiles"]
    _log(
        f"  (norm_records_per_s quartiles {q1:.6g} .. {q3:.6g}; raw wall records/s "
        f"{info['raw_records_per_s']:.6g}, not gated; p50/p95 over {info['latency_samples']} pooled samples)"
    )


def _print_per_layer(report: dict[str, Any]) -> None:
    values = report["per_layer"]
    _log(f"\n{report['workload']}  seed={report['seed']} sizes={report['sizes']}  traced run")
    _log(f"  {'layer':18s}{'self_share':>12s}{'calls/record':>14s}{'norm us/record':>16s}")
    for layer in LAYER_NAMES:
        _log(
            f"  {layer:18s}{values[f'{layer}.self_share']:>12.4f}"
            f"{values[f'{layer}.calls_per_record']:>14.3f}"
            f"{values[f'{layer}.norm_self_us_per_record']:>16.3f}"
        )
    _log(
        f"  total calls/record {values['trace.total_calls_per_record']:.3f}, "
        f"tracing overhead x{values['trace.overhead_ratio']:.2f}; spans in {report['trace_file']}"
    )
    _log(f"  {'caller -> callee':38s}{'calls':>12s}{'inclusive s':>14s}")
    for edge in report["edges"][:12]:
        _log(
            f"  {edge['caller'] + ' -> ' + edge['callee']:38s}{edge['calls']:>12d}"
            f"{edge['inclusive_s']:>14.4f}"
        )
    traced = {f"{layer}.{suffix}" for layer in LAYER_NAMES
              for suffix in ("self_share", "calls_per_record", "norm_self_us_per_record")}
    for name, unit, _better, clock in PER_LAYER:
        if name not in traced and not name.startswith("trace.") and values.get(name):
            _log(f"  {name:46s}{values[name]:>16.6g} {unit:9s}{clock}")
    if report["ladder"]:
        for rung in report["ladder"]:
            _log(
                f"  ladder {rung['rate']:>7.0f}/s  p99 {rung['p99_ms']:>9.3f} ms  "
                f"drain {rung['drain_ms']:>9.3f} ms  {'ok' if rung['ok'] else 'over the limit'}"
            )


def _finish(args: argparse.Namespace, final: dict[str, Any], detail: dict | None = None) -> None:
    """The one final machine-readable object: to ``--json`` (with the full
    report when there is one) and as the last line of standard output."""
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({**final, **(detail or {})}, fh, indent=1, default=repr)
            fh.write("\n")
    _log(json.dumps(final))


def _run_one(args: argparse.Namespace) -> int:
    """One workload, in this process; the last stdout line is the result."""
    workload = make_workloads(smoke=args.smoke)[args.workload]
    if args.trace:
        report = harness.trace(
            workload, args.seed,
            untraced_repeats=1 if args.smoke else 2,
            probe_scale=0.1 if args.smoke else 1.0,
            log=_log,
        )
        metrics = as_result_metrics(report["per_layer"], PER_LAYER)
        _print_per_layer(report)
    else:
        report = harness.measure(
            workload, args.seed,
            seconds=0.0 if args.smoke else args.seconds,
            inputs_n=SMOKE_INPUTS if args.smoke else harness.INPUTS_PER_RUN,
            # goldens pin the full-size inputs of seeds 0 and 1 only
            golden=harness.load_golden()
            if args.seed in harness.GOLDEN_SEEDS and not args.smoke
            else None,
            log=_log,
        )
        metrics = as_result_metrics(report["end_to_end"], END_TO_END)
        _print_end_to_end(report)
    if args.record:
        _record(report, metrics, report["info"]["host_score"])
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    _finish(args, result, {"report": report})
    return 0 if result["correct"] else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own sequential child process (fresh
    allocator, honest ``ru_maxrss``; the engine is single threaded)."""
    results: dict[str, Any] = {}
    status = 0
    for name, why in WHY.items():
        _log(f"\n=== {name}: {why}")
        command = [
            sys.executable, "-m", "perf", "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        command += ["--smoke"] if args.smoke else []
        command += ["--record"] if args.record else []
        child = subprocess.run(command, cwd=_ROOT, capture_output=True, text=True, check=False)
        lines = child.stdout.rstrip().splitlines()
        _log("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            _log(child.stderr)
            _log(f"{name}: child exited with {child.returncode} and no result")
            status = 2
            continue
        results[name] = json.loads(lines[-1])
        status = max(status, child.returncode)
    final = {
        "correct": status == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    _finish(args, final)
    return status


def _run_probes(args: argparse.Namespace) -> int:
    probes = run_probes(0.1 if args.smoke else 1.0)
    for name, value in probes["metrics"].items():
        _log(f"  {name:46s}{value:>12.4f} {UNITS[name]}")
    _log(f"  host_score {probes['host_score']:.3f}")
    final = {
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in probes["metrics"].items()},
        "host_score": probes["host_score"],
    }
    _finish(args, final)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.regen_golden:
        golden = harness.make_golden(make_workloads(), log=_log)
        with open(harness.GOLDEN_PATH, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.probes:
        return _run_probes(args)
    if args.workload:
        return _run_one(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
