"""Chaos smoke sweep: ``python -m repro.chaos.smoke [--budget SECONDS]``.

Runs the standard scenario grid against a reduced flag matrix under a
wall-clock budget (default 25s), printing one line per cell and a
reproducer for any violation. Exit code 1 on violation — CI runs this via
``scripts/chaos_smoke.sh``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.chaos.runner import DEFAULT_MATRIX, ChaosRunner, flags_key
from repro.chaos.scenarios import (
    macro_scenarios,
    rescale_scenarios,
    standard_scenarios,
    supervised_scenarios,
    txn_scenarios,
)

#: smoke matrix: the whole default grid, chaining off and on, which between
#: them cover both delivery code paths (channel hops and fused calls)
SMOKE_MATRIX = DEFAULT_MATRIX


def _fabric_sweep(args: argparse.Namespace) -> int:
    """Run the multi-tenant fabric chaos grid under the budget."""
    from repro.chaos.fabric import FABRIC_SCENARIOS

    started = time.monotonic()
    failures = 0
    cells = 0
    for name, scenario in FABRIC_SCENARIOS:
        for index in range(args.schedules):
            if time.monotonic() - started > args.budget:
                print(
                    f"budget exhausted after {cells} cells "
                    f"({time.monotonic() - started:.1f}s) -- stopping early"
                )
                return 1 if failures else 0
            report = scenario(args.seed + index)
            cells += 1
            status = "ok" if report.ok else "VIOLATION"
            print(
                f"{status:9s} fabric     {name:28s} tenants={report.tenants} "
                f"preemptions={report.preemptions} "
                f"states={','.join(sorted(set(report.states.values())))}"
            )
            if not report.ok:
                failures += 1
                for violation in report.violations:
                    print(f"  {violation}")
                print(report.reproducer())
    elapsed = time.monotonic() - started
    print(f"{cells} cells, {failures} violations, {elapsed:.1f}s (seed={args.seed})")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """Run the budgeted sweep; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", type=float, default=25.0, help="wall-clock budget in seconds"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("REPRO_CHAOS_SEED", "0")),
        help="sweep seed (env REPRO_CHAOS_SEED)",
    )
    parser.add_argument(
        "--schedules", type=int, default=1, help="fault schedules per grid cell"
    )
    parser.add_argument(
        "--mode",
        choices=("default", "supervised", "both"),
        default="both",
        help="recovery wiring: fixed per-guarantee policy, a Supervisor, or both",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="run with latency markers + tracing + profiling enabled "
        "(in-band probes must not change any verdict)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="checkpoint with incremental base+delta chains (recovery "
        "mechanics change, verdicts must not)",
    )
    parser.add_argument(
        "--rescale",
        action="store_true",
        help="sweep the rescale-chaos scenarios instead of the standard "
        "grid (live rescales interleaved with kills/stalls/lost barriers, "
        "under each --mode; forces incremental checkpoints so delta-chain "
        "handoff is covered)",
    )
    parser.add_argument(
        "--txn",
        action="store_true",
        help="sweep the transactional scenarios instead of the standard "
        "grid (serializable multi-partition txns over a shared store, "
        "ordered and NO-WAIT, judged by the serializability oracle under "
        "kill/barrier-loss)",
    )
    parser.add_argument(
        "--columnar",
        action="store_true",
        help="transport record-batches end to end (columnar execution; "
        "the perturbation unit grows, verdicts must not change)",
    )
    parser.add_argument(
        "--macro",
        action="store_true",
        help="sweep the macro-benchmark suite (Q1-Q5 on one interleaved "
        "source) under the kill/delay/stall palette, judged against a "
        "clean golden run with the serializability oracle armed on the "
        "Q5 store",
    )
    parser.add_argument(
        "--fabric",
        action="store_true",
        help="sweep the multi-tenant fabric scenarios: one tenant "
        "misbehaves (crash loop, quota blow-out, mid-run teardown) on a "
        "shared kernel; well-behaved neighbours are judged by the "
        "isolation oracle (sink digests identical to solo runs)",
    )
    args = parser.parse_args(argv)

    if args.fabric:
        return _fabric_sweep(args)

    modes = ("default", "supervised") if args.mode == "both" else (args.mode,)
    if args.rescale:
        # Rescale sweeps always run with incremental chains: the point is the
        # delta-chain state handoff under faults. Supervised, a failover
        # region computed before a rescale must escalate, not restore stale.
        args.incremental = True
    if args.txn:
        # Transactional sweeps run unsupervised: a shared store couples
        # failover regions, so the fixed policy's global recovery is the
        # correct scope (the region-coupling guard is tested separately).
        modes = ("default",)
    if args.macro:
        # The macro suite embeds a shared txn store too — same reasoning.
        modes = ("default",)
    started = time.monotonic()
    failures = 0
    cells = 0
    for mode in modes:
        supervised = mode == "supervised"
        if args.rescale:
            scenarios = rescale_scenarios()
        elif args.txn:
            scenarios = txn_scenarios()
        elif args.macro:
            scenarios = macro_scenarios()
        else:
            scenarios = supervised_scenarios() if supervised else standard_scenarios()
        for scenario in scenarios:
            runner = ChaosRunner(
                scenario,
                seed=args.seed,
                schedules_per_config=args.schedules,
                matrix=SMOKE_MATRIX,
                supervised=supervised,
                observability=args.obs,
                incremental=args.incremental,
                columnar=args.columnar,
            )
            for chaining in runner.matrix:
                for index in range(args.schedules):
                    if time.monotonic() - started > args.budget:
                        print(
                            f"budget exhausted after {cells} cells "
                            f"({time.monotonic() - started:.1f}s) -- stopping early"
                        )
                        return 1 if failures else 0
                    report = runner.run_one(chaining, schedule_index=index)
                    cells += 1
                    status = "ok" if report.ok else "VIOLATION"
                    outcome = (
                        "finished"
                        if report.finished
                        else ("failed-clean" if report.job_failed else "incomplete")
                    )
                    line = (
                        f"{status:9s} {mode:10s} {scenario.name:28s} "
                        f"{flags_key(chaining):8s} faults={len(report.schedule)} "
                        f"{outcome}"
                    )
                    if supervised and report.recovery.get("incidents"):
                        line += f" incidents={report.recovery['incidents']}"
                        mttr = report.recovery.get("mean_mttr")
                        if mttr is not None:
                            line += f" mttr={mttr:.4f}"
                    print(line)
                    if not report.ok:
                        failures += 1
                        minimal = runner.shrink(report)
                        print(runner.format_reproducer(minimal))
    elapsed = time.monotonic() - started
    print(f"{cells} cells, {failures} violations, {elapsed:.1f}s (seed={args.seed})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
