#!/usr/bin/env bash
# Chaos smoke sweep: the scenario grid under seeded fault schedules, run
# twice — once with the fixed default-recovery policy, once supervised
# (restart strategies + regional failover driven by the Supervisor) —
# capped at ~30 seconds of wall clock per mode. Any oracle violation
# prints a copy-pasteable minimal reproducer and fails the script.
# Usage: scripts/chaos_smoke.sh [--seed N] [--schedules K]
#          [--mode default|supervised|both] [--obs] [--incremental]
#          [--columnar] [--rescale] [--txn] [--macro] [--fabric]
# --obs runs with latency markers + tracing + profiling on, and the
# metric-invariants oracle also holds every flame path's total monotone;
# --incremental checkpoints via base+delta chains; --columnar transports
# record-batches end to end — none of the three may change any verdict.
# --rescale swaps in the rescale-chaos grid: live key-group migrations
# interleaved with the fault palette, under the same oracles. --txn swaps
# in the transactional grid: multi-partition transfers over shared
# TxnStateStores, each shape under ordered locking and under NO-WAIT,
# judged by the serializability oracle (serial replay + conflict-graph
# acyclicity + balance conservation) on top of the standard suite. --macro
# swaps in the macro-benchmark suite (repro.macro, Q1-Q5 on one interleaved
# source) under kill/delay/stall, judged against a clean golden run with
# the serializability oracle armed on the Q5 store. --fabric swaps in the
# multi-tenant fabric grid: one tenant misbehaves (crash loop, quota
# blow-out, mid-run teardown) on a shared kernel while well-behaved
# neighbours are judged by the isolation oracle (sink digests identical
# to solo runs on dedicated kernels).
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

echo "== chaos smoke (budget 30s per mode) =="
python -m repro.chaos.smoke --budget 30 "$@"
