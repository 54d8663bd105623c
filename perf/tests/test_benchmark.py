"""Non-vacuity self-tests of the benchmark (run by path, not tier-1):

    python3 -m pytest perf/tests -q

A benchmark that cannot fail measures nothing, so each test breaks
something on purpose and requires the benchmark to notice.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf import harness  # noqa: E402
from perf.__main__ import main  # noqa: E402
from perf.metrics import CLOCKS, END_TO_END, PER_LAYER  # noqa: E402
from perf.workloads import WHY, ForwardObsWorkload, make_workloads  # noqa: E402

WORKLOADS = list(make_workloads())


def _quiet(_message: str) -> None:
    return None


def _cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    # the command needs no environment: drop any PYTHONPATH the tests run under
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "perf", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300, check=False,
    )


def _result(process: subprocess.CompletedProcess) -> dict:
    return json.loads(process.stdout.rstrip().splitlines()[-1])


# ----------------------------------------------------------------------
# the contract file and the code agree
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS == list(WHY)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [(name, unit, better, bound) for name, unit, better, _clock, bound in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _clock in PER_LAYER
    ]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128 and max(m["bound"] for m in spec["end_to_end"]) <= 0.25


# ----------------------------------------------------------------------
# a wrong output is counted and fails the run
# ----------------------------------------------------------------------
def test_corrupting_one_sink_record_fails_the_run(monkeypatch, capsys):
    honest_run = ForwardObsWorkload.run

    def corrupting_run(self, job):
        honest_run(self, job)
        job.sinks["out"].results[7].value = ("t", -1, 0.0)

    monkeypatch.setattr(ForwardObsWorkload, "run", corrupting_run)
    code = main(["--workload", "forward_obs", "--smoke", "--seed", "5"])
    result = json.loads(capsys.readouterr().out.rstrip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_honest_smoke_run_passes_in_process(capsys):
    assert main(["--workload", "forward_obs", "--smoke", "--seed", "5"]) == 0
    result = json.loads(capsys.readouterr().out.rstrip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 1000


# ----------------------------------------------------------------------
# slow user code shows where it should
# ----------------------------------------------------------------------
class _BusyForward(ForwardObsWorkload):
    @staticmethod
    def quantise(r: tuple) -> tuple:
        deadline = time.perf_counter() + 100e-6  # same output, 100 µs of spinning
        while time.perf_counter() < deadline:
            pass
        return (r[0], round(r[1], 3))


def test_busy_udf_lowers_throughput_and_raises_udf_share():
    plain, busy = ForwardObsWorkload(1500), _BusyForward(1500)
    rate = {
        w: harness.measure(w, seed=3, seconds=0.0, inputs_n=1, log=_quiet)
        for w in (plain, busy)
    }
    assert rate[busy]["failed"] == rate[plain]["failed"] == 0
    assert (
        rate[busy]["end_to_end"]["norm_records_per_s"]
        < 0.6 * rate[plain]["end_to_end"]["norm_records_per_s"]
    )
    # the UDF takes host time only: every exact metric is untouched
    for name in ("kernel_events_per_record", "virt_latency_p50_ms", "virt_latency_p95_ms"):
        assert rate[busy]["end_to_end"][name] == rate[plain]["end_to_end"][name]
    share = {
        w: harness.trace(w, seed=3, untraced_repeats=1, probe_scale=0.02, log=_quiet)[
            "per_layer"
        ]["udf.self_share"]
        for w in (plain, busy)
    }
    assert share[busy] > 0.3 > share[plain]


# ----------------------------------------------------------------------
# each workload does what it was chosen for
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_reports():
    return {
        name: harness.measure(workload, seed=2, seconds=0.0, inputs_n=1, log=_quiet)
        for name, workload in make_workloads(smoke=True).items()
    }


def test_preconditions_hold_and_are_not_vacuous(smoke_reports):
    for name, report in smoke_reports.items():
        assert report["failed"] == 0, (name, report["problems"])
    counters = {name: report["counters"] for name, report in smoke_reports.items()}
    for name in ("macro_scalar", "macro_columnar"):
        assert counters[name]["checkpoint.completed"] >= 4  # a quarter-size input
        assert counters[name]["txn.commits"] > 0 and counters[name]["io.sink_records"] > 0
    state = counters["state_recover"]
    assert state["checkpoint.restore_bytes"] > 0 and state["checkpoint.records_replayed"] > 0
    assert state["checkpoint.recovery_virt_ms"] > 0
    fabric = counters["fabric_tenants"]
    assert fabric["fabric.preemptions"] > 0 and fabric["fabric.quota_evictions"] > 0
    forward = counters["forward_obs"]
    assert forward["obs.markers_emitted"] >= 250 and forward["io.virt_drain_ms"] <= 50.0
    assert forward["state.reads_per_record"] == 0 == forward["txn.commits"]
    # the two macro profiles see identical inputs and produce identical output
    assert counters["macro_scalar"]["io.sink_records"] == counters["macro_columnar"]["io.sink_records"]


def test_state_recover_without_kills_reports_no_recovery():
    workload = make_workloads(smoke=True)["state_recover"]
    inputs = workload.make_inputs(4)
    job = workload.build(inputs, faults=False)
    workload.run(job)
    calm = workload.observe(job, inputs)
    job = workload.build(inputs)
    workload.run(job)
    killed = workload.observe(job, inputs)
    assert calm.failed == killed.failed == 0
    assert calm.counters["checkpoint.restore_bytes"] == 0 < killed.counters["checkpoint.restore_bytes"]
    # exactly-once: two kills later the committed output is the fault-free one
    assert calm.digests == killed.digests
    assert max(killed.pooled_latencies()) > 10 * max(calm.pooled_latencies())


def test_pinned_golden_rejects_a_changed_output():
    workload = make_workloads()["forward_obs"]
    golden = harness.load_golden()
    entry = golden["forward_obs"]["0"]["0"]
    entry["digests"] = {sink: "0" * 64 for sink in entry["digests"]}
    report = harness.measure(workload, seed=0, seconds=0.0, inputs_n=1, golden=golden, log=_quiet)
    assert report["failed"] == 1 and "golden" in report["problems"][0]


# ----------------------------------------------------------------------
# the command line a driver or CI calls
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_and_exact_metrics_repeat(workload):
    for trace, catalogue in ((0, END_TO_END), (1, PER_LAYER)):
        runs = [_cli("--workload", workload, "--smoke", "--trace", str(trace)) for _ in range(2)]
        results = []
        for process in runs:
            assert process.returncode == 0, process.stdout + process.stderr
            result = _result(process)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
            assert list(result["metrics"]) == [spec[0] for spec in catalogue]
            for spec in catalogue:
                assert result["metrics"][spec[0]]["unit"] == spec[1]
            results.append(result)
        first, second = (r["metrics"] for r in results)
        for name in first:
            if CLOCKS[name] != "host":
                assert first[name]["value"] == second[name]["value"], name
            if trace == 0:
                assert first[name]["value"] > 0, name


def test_refuses_to_run_without_the_engine(tmp_path):
    """In a directory holding only BENCHMARK.json and ``perf/`` there is no
    system to measure: non-zero exit and no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"),
    )
    process = _cli("--workload", "forward_obs", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=str(tmp_path))
    assert process.returncode != 0
    assert not any(line.startswith("{") for line in process.stdout.splitlines())
