"""``scripts/ab_pairs.py``: a run that wrote no result never reads another
run's, and every host metric is judged against its bound."""

import argparse
import importlib.util
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

ARGS = argparse.Namespace(workload="forward_obs", seed=0, seconds=1.0)

#: a stand-in ``perf`` that writes the result JSON ``--json`` names
_WRITES = """
import json, sys
path = sys.argv[sys.argv.index("--json") + 1]
with open(path, "w") as fh:
    json.dump({"failed": 0, "attempted": 3, "metrics": {"setup_s": {"value": 0.5}}}, fh)
"""


def _checkout(root, main):
    package = root / "perf"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(main)
    return str(root)


def test_a_perf_that_raises_aborts_instead_of_reporting_the_last_run(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    good = _checkout(tmp_path / "good", _WRITES)
    broken = _checkout(tmp_path / "broken", 'raise RuntimeError("benchmark broke")\n')
    assert ab_pairs.run_once(good, ARGS, str(scratch)) == {"failed": 0, "attempted": 3, "setup_s": 0.5}
    with pytest.raises(SystemExit) as aborted:
        ab_pairs.run_once(broken, ARGS, str(scratch))
    assert "benchmark broke" in str(aborted.value.code)
    assert not (scratch / "run.json").exists()


def test_a_first_run_that_writes_nothing_aborts_with_the_childs_stderr(tmp_path):
    broken = _checkout(tmp_path / "broken", 'raise RuntimeError("benchmark broke")\n')
    with pytest.raises(SystemExit) as aborted:
        ab_pairs.run_once(broken, ARGS, str(tmp_path))
    assert "without a usable result" in aborted.value.code and "benchmark broke" in aborted.value.code


@pytest.mark.parametrize(
    "name, parent, change, expected",
    [
        # lower is better, bound 25 %: +10 % is within it, +40 % is not
        ("setup_s", [1.0, 1.0, 1.0, 1.0], [1.1, 1.1, 1.1, 1.1], "ok"),
        ("setup_s", [1.0, 1.0, 1.0, 1.0], [1.4, 1.4, 1.4, 1.4], "WORSE"),
        # bound 5 %: a parent quartile distance of 10 % cannot tell a 2 % loss
        # from noise
        ("peak_rss_mb", [80.0, 100.0, 100.0, 120.0], [102.0, 102.0, 102.0, 102.0], "unresolved"),
        # ... unless every change run reads better than every parent run
        ("peak_rss_mb", [80.0, 100.0, 100.0, 120.0], [70.0, 70.0, 70.0, 70.0], "ok"),
        # higher is better, bound 15 %
        ("norm_records_per_s", [100.0, 100.0, 100.0, 100.0], [80.0, 80.0, 80.0, 80.0], "WORSE"),
        ("norm_records_per_s", [100.0, 100.0, 100.0, 100.0], [120.0, 120.0, 120.0, 120.0], "ok"),
    ],
)
def test_verdict(name, parent, change, expected):
    assert ab_pairs.verdict(name, parent, change) == expected



def test_a_claimed_metric_that_regressed_past_its_bound_exits_non_zero(monkeypatch, capsys):
    """The claimed metric is judged like every other host metric: a claim
    that lost 20 % of its throughput (bound 15 %) is ``WORSE``, not skipped."""
    base = {name: 1.0 for name, *_rest in ab_pairs.END_TO_END}

    def fake_run(checkout, args, scratch):
        rate = 100.0 if checkout.endswith("parent") else 80.0
        return {**base, "norm_records_per_s": rate, "failed": 0, "attempted": 1}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    monkeypatch.setattr(
        "sys.argv", ["ab_pairs.py", "/parent", "/change", "--workload", "w", "--seed", "0", "--pairs", "2"]
    )
    assert ab_pairs.main() == 1
    assert "norm_records_per_s: parent median 100, change median 80, bound 15%: WORSE" in capsys.readouterr().out


def _writes_every_metric(values: dict) -> str:
    """A stand-in ``perf`` that reports every end-to-end metric, 1.0 unless
    ``values`` (workload -> {metric: value}) says otherwise."""
    names = [name for name, *_rest in ab_pairs.END_TO_END]
    return f"""
import json, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
metrics = {{name: 1.0 for name in {names!r}}}
metrics.update({values!r}.get(workload, {{}}))
path = sys.argv[sys.argv.index("--json") + 1]
with open(path, "w") as fh:
    json.dump({{"failed": 0, "attempted": 3, "metrics": {{n: {{"value": v}} for n, v in metrics.items()}}}}, fh)
"""


@pytest.mark.parametrize("differs", [False, True])
def test_workload_all_runs_every_benchmark_workload_and_prints_one_row_each(tmp_path, monkeypatch, capsys, differs):
    """``--workload all`` runs the pairs on each workload BENCHMARK.json
    names; an exact metric that differs on one of them fails the whole run."""
    workloads = ab_pairs.benchmark_workloads()
    odd = workloads[-1]
    parent = _checkout(tmp_path / "parent", _writes_every_metric({}))
    change_values = {odd: {"kernel_events_per_record": 2.0}} if differs else {}
    change = _checkout(tmp_path / "change", _writes_every_metric(change_values))
    monkeypatch.setattr(
        "sys.argv", ["ab_pairs.py", parent, change, "--workload", "all", "--seed", "0", "--pairs", "2"]
    )
    assert ab_pairs.main() == (1 if differs else 0)
    out = capsys.readouterr().out
    rows = out[out.index("all workloads, seed 0, 2 pairs each"):].splitlines()[1:]
    assert [row.split()[0] for row in rows] == workloads
    for workload, row in zip(workloads, rows):
        assert "gain rule NOT met (0/2 wins, +0.0%)" in row
        assert "setup_s ok" in row and "norm_records_per_s ok" in row and "peak_rss_mb ok" in row
        assert row.endswith("DIFFER  failed 0" if differs and workload == odd else "identical  failed 0")
