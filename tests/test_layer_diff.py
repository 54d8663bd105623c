"""``scripts/layer_diff.py``: two traced runs, one per-layer table."""

import importlib.util
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "layer_diff.py")
_spec = importlib.util.spec_from_file_location("layer_diff", _SCRIPT)
layer_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_diff)

#: a stand-in ``perf`` that writes a traced result for the JSON ``--json``
#: names; ``TXN_CALLS`` is the one figure the two checkouts differ in
_WRITES = """
import json, sys
assert sys.argv[sys.argv.index("--trace") + 1] == "1"
path = sys.argv[sys.argv.index("--json") + 1]
metrics = {
    "sim.self_share": 0.25, "sim.calls_per_record": 6.0, "sim.norm_self_us_per_record": 2.0,
    "txn.self_share": 0.5, "txn.calls_per_record": TXN_CALLS, "txn.norm_self_us_per_record": 4.0,
    "trace.total_calls_per_record": 40.0, "txn.commits": 3600,
}
with open(path, "w") as fh:
    json.dump({"failed": 0, "attempted": 1, "metrics": {k: {"value": v} for k, v in metrics.items()}}, fh)
"""


def _checkout(root, main):
    package = root / "perf"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(main)
    return str(root)


def test_prints_each_layer_side_by_side_with_deltas(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _WRITES.replace("TXN_CALLS", "16.8"))
    change = _checkout(tmp_path / "change", _WRITES.replace("TXN_CALLS", "4.5"))
    assert layer_diff.main([parent, change, "--workload", "w", "--seed", "0", "--also", "txn.commits"]) == 0
    out = capsys.readouterr().out
    rows = {line.split(" | ")[0].strip("| "): line for line in out.splitlines() if line.startswith("| ")}
    assert rows["sim"] == "| sim | 6 | 6 | +0 | 2 | 2 | +0 | 0.25 | 0.25 | +0 |"
    assert rows["txn"] == "| txn | 16.8 | 4.5 | -12.3 | 4 | 4 | +0 | 0.5 | 0.5 | +0 |"
    assert rows["txn.commits"] == "| txn.commits | 3600 | 3600 | +0 |"
    assert "trace" not in rows  # trace.total_calls_per_record is no layer
    assert rows["trace.total_calls_per_record"] == "| trace.total_calls_per_record | 40 | 40 | +0 |"


def test_a_perf_that_raises_aborts_with_the_childs_stderr(tmp_path):
    good = _checkout(tmp_path / "good", _WRITES.replace("TXN_CALLS", "1.0"))
    broken = _checkout(tmp_path / "broken", 'raise RuntimeError("benchmark broke")\n')
    with pytest.raises(SystemExit) as aborted:
        layer_diff.main([good, broken, "--workload", "w", "--seed", "0"])
    assert "without a usable result" in aborted.value.code and "benchmark broke" in aborted.value.code


def test_a_metric_only_one_side_has_reads_as_a_dash():
    text = layer_diff.table({"new.calls_per_record": 1.0}, {}, [])
    assert "| new | 1 | — | — |" in text


def test_an_exact_per_layer_metric_that_moved_is_listed_and_fails(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _WRITES.replace("TXN_CALLS", "16.8"))
    change = _checkout(
        tmp_path / "change",
        _WRITES.replace("TXN_CALLS", "4.5").replace('"txn.commits": 3600', '"txn.commits": 3601'),
    )
    assert layer_diff.main([parent, change, "--workload", "w", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "| txn.commits | 3600 | 3601 |" in out
    # calls per record moved too, but a frame-count change is meant to move them
    assert "txn.calls_per_record |" not in out.split("moved:")[1]


def test_the_exact_set_is_the_catalogues_count_and_virtual_metrics():
    assert "state.reads_per_record" in layer_diff.EXACT
    assert "checkpoint.restore_bytes" in layer_diff.EXACT
    assert "io.virt_drain_ms" in layer_diff.EXACT
    assert not any(
        name.endswith(".calls_per_record") or name.startswith("trace.") for name in layer_diff.EXACT
    )
    assert "state.probe.get_us" not in layer_diff.EXACT  # host clock


def _benchmark(tmp_path, monkeypatch, names):
    declared = tmp_path / "BENCHMARK.json"
    declared.write_text('{"workloads": [' + ", ".join(f'{{"name": "{n}"}}' for n in names) + "]}")
    monkeypatch.setattr(layer_diff, "BENCHMARK", str(declared))


def test_all_runs_a_pair_per_declared_workload_and_prints_a_table_each(tmp_path, monkeypatch, capsys):
    _benchmark(tmp_path, monkeypatch, ["w1", "w2"])
    parent = _checkout(tmp_path / "parent", _WRITES.replace("TXN_CALLS", "16.8"))
    change = _checkout(tmp_path / "change", _WRITES.replace("TXN_CALLS", "4.5"))
    assert layer_diff.main([parent, change, "--workload", "all", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "w1 seed 3, --trace 1" in out and "w2 seed 3, --trace 1" in out
    assert out.count("| txn | 16.8 | 4.5 | -12.3 |") == 2
    assert "  w1              nothing exact moved" in out and "  w2              nothing exact moved" in out


def test_all_fails_when_an_exact_metric_moved_on_one_workload(tmp_path, monkeypatch, capsys):
    _benchmark(tmp_path, monkeypatch, ["w1", "w2"])
    parent = _checkout(tmp_path / "parent", _WRITES.replace("TXN_CALLS", "16.8"))
    # only on w2 does the change commit one more transaction
    moves_on_w2 = _WRITES.replace("TXN_CALLS", "4.5").replace(
        '"txn.commits": 3600', '"txn.commits": 3600 + (sys.argv[sys.argv.index("--workload") + 1] == "w2")'
    )
    change = _checkout(tmp_path / "change", moves_on_w2)
    assert layer_diff.main([parent, change, "--workload", "all", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "  w1              nothing exact moved" in out
    assert "  w2              exact metrics moved: txn.commits" in out
    assert out.split("w2 seed 0")[1].count("| txn.commits | 3600 | 3601 |") == 1


def test_the_declared_workloads_are_the_benchmarks():
    assert layer_diff.benchmark_workloads() == [
        "macro_scalar", "macro_columnar", "state_recover", "fabric_tenants", "forward_obs"
    ]
