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
