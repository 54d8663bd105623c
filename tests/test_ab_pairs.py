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

