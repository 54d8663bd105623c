"""``scripts/reach.py``: which functions tier-1 and the system runs reach."""

import importlib.util
import os
import sys

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "reach.py")
_spec = importlib.util.spec_from_file_location("reach", _SCRIPT)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

_MODULE = '''
import functools


def by_test():
    return 1


@functools.lru_cache(maxsize=None)
def by_system():
    return Shape().area()


def by_nothing():
    return 3


class Shape:
    def area(self):
        return 2

    def perimeter(self):
        raise NotImplementedError
'''


def _call(*names):
    return [sys.executable, "-c", "import fixture_pkg.mod as m; " + "; ".join(f"m.{n}()" for n in names)]


def test_tier1_and_system_reach_are_told_apart(tmp_path):
    src = tmp_path / "fixture_pkg"
    src.mkdir()
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(_MODULE)
    tier1 = reach.record([_call("by_test", "by_system")], str(src), str(tmp_path))
    system = reach.record([_call("by_system")], str(src), str(tmp_path))
    rows, totals = reach.classify(reach.functions(str(src)), tier1, system)
    reached = {row["function"]: (row["tier1"], row["system"]) for row in rows}
    assert reached == {
        "by_test": (True, False),
        # decorated: its code object starts at the decorator's line
        "by_system": (True, True),
        "by_nothing": (False, False),
        "Shape.area": (True, True),
        "Shape.perimeter": (False, False),
    }
    assert [row["function"] for row in rows if row["stub"]] == ["Shape.perimeter"]
    assert totals["test_only"] == 1 and totals["test_only_statements"] == 1
    assert totals["unreached"] == 2 and totals["unreached_non_stub"] == 1
    assert {row["file"] for row in rows} == {"fixture_pkg/mod.py"}


def test_a_failing_command_prints_its_output(tmp_path, capsys):
    src = tmp_path / "fixture_pkg"
    src.mkdir()
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(_MODULE)
    failing = [sys.executable, "-c", "import fixture_pkg.mod as m; m.by_test(); print('FAILED test_x'); raise SystemExit(3)"]
    passing = [sys.executable, "-c", "print('quiet on success')"]
    hits = reach.record([failing, passing], str(src), str(tmp_path))
    err = capsys.readouterr().err
    assert "reach: exit 3:" in err and "FAILED test_x" in err
    assert "quiet on success" not in err
    # the failing run still reached what it reached
    assert any(name == "by_test" for _file, _line, name in hits)
