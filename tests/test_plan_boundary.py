"""Only the physical plan builds or changes the physical plan.

``runtime/plan.py`` is the one module under ``src/repro`` that constructs a
``Task``, ``SourceTask``, ``OutputGate`` or ``PhysicalChannel``, and the one
that writes the plan's task map (``PhysicalPlan.by_name``, which the engine
exposes as ``Engine.tasks``). This scan (``ast``, no import) flags, in every
other module, a call of one of those constructors and a write to the map:
an item assignment or deletion, or a mutating method call, on a ``by_name``
attribute, or on a ``tasks`` attribute of anything but ``self`` (other
classes keep maps of their own under that name) — and of ``self`` too in
``runtime/engine.py``, where ``self.tasks`` is the plan's map.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PLAN_MODULE = SRC / "runtime" / "plan.py"
ENGINE_MODULE = SRC / "runtime" / "engine.py"
CONSTRUCTORS = {"Task", "SourceTask", "OutputGate", "PhysicalChannel"}
_MUTATORS = {"pop", "popitem", "setdefault", "update", "clear", "__setitem__", "__delitem__"}


def _is_task_map(node: ast.AST, self_is_plan_map: bool) -> bool:
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr == "by_name":
        return True
    is_self = isinstance(node.value, ast.Name) and node.value.id == "self"
    return node.attr == "tasks" and (self_is_plan_map or not is_self)


def violations(path: Path) -> list[str]:
    """``line: what`` for each plan construction or task-map write in ``path``."""
    self_is_plan_map = path == ENGINE_MODULE
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if isinstance(func, (ast.Name, ast.Attribute)) and name in CONSTRUCTORS:
                found.append((node.lineno, f"constructs {name}"))
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and _is_task_map(func.value, self_is_plan_map)
            ):
                found.append((node.lineno, f"{func.attr} on the task map"))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_task_map(target.value, self_is_plan_map):
                    found.append((target.lineno, "writes the task map"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_only_the_plan_builds_or_changes_the_plan():
    holes = {}
    for path in sorted(SRC.rglob("*.py")):
        if path != PLAN_MODULE:
            found = violations(path)
            if found:
                holes[path.relative_to(SRC).as_posix()] = found
    assert not holes, f"modules building or changing the physical plan: {holes}"


def test_the_plan_itself_is_seen_by_the_scan():
    assert any("constructs Task" in line for line in violations(PLAN_MODULE))
    assert any("constructs PhysicalChannel" in line for line in violations(PLAN_MODULE))


def test_scan_catches_a_write(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(engine, kernel, gate):\n"
        "    task = runtime.Task(kernel, 'x[0]')\n"
        "    engine.tasks[task.name] = task\n"
        "    del engine.plan.by_name['x[0]']\n"
        "    engine.tasks.pop('y[0]')\n"
        "    OutputGate(None, [])\n"
        "    self.tasks['z'] = 1\n"
    )
    assert violations(probe) == [
        "2: constructs Task",
        "3: writes the task map",
        "4: writes the task map",
        "5: pop on the task map",
        "6: constructs OutputGate",
    ]
