"""No module reaches into a task's private fields behind its back.

``runtime/task.py`` owns ``Task``, ``SourceTask`` and ``TaskContext``; every
other module under ``src/repro`` talks to them through public methods. This
scan (``ast``, no import) collects the underscore names those classes
define and flags every read or write of one on a receiver other than
``self``/``cls`` — and every ``getattr``/``setattr``/``hasattr`` of one by
string — outside ``runtime/task.py``. What is left over is the allowlist
below.

The allowlist may only shrink: a new entry is a new hole in a part's
boundary, and closing one is a PR of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
TASK_MODULE = SRC / "runtime" / "task.py"
TASK_CLASSES = ("Task", "SourceTask", "TaskContext")

#: module (relative to src/repro) -> task-private names it may touch
ALLOWED: dict[str, set[str]] = {}

_STRING_ACCESS = ("getattr", "setattr", "hasattr", "delattr")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def task_private_names() -> set[str]:
    """Underscore attributes and methods the task classes define."""
    tree = ast.parse(TASK_MODULE.read_text())
    names: set[str] = set()
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in TASK_CLASSES):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(stmt.name):
                names.add(stmt.name)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            names.update(t.id for t in targets if isinstance(t, ast.Name) and _private(t.id))
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and _private(node.attr)
            ):
                names.add(node.attr)
    return names


def reaches(path: Path, names: set[str]) -> set[str]:
    """Task-private names ``path`` touches on something not its own."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in names:
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                found.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _STRING_ACCESS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in names
        ):
            found.add(node.args[1].value)
    return found


def test_task_private_names_are_found():
    names = task_private_names()
    # one of each kind: an attribute, a method, a class-level field
    assert {"_mailbox", "_maybe_schedule", "_keygroup_counts"} <= names


def test_no_module_reaches_into_task_privates():
    names = task_private_names()
    holes = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == TASK_MODULE:
            continue
        module = path.relative_to(SRC).as_posix()
        extra = reaches(path, names) - ALLOWED.get(module, set())
        if extra:
            holes[module] = sorted(extra)
    assert not holes, f"modules reaching into Task/TaskContext privates: {holes}"


def test_allowlist_has_no_stale_entries():
    # an entry no longer needed must be deleted, so the list only shrinks
    names = task_private_names()
    stale = {
        module: sorted(allowed - reaches(SRC / module, names))
        for module, allowed in ALLOWED.items()
        if allowed - reaches(SRC / module, names)
    }
    assert not stale, f"allowlist entries no longer used: {stale}"


def test_scan_catches_a_reach(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(engine, task):\n"
        "    task._maybe_schedule()\n"
        "    getattr(task, '_mailbox')\n"
        "    self_like = task\n"
        "    self_like._capture_and_forward(None)\n"
    )
    assert reaches(probe, task_private_names()) == {
        "_maybe_schedule",
        "_mailbox",
        "_capture_and_forward",
    }
