#!/usr/bin/env python3
"""Which ``src/repro`` functions run under tier-1, and which the system runs.

    python3 scripts/reach.py [--out reach.json]

The script runs two sets of commands with a call recorder installed in
every Python process they start (a ``sitecustomize`` on ``PYTHONPATH`` that
sets ``sys.settrace``; stdlib only):

* *tier-1*: ``python -m pytest -q`` over ``tests/``;
* *system runs*: ``python3 -m perf --smoke``, every ``examples/*.py``, the
  eight chaos smoke modes, ``python -m repro.macro --scale 0.3`` and every
  ``benchmarks/`` file with ``--benchmark-disable``.

It lists every function defined in ``src/repro`` (from the source, so a
function that never runs is listed too) and writes ``reach.json``: per
function its file, qualified name, first line, statement lines, whether its
body is an interface stub, and whether tier-1 and the system runs reached
it. It prints the totals: functions reached *only* by tier-1 (``test_only``)
and functions reached by nothing (``unreached``). Both halves take about
ten minutes on a 2-core host.

The runs use a temporary copy of the working tree, because the benchmark
files rewrite the committed ``BENCH_*.json``; only ``reach.json`` is written
here.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: installed as ``sitecustomize``: records ``(file, first line, name)`` of
#: every code object under ``REACH_SRC`` that is called, and writes them to
#: ``REACH_OUT/<pid>.json`` when the process exits
_RECORDER = '''
import atexit, json, os, sys, threading

_src = os.environ["REACH_SRC"]
_hits = set()


def _trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_src):
        _hits.add((code.co_filename, code.co_firstlineno, code.co_name))
    return None


def _dump():
    sys.settrace(None)
    path = os.path.join(os.environ["REACH_OUT"], "%d.json" % os.getpid())
    with open(path, "w") as fh:
        json.dump(sorted(_hits), fh)


atexit.register(_dump)
sys.settrace(_trace)
threading.settrace(_trace)
'''

CHAOS_MODES = ("", "--obs", "--incremental", "--columnar", "--rescale", "--txn", "--macro", "--fabric")


TIER1 = [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]]


def system_commands(tree: str) -> list[list[str]]:
    py = sys.executable
    commands = [[py, "-m", "perf", "--smoke"]]
    commands += [[py, path] for path in sorted(glob.glob(os.path.join(tree, "examples", "*.py")))]
    for mode in CHAOS_MODES:
        commands.append([py, "-m", "repro.chaos.smoke", "--budget", "30", *([mode] if mode else [])])
    commands.append([py, "-m", "repro.macro", "--scale", "0.3", "--out", os.path.join(tree, "macro.json")])
    commands.append(
        [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", "benchmarks"]
    )
    return commands


# ----------------------------------------------------------------------
# the functions the source defines
# ----------------------------------------------------------------------
def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body of only a docstring, ``pass``, ``...`` or ``raise
    NotImplementedError``, or an ``abstractmethod``: an interface, not code."""
    for decorator in node.decorator_list:
        if getattr(decorator, "attr", getattr(decorator, "id", None)) == "abstractmethod":
            return True
    for stmt in node.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ``...``
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if getattr(exc, "id", None) == "NotImplementedError":
                continue
        return False
    return True


def _statement_lines(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    """Lines that start a statement of this function, nested defs excluded."""
    lines: set[int] = set()
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    stack = list(body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        lines.add(stmt.lineno)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, ast.excepthandler):
                stack.extend(child.body)
    return len(lines)


def functions(src: str) -> list[dict]:
    """Every ``def`` under ``src``, keyed as its code object is recorded:
    absolute file, first line (the first decorator's, if any) and name."""
    found = []
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append(
                        {
                            "file": os.path.relpath(path, os.path.dirname(src)),
                            "path": path,
                            "name": child.name,
                            "qualname": qualname,
                            "line": first,
                            "statements": _statement_lines(child),
                            "stub": _is_stub(child),
                        }
                    )
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                elif not isinstance(child, ast.Lambda):
                    visit(child, prefix)

        visit(tree, "")
    return found


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def record(commands: list[list[str]], src: str, cwd: str) -> set[tuple[str, int, str]]:
    """Run each command with the recorder; return every ``(file, line, name)`` hit
    under ``src``. A command's exit status is reported, not fatal: a failing
    run still reached what it reached. Its captured output follows the
    report, so a failing run names what failed."""
    src = os.path.abspath(src)
    with tempfile.TemporaryDirectory() as hook_dir, tempfile.TemporaryDirectory() as out_dir:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
            fh.write(_RECORDER)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, os.path.dirname(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REACH_SRC"] = src + os.sep
        env["REACH_OUT"] = out_dir
        for command in commands:
            run = subprocess.run(
                command, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
            )
            if run.returncode != 0:
                print(f"reach: exit {run.returncode}: {' '.join(command)}", file=sys.stderr)
                print(run.stdout, end="", file=sys.stderr)
        hits: set[tuple[str, int, str]] = set()
        for path in glob.glob(os.path.join(out_dir, "*.json")):
            with open(path) as fh:
                hits.update(tuple(hit) for hit in json.load(fh))
    return hits


def classify(
    found: list[dict], tier1: set[tuple[str, int, str]], system: set[tuple[str, int, str]]
) -> tuple[list[dict], dict]:
    """The per-function rows and the totals."""
    rows = []
    for fn in found:
        key = (fn["path"], fn["line"], fn["name"])
        rows.append(
            {
                "file": fn["file"],
                "function": fn["qualname"],
                "line": fn["line"],
                "statements": fn["statements"],
                "stub": fn["stub"],
                "tier1": key in tier1,
                "system": key in system,
            }
        )
    test_only = [r for r in rows if r["tier1"] and not r["system"]]
    unreached = [r for r in rows if not r["tier1"] and not r["system"]]
    totals = {
        "functions": len(rows),
        "tier1": sum(r["tier1"] for r in rows),
        "system": sum(r["system"] for r in rows),
        "test_only": len(test_only),
        "test_only_statements": sum(r["statements"] for r in test_only),
        "unreached": len(unreached),
        "unreached_statements": sum(r["statements"] for r in unreached),
        "unreached_non_stub": sum(not r["stub"] for r in unreached),
    }
    return rows, totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "reach.json"), help="where to write the table")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        tree = os.path.join(scratch, "tree")
        shutil.copytree(
            ROOT,
            tree,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "reach.json"),
        )
        src = os.path.join(tree, "src", "repro")
        tier1 = record(TIER1, src, tree)
        system = record(system_commands(tree), src, tree)
        rows, totals = classify(functions(src), tier1, system)
    with open(args.out, "w") as fh:
        json.dump({"totals": totals, "functions": rows}, fh, indent=1)
    for name, value in totals.items():
        print(f"{name:>22}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
