"""The traced run: host time attributed to layers from outside the program.

A profiler hook installed by the benchmark (``cProfile``) observes every
call while one repeat runs. Its per-function records are folded in memory
into

* per-layer *self* time and call counts — self time is inclusive time minus
  the time of callees by construction, with library callees (built-ins, the
  standard library) charged to the layer that called them; and
* a caller-layer → callee-layer edge table (calls, inclusive seconds): the
  spans at the layer boundaries, aggregated because there are millions.

Both are written out when the run ends. End-to-end numbers never come from
a traced run; what tracing costs is reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import cProfile
import os
from typing import Any, Callable

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPRO = os.path.join(_ROOT, "src", "repro") + os.sep
_PERF = os.path.join(_ROOT, "perf") + os.sep

#: layer of a file under ``src/repro/``, by path prefix; first match wins.
#: Layers are this repo's modules. A repro file that matches no prefix
#: (``load``, ``supervision``, ``fault`` … — packages no workload should
#: spend time in) lands in ``other``, and so does library time that no layer
#: called; a growing ``other`` means this table needs a new row.
LAYERS: tuple[tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("runtime/channel.py", "runtime.channel"),
    ("runtime/metrics.py", "obs"),
    ("runtime/", "runtime.task"),
    ("core/operators/", "operators"),
    ("windows/", "operators"),
    ("cep/", "operators"),
    ("ml/", "operators"),
    ("cql/", "operators"),
    ("progress/", "operators"),
    ("functions/", "operators"),
    ("graphs/", "operators"),
    ("hardware/", "operators"),
    ("core/", "core"),
    ("state/", "state"),
    ("checkpoint/", "checkpoint"),
    ("obs/", "obs"),
    ("txn/", "txn"),
    ("fabric/", "fabric"),
    ("io/", "io"),
    # user code: the macro queries' functions and the benchmark's own lambdas
    ("macro/", "udf"),
)
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(layer for _p, layer in LAYERS)) + ("other",)


def layer_of(filename: str) -> str | None:
    """Layer a source file belongs to; ``None`` for library code (anything
    outside ``src/repro`` and the benchmark)."""
    if filename.startswith(_REPRO):
        relative = filename[len(_REPRO):].replace(os.sep, "/")
        for prefix, layer in LAYERS:
            if relative.startswith(prefix):
                return layer
        return "other"
    if filename.startswith(_PERF):
        return "udf"
    return None


def profile_call(fn: Callable[[], Any]) -> list[Any]:
    """Run ``fn`` under the profiler hook; returns the raw per-function stats."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return profiler.getstats()


def fold(stats: list[Any]) -> dict[str, Any]:
    """Fold per-function profiler records into per-layer and edge tables.

    Code that belongs to no layer — built-ins, the standard library, the
    methods ``dataclasses`` generates (their file is ``<string>``) — is
    *library* code, and its self time is charged to the layer that called
    it. The profiler keeps a callee's self time per caller, so that is exact
    when a layer calls library code directly. Where library code calls
    library code (a heap push comparing two dataclass events), the outer
    function's callers share the inner time in proportion to their inclusive
    time in the outer function. Library time no layer called stays in
    ``other``.
    """

    def own_layer(code: Any) -> str | None:
        return None if isinstance(code, str) else layer_of(code.co_filename)

    callers: dict[Any, list[tuple[Any, float]]] = {}
    for entry in stats:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append((entry.code, sub.totaltime))

    resolved: dict[Any, dict[str, float]] = {}

    def share_of(code: Any) -> dict[str, float]:
        """The layers a function's time is charged to, as shares."""
        layer = own_layer(code)
        if layer is not None:
            return {layer: 1.0}
        if code not in resolved:
            resolved[code] = {"other": 1.0}  # while resolving: ends library cycles
            spread: dict[str, float] = {}
            for caller, seconds in callers.get(code, ()):
                for name, part in share_of(caller).items():
                    spread[name] = spread.get(name, 0.0) + seconds * part
            total = sum(spread.values())
            if total > 0.0:
                resolved[code] = {name: seconds / total for name, seconds in spread.items()}
        return resolved[code]

    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    edges: dict[tuple[str, str], list[float]] = {}
    for entry in stats:
        layer = own_layer(entry.code)
        if layer is not None:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        elif entry.code not in callers:
            self_s["other"] += entry.inlinetime
        for sub in entry.calls or ():
            callee = own_layer(sub.code)
            if callee is None:
                for name, part in share_of(entry.code).items():
                    self_s[name] += sub.inlinetime * part
            elif callee != layer:
                edge = edges.setdefault((layer or "(library)", callee), [0, 0.0])
                edge[0] += sub.callcount
                edge[1] += sub.totaltime
    total = sum(self_s.values())
    return {
        "total_self_s": total,
        "python_calls": sum(e.callcount for e in stats if not isinstance(e.code, str)),
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "self_share": self_s[layer] / total if total else 0.0,
                "calls": calls[layer],
            }
            for layer in LAYER_NAMES
        },
        "edges": [
            {"caller": caller, "callee": callee, "calls": int(n), "inclusive_s": seconds}
            for (caller, callee), (n, seconds) in sorted(
                edges.items(), key=lambda item: -item[1][1]
            )
        ],
    }
