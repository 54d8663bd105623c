"""Pins of the exact state-backend access sequence of the keyed operators.

Each case runs a small keyed job whose state backend logs every ``get``,
``put`` and ``delete`` as ``(method, descriptor name, key)``. The pin holds
the log's length and digest, the final per-backend ``stats`` (reads,
writes) and the digest of the sink rows. The cases cover tumbling and
sliding aggregates, allowed lateness (cleanup timers and late refinements),
early firing with retraction, punctuation-closed windows, session merging
(on the heap and on the LSM backend), an evictor with a process function,
count-triggered global windows, the columnar ``process_batch`` path (its
late-band fallback too), a chained window, and the keyed aggregate and
reduce (scalar and columnar). A change to an operator body that adds, drops,
reorders or retargets one backend access — or changes what a write stores
in a way the outputs can see — fails its case here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import SensorWorkload
from repro.progress.punctuations import PunctuationInjector
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import EngineConfig
from repro.state.lsm import LSMStateBackend
from repro.state.memory import InMemoryStateBackend
from repro.windows import (
    CountEvictor,
    CountTrigger,
    EarlyFiringTrigger,
    EventTimeSessionWindows,
    GlobalWindows,
    PunctuationTrigger,
    SlidingEventTimeWindows,
    TumblingEventTimeWindows,
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _recording(base):
    """A ``base`` backend class whose instances log every access to ``log``
    and list themselves in ``backends``."""
    log: list[tuple[str, str, str]] = []
    backends: list = []

    class Recording(base):
        def __init__(self) -> None:
            super().__init__()
            backends.append(self)

        def get(self, descriptor, key):
            log.append(("get", descriptor.name, repr(key)))
            return super().get(descriptor, key)

        def put(self, descriptor, key, value):
            log.append(("put", descriptor.name, repr(key)))
            super().put(descriptor, key, value)

        def delete(self, descriptor, key):
            log.append(("delete", descriptor.name, repr(key)))
            super().delete(descriptor, key)

    return Recording, log, backends


def _run(build, *, backend=InMemoryStateBackend, disorder=0.02, punctuate=False, **config):
    factory, log, backends = _recording(backend)
    env = StreamExecutionEnvironment(EngineConfig(seed=5, state_backend_factory=factory, **config))
    stream = env.from_workload(
        SensorWorkload(count=400, rate=2000.0, key_count=6, disorder=disorder, seed=9),
        watermarks=BoundedOutOfOrderness(0.005),
    )
    if punctuate:
        stream = stream.apply_operator(lambda: PunctuationInjector(every_n=20, disorder_bound=0.02))
    keyed = stream.key_by(field_selector("sensor"))
    sink = build(keyed).collect("out")
    env.execute()
    rows = [(r.value, r.event_time, r.key, r.sign) for r in sink.results]
    return {
        "accesses": (len(log), _digest(log)),
        "stats": [(b.stats.reads, b.stats.writes) for b in backends],
        "rows": (len(rows), _digest(rows)),
    }


def _count_sum(stream, **kwargs):
    return stream.aggregate(
        create=lambda: (0, 0.0),
        add=lambda acc, v: (acc[0] + 1, acc[1] + v["reading"]),
        merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        **kwargs,
    )


CASES = {
    "tumbling": lambda: _run(lambda k: _count_sum(k.window(TumblingEventTimeWindows(0.05)))),
    "sliding": lambda: _run(lambda k: _count_sum(k.window(SlidingEventTimeWindows(0.1, 0.025)))),
    "lateness": lambda: _run(
        lambda k: _count_sum(k.window(TumblingEventTimeWindows(0.02), allowed_lateness=0.01)),
        disorder=0.03,
    ),
    "early_retract": lambda: _run(
        lambda k: _count_sum(
            k.window(TumblingEventTimeWindows(0.1), trigger=EarlyFiringTrigger(0.01)), retract=True
        )
    ),
    "session": lambda: _run(lambda k: _count_sum(k.window(EventTimeSessionWindows(0.01)))),
    "session_lsm": lambda: _run(
        lambda k: _count_sum(k.window(EventTimeSessionWindows(0.01), allowed_lateness=0.005)),
        backend=LSMStateBackend,
    ),
    "evictor": lambda: _run(
        lambda k: k.window(TumblingEventTimeWindows(0.05), evictor=CountEvictor(3)).apply(
            lambda key, window, values: [v["seq"] for v in values]
        )
    ),
    "count_global": lambda: _run(lambda k: k.window(GlobalWindows(), trigger=CountTrigger(7)).count()),
    "columnar": lambda: _run(
        lambda k: k.window(SlidingEventTimeWindows(0.1, 0.05)).count(), columnar_batch_size=16
    ),
    "columnar_late_apply": lambda: _run(
        lambda k: k.window(TumblingEventTimeWindows(0.01), allowed_lateness=0.01).apply(
            lambda key, window, values: len(values)
        ),
        disorder=0.03,
        columnar_batch_size=16,
    ),
    "punctuation": lambda: _run(
        lambda k: k.window(TumblingEventTimeWindows(0.05), trigger=PunctuationTrigger()).count(),
        punctuate=True,
    ),
    "chained_sliding": lambda: _run(
        lambda k: _count_sum(k.window(SlidingEventTimeWindows(0.1, 0.05))).map(lambda r: r),
        chaining_enabled=True,
    ),
    "keyed_aggregate": lambda: _run(
        lambda k: k.aggregate(create=lambda: 0, add=lambda a, v: a + v["seq"], result=lambda a: a * 2)
    ),
    "keyed_reduce": lambda: _run(
        lambda k: k.map(lambda v: v["seq"]).key_by(lambda s: s % 5).reduce(lambda a, b: a + b)
    ),
    "keyed_columnar": lambda: _run(
        lambda k: k.aggregate(create=lambda: 0, add=lambda a, v: a + 1, result=lambda a: a)
        .key_by(lambda c: c % 3)
        .reduce(lambda a, b: a + b),
        columnar_batch_size=16,
    ),
}

#: computed on the tree before the keyed operators reached the backend
#: directly; the access sequence must not move
PINS = {
    "chained_sliding": {
        "accesses": (2544, "529202c11a2734ca"), "rows": (36, "52d57fdc8990ee40"),
        "stats": [(0, 0), (1708, 836)],
    },
    "columnar": {
        "accesses": (1092, "92f44a2cc1c2fd15"), "rows": (36, "2cd39bd6502ff8f8"),
        "stats": [(0, 0), (740, 352), (0, 0)],
    },
    "columnar_late_apply": {
        "accesses": (1788, "24d4d53b3807faa7"), "rows": (140, "7643578d23005b39"),
        "stats": [(0, 0), (1230, 558), (0, 0)],
    },
    "count_global": {
        "accesses": (1386, "957bae6e349d49b8"), "rows": (60, "2a44d15922410cb4"),
        "stats": [(0, 0), (926, 460), (0, 0)],
    },
    "early_retract": {
        "accesses": (1800, "7d141f42ca89c57a"), "rows": (282, "5d600f46ed3dbce7"),
        "stats": [(0, 0), (1253, 547), (0, 0)],
    },
    "evictor": {
        "accesses": (1296, "41f31b03d9457855"), "rows": (24, "03f7682e98877034"),
        "stats": [(0, 0), (872, 424), (0, 0)],
    },
    "keyed_aggregate": {
        "accesses": (800, "b7fdb94bf82c13a0"), "rows": (400, "3333998f4aacedef"),
        "stats": [(0, 0), (400, 400), (0, 0)],
    },
    "keyed_columnar": {
        "accesses": (438, "d92e48332d01d969"), "rows": (400, "3bd2205989831e51"),
        "stats": [(0, 0), (144, 144), (0, 0), (75, 75), (0, 0)],
    },
    "keyed_reduce": {
        "accesses": (800, "ced19a853c857804"), "rows": (400, "4b0d300ef07bf7e5"),
        "stats": [(0, 0), (0, 0), (0, 0), (400, 400), (0, 0)],
    },
    "lateness": {
        "accesses": (1653, "42f27ce167b79484"), "rows": (76, "5be1c72199529921"),
        "stats": [(0, 0), (1122, 531), (0, 0)],
    },
    "punctuation": {
        "accesses": (1416, "f8f927c1f8ef5f24"), "rows": (24, "86351895f1c28a9c"),
        "stats": [(0, 0), (0, 0), (992, 424), (0, 0)],
    },
    "session": {
        "accesses": (4298, "c2dd8b2cdf070d58"), "rows": (19, "a55d21f3b6d425c3"),
        "stats": [(0, 0), (3132, 1166), (0, 0)],
    },
    "session_lsm": {
        "accesses": (4788, "9a49139bef868427"), "rows": (36, "0305cb0ebb202f13"),
        "stats": [(0, 0), (3586, 1202), (0, 0)],
    },
    "sliding": {
        "accesses": (5208, "18843837030bf9ea"), "rows": (102, "aa1958bd92681c91"),
        "stats": [(0, 0), (3506, 1702), (0, 0)],
    },
    "tumbling": {
        "accesses": (1296, "1b9129776a433ebb"), "rows": (24, "d4667ed67137cc06"),
        "stats": [(0, 0), (872, 424), (0, 0)],
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_backend_accesses_match_pin(name):
    assert CASES[name]() == PINS[name]
