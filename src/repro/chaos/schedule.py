"""Fault schedules: the unit of chaos generation, replay, and shrinking.

A :class:`FaultSchedule` is plain data — a seed plus a list of fully
concrete :class:`FaultSpec` entries (kind, target, time, parameters). All
randomness happens at *generation* time, drawn from a namespaced
:class:`~repro.sim.random.SimRandom`, so applying a schedule is a pure
deterministic function of (graph, config, schedule): the same schedule
replays byte-identically, which is what makes greedy shrinking sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.random import SimRandom

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine

#: every fault kind the palette knows how to inject
KILL = "kill"
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
REORDER = "reorder"
STALL = "stall"
BARRIER_LOSS = "barrier_loss"
#: not a fault in the strict sense: a live rescale of a logical node,
#: interleaved with real faults to stress migration (``target`` is a node
#: name from ``palette.rescale_targets``; ``count`` is the new parallelism)
RESCALE = "rescale"

ALL_KINDS = (KILL, DROP, DUPLICATE, DELAY, REORDER, STALL, BARRIER_LOSS, RESCALE)

#: kinds that target a physical channel (``target`` is "sender->receiver")
CHANNEL_KINDS = frozenset({DROP, DUPLICATE, DELAY, REORDER, BARRIER_LOSS})
#: kinds that target a task (``target`` is a physical task name)
TASK_KINDS = frozenset({KILL, STALL})

#: kinds that can lose records — the delivery oracle allows losses when any
#: of these appear in the schedule
LOSSY_KINDS = frozenset({DROP})
#: kinds that can legitimately duplicate records at the sink
DUPLICATING_KINDS = frozenset({DUPLICATE})
#: lower bound for DELAY magnitudes / STALL durations (virtual seconds)
MIN_MAGNITUDE = 0.005
#: max elements a drop/duplicate/delay/reorder burst affects
MAX_COUNT = 3


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault. ``count`` bounds how many elements a channel
    fault affects; ``magnitude`` is the extra delay (DELAY), stall duration
    (STALL), or hold-back bound (REORDER), in virtual seconds."""

    kind: str
    target: str
    at: float
    count: int = 1
    magnitude: float = 0.0

    def describe(self) -> str:
        """Constructor-call rendering used in printed reproducers."""
        extra = ""
        if (self.kind in CHANNEL_KINDS and self.kind != BARRIER_LOSS) or self.kind == RESCALE:
            extra = f", count={self.count}"
        if self.magnitude:
            extra += f", magnitude={self.magnitude:.6g}"
        return f"FaultSpec(kind={self.kind!r}, target={self.target!r}, at={self.at:.6g}{extra})"


@dataclass
class FaultSchedule:
    """An ordered set of faults plus the seed that generated it."""

    seed: int
    faults: list[FaultSpec] = field(default_factory=list)

    def kinds(self) -> set[str]:
        """The distinct fault kinds present (drives the expectation floor)."""
        return {f.kind for f in self.faults}

    def without(self, index: int) -> "FaultSchedule":
        """Copy with the fault at ``index`` removed (shrinking step)."""
        return FaultSchedule(self.seed, self.faults[:index] + self.faults[index + 1 :])

    def format(self) -> str:
        """Copy-pasteable reproduction snippet (stable across runs)."""
        lines = [f"FaultSchedule(seed={self.seed}, faults=["]
        lines += [f"    {fault.describe()}," for fault in self.faults]
        lines.append("])")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.faults)


@dataclass(frozen=True)
class PaletteConfig:
    """Knobs for schedule generation."""

    kinds: tuple[str, ...] = ALL_KINDS
    #: faults per schedule (inclusive bounds)
    min_faults: int = 1
    max_faults: int = 4
    #: faults are injected at uniform times in [0, window]
    window: float = 0.2
    #: upper bound for DELAY magnitudes / STALL durations (lower: MIN_MAGNITUDE)
    max_magnitude: float = 0.05
    #: logical node names RESCALE faults may target; empty disables RESCALE
    #: even when it is in ``kinds`` (keeps existing palettes byte-stable)
    rescale_targets: tuple[str, ...] = ()
    #: RESCALE draws a new parallelism in [1, rescale_max_parallelism]
    rescale_max_parallelism: int = 3


def generate_schedule(
    engine: "Engine", rng: SimRandom, palette: PaletteConfig
) -> FaultSchedule:
    """Draw a concrete fault schedule against a *built* engine.

    Targets come from the physical plan (task names, channel endpoints), so
    the schedule automatically adapts to chaining: fused edges have no
    channel and never appear as channel targets. Enumeration order is the
    plan's deterministic build order, so (plan, seed) → identical bytes.
    """
    task_targets = [
        name
        for name, task in engine.tasks.items()
        if not task.finished  # plan-time: nothing has run yet
    ]
    channel_targets = [
        f"{ch.sender.name}->{ch.receiver.name}"
        for ch in engine.plan.channels()
    ]
    kinds = [
        k
        for k in palette.kinds
        if (k in TASK_KINDS and task_targets)
        or (k in CHANNEL_KINDS and channel_targets)
        or (k == RESCALE and palette.rescale_targets)
    ]
    faults: list[FaultSpec] = []
    if not kinds:
        return FaultSchedule(rng.seed, faults)
    n = rng.randint(palette.min_faults, palette.max_faults)
    for _ in range(n):
        kind = rng.choice(kinds)
        at = rng.uniform(0.0, palette.window)
        magnitude = rng.uniform(MIN_MAGNITUDE, palette.max_magnitude)
        if kind == RESCALE:
            # ``count`` carries the target parallelism for rescales.
            count = rng.randint(1, palette.rescale_max_parallelism)
            target = rng.choice(list(palette.rescale_targets))
        else:
            count = rng.randint(1, MAX_COUNT)
            if kind in TASK_KINDS:
                target = rng.choice(task_targets)
            else:
                target = rng.choice(channel_targets)
        faults.append(
            FaultSpec(
                kind=kind,
                target=target,
                at=at,
                count=count,
                magnitude=magnitude if kind in (DELAY, STALL, REORDER) else 0.0,
            )
        )
    faults.sort(key=lambda f: (f.at, f.kind, f.target))
    return FaultSchedule(rng.seed, faults)


def schedule_from_faults(faults: list[FaultSpec], seed: int = -1) -> FaultSchedule:
    """Wrap hand-written faults (replaying a printed reproducer)."""
    return FaultSchedule(seed, list(faults))
