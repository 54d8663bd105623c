"""Failover regions: the unit of partial recovery (Flink FLIP-1).

A failover region is a connected component of the *physical* plan under
pipelined data exchange: any two tasks joined by a physical channel — of
any partitioning, including feedback — recover together, because records
in flight between them are voided by the restart and can only be
regenerated by rewinding the region's sources. A FORWARD-wired pipeline at
parallelism P therefore splits into P independent slices, while a single
HASH/REBALANCE/BROADCAST exchange welds everything it touches into one
region (every receiver depends on every sender).

Because regions are connected components, every channel adjacent to a
region's task set is *internal* to the set — which is exactly the property
:meth:`~repro.runtime.engine.Engine.recover_region` relies on when it
resets only the region's channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine


@dataclass(frozen=True)
class FailoverRegion:
    """One pipelined-connected component of the physical plan."""

    index: int
    task_names: tuple[str, ...]

    def __contains__(self, task_name: str) -> bool:
        return task_name in self.task_names

    def __len__(self) -> int:
        return len(self.task_names)


def compute_failover_regions(engine: "Engine") -> list[FailoverRegion]:
    """Connected components over the physical channels of a built engine.

    Deterministic: tasks are visited in plan order, channels in the
    engine's canonical (edge, sender, channel) order, and regions are
    numbered by the plan position of their first member.
    """
    tasks = engine.plan.tasks()
    parent: dict[str, str] = {task.name: task.name for task in tasks}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:  # path compression
            parent[name], name = root, parent[name]
        return root

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    for channel in engine.plan.channels():
        union(channel.sender.name, channel.receiver.name)

    members: dict[str, list[str]] = {}
    for task in tasks:  # plan order → deterministic member order
        members.setdefault(find(task.name), []).append(task.name)
    return [
        FailoverRegion(index=index, task_names=tuple(names))
        for index, names in enumerate(members.values())
    ]


def region_of(regions: list[FailoverRegion], task_name: str) -> FailoverRegion | None:
    """The region containing ``task_name`` (None for unknown tasks)."""
    for region in regions:
        if task_name in region:
            return region
    return None
