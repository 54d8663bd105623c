"""Key routing with hot-group splits (survey §3.3, Röger & Mayer §4).

Plain key-group routing (``subtask_for_key``) assigns every group to exactly
one subtask, so a single skewed group caps an operator's throughput at one
instance no matter how far it scales out. The :class:`KeyRouter` keeps the
contiguous key-group → subtask map as the default but lets a controller
*split* individual hot groups: a split group's keys fan out over ``fanout``
subtasks by a secondary hash, so distinct keys inside the group spread while
each key still has exactly one owner — state migration and in-flight
rerouting stay well-defined.

The router is shared by every consumer of the routing decision — output
gates, migration predicates, the owner lookup that forwards in-flight
records, post-recovery redistribution — which is what keeps them
consistent through a live rescale. Every change bumps ``epoch`` so
observers (metrics, debugging) can tell reconfigurations apart.
"""

from __future__ import annotations

from typing import Any

from repro.core.keys import (
    key_group_for,
    operator_index_for_group,
    stable_hash,
)
from repro.errors import LoadManagementError


class KeyRouter:
    """Key → subtask-index map: contiguous key-group ranges plus per-group
    hot splits. One router per rescaled logical node, held by the engine's
    :class:`~repro.load.migration.RescaleState` in ``routers[node_id]``."""

    def __init__(self, parallelism: int, max_parallelism: int) -> None:
        if parallelism < 1:
            raise LoadManagementError("router parallelism must be >= 1")
        self.parallelism = parallelism
        self.max_parallelism = max_parallelism
        #: key group → fan-out (2..parallelism); absent = unsplit
        self._splits: dict[int, int] = {}
        #: bumped on every routing change (rescale or split); lets metrics
        #: and in-flight protocols distinguish reconfigurations
        self.epoch = 0

    # ------------------------------------------------------------------
    def owner_index(self, key: Any) -> int:
        """The subtask index that owns ``key`` under the current routing."""
        group = key_group_for(key, self.max_parallelism)
        base = operator_index_for_group(group, self.max_parallelism, self.parallelism)
        fanout = self._splits.get(group)
        if fanout is None:
            return base
        # Secondary hash: drop the low bits already consumed by key-group
        # assignment so the shard choice is independent of the group choice.
        shard = (stable_hash(key) // self.max_parallelism) % fanout
        return (base + shard) % self.parallelism

    def set_parallelism(self, parallelism: int) -> None:
        """Adopt a new parallelism (rescale); splits wider than the new
        parallelism are clamped, splits are kept otherwise."""
        if parallelism < 1:
            raise LoadManagementError("router parallelism must be >= 1")
        self.parallelism = parallelism
        for group, fanout in list(self._splits.items()):
            if fanout > parallelism:
                if parallelism == 1:
                    del self._splits[group]
                else:
                    self._splits[group] = parallelism
        self.epoch += 1

    def split_group(self, key_group: int, fanout: int) -> None:
        """Fan a hot key group out over ``fanout`` subtasks."""
        if not 0 <= key_group < self.max_parallelism:
            raise LoadManagementError(
                f"key group {key_group} out of range [0, {self.max_parallelism})"
            )
        if fanout < 2:
            raise LoadManagementError("split fanout must be >= 2")
        if fanout > self.parallelism:
            raise LoadManagementError(
                f"split fanout {fanout} exceeds parallelism {self.parallelism}"
            )
        self._splits[key_group] = fanout
        self.epoch += 1

    def unsplit_group(self, key_group: int) -> None:
        """Collapse a split group back to its contiguous-range owner."""
        if self._splits.pop(key_group, None) is not None:
            self.epoch += 1

    # ------------------------------------------------------------------
    @property
    def splits(self) -> dict[int, int]:
        """Read-only view of the current hot-group splits."""
        return dict(self._splits)

    def split_fanout(self, key_group: int) -> int | None:
        """Current fan-out of ``key_group`` (None = unsplit)."""
        return self._splits.get(key_group)

    def __repr__(self) -> str:
        return (
            f"KeyRouter(p={self.parallelism}, max_p={self.max_parallelism}, "
            f"splits={len(self._splits)}, epoch={self.epoch})"
        )
