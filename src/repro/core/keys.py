"""Key extraction and key-group partitioning.

Modern scale-out engines (survey §3.1) hash keys into a fixed number of
*key groups*, the unit of state migration: a job's maximum parallelism is the
number of key groups, and rescaling moves whole groups between tasks without
splitting any group's state. We reproduce exactly that scheme.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

DEFAULT_MAX_PARALLELISM = 128

KeySelector = Callable[[Any], Any]


def stable_hash(key: Any) -> int:
    """A process-independent, deterministic, well-mixed hash for partitioning.

    Python's builtin ``hash`` is randomized per process for strings, which
    would break reproducibility of partition assignment, and CRC32's low
    bits correlate for similar short strings (terrible key-group balance);
    blake2b gives stable, avalanche-quality bits. Keys used for
    partitioning should have stable reprs (ints, strings, tuples thereof).
    """
    if isinstance(key, int) and not isinstance(key, bool) and -(2**127) <= key < 2**127:
        data = key.to_bytes(16, "little", signed=True)
    else:
        data = repr(key).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def key_group_for(key: Any, max_parallelism: int = DEFAULT_MAX_PARALLELISM) -> int:
    """Map a key to its key group in ``[0, max_parallelism)``."""
    return stable_hash(key) % max_parallelism


def operator_index_for_group(
    key_group: int, max_parallelism: int, parallelism: int
) -> int:
    """Map a key group to the subtask that owns it (contiguous ranges).

    Contiguous assignment means a rescale from p to p' only moves the groups
    at range boundaries, the property Flink-style rescaling relies on.
    """
    return key_group * parallelism // max_parallelism


def subtask_for_key(
    key: Any, parallelism: int, max_parallelism: int = DEFAULT_MAX_PARALLELISM
) -> int:
    """Route a key to a subtask index via its key group:
    :func:`operator_index_for_group` of :func:`key_group_for`, in one frame
    (every hash-partitioned record is routed here)."""
    return stable_hash(key) % max_parallelism * parallelism // max_parallelism


def key_group_range(
    subtask_index: int, parallelism: int, max_parallelism: int = DEFAULT_MAX_PARALLELISM
) -> range:
    """The contiguous key groups owned by ``subtask_index`` at ``parallelism``."""
    start = -(-subtask_index * max_parallelism // parallelism)  # ceil div
    end = -(-(subtask_index + 1) * max_parallelism // parallelism)
    return range(start, end)


def field_selector(name_or_index: Any) -> KeySelector:
    """Build a key selector over dicts, tuples, or attribute access.

    ``field_selector("user")`` extracts ``value["user"]`` (or
    ``value.user``); ``field_selector(0)`` extracts ``value[0]``.
    """

    def select(value: Any) -> Any:
        try:
            return value[name_or_index]
        except (TypeError, KeyError, IndexError):
            return getattr(value, name_or_index)

    return select
