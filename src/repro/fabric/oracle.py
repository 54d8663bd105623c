"""Isolation oracle: tenant output digests.

The fabric's correctness claim is *non-interference*: a tenant's output is
a pure function of its own (graph, config, seed), regardless of what else
shares the kernel. The digest hashes the sink's (value, event_time) pairs
in emission order — deliberately excluding kernel-time fields
(``emitted_at``, ``ingest_time``): under slot contention a preempted
tenant's timestamps shift (its virtual time is shared), but the values it
computes and the event times they carry must not. Without contention even
the kernel-time fields match a solo run exactly; tests assert that
stronger property separately.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.events import Record


def _canonical(value: Any) -> Any:
    """JSON-stable projection of a sink value (dicts get sorted keys)."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, Record):
        # a row nested in a payload digests as its repr (no trace), not as
        # the six-field sequence its tuple base would flatten to
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def sink_digest(sink: Any) -> str:
    """SHA-256 over a CollectSink's (value, event_time) emission sequence."""
    rows = [
        [_canonical(result.value), result.event_time] for result in sink.results
    ]
    payload = json.dumps(rows, sort_keys=True, default=repr).encode()
    return hashlib.sha256(payload).hexdigest()


def result_digests(result: Any) -> dict[str, str]:
    """Digest every sink of a :class:`~repro.runtime.engine.JobResult`."""
    return {
        name: sink_digest(sink)
        for name, sink in sorted(result.sinks.items())
        if hasattr(sink, "results")
    }
