"""Checkpointing & recovery mechanisms (survey §3.1/§3.2).

Aligned barrier snapshots: tasks align barriers in their input protocol
(:class:`repro.runtime.inputs.TaskInputs`) and capture at them, and one
:class:`~repro.checkpoint.coordinator.CheckpointCoordinator` per job runs
the rounds. This package also adds the alternatives the survey compares:

* incremental snapshots — :mod:`repro.checkpoint.incremental`
* lineage/micro-batch recomputation — :mod:`repro.checkpoint.lineage`
"""

from repro.checkpoint.incremental import (
    DeltaSnapshot,
    IncrementalSnapshotter,
    TaskChainStore,
    restore_chain,
)
from repro.checkpoint.lineage import BatchRef, LineageGraph, stateful_dstream

__all__ = [
    "BatchRef",
    "DeltaSnapshot",
    "IncrementalSnapshotter",
    "LineageGraph",
    "TaskChainStore",
    "restore_chain",
    "stateful_dstream",
]
