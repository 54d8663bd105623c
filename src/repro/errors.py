"""Exception hierarchy for the repro stream processing framework.

Every package raises subclasses of :class:`ReproError` so that callers can
catch framework errors without masking programming mistakes (``TypeError``,
``KeyError`` from user code, etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all framework errors."""


class GraphError(ReproError):
    """Raised for malformed logical dataflow graphs (cycles without feedback
    markers, unknown operators, arity mismatches)."""


class RuntimeStateError(ReproError):
    """Raised when the runtime is driven through an illegal state transition,
    e.g. running a job twice or reading results before execution."""


class SerializationError(ReproError):
    """Raised when a record or state value cannot be (de)serialized."""


class StateError(ReproError):
    """Raised by state backends: unknown descriptor, type mismatch, access
    outside a keyed context."""


class StateMigrationError(StateError):
    """Raised when restoring state written under an incompatible schema
    version without a registered migration path."""


class CheckpointError(ReproError):
    """Raised when a checkpoint cannot be taken or restored."""


class RecoveryError(ReproError):
    """Raised when fault recovery cannot complete (no snapshot, no standby)."""


class TransientFault(ReproError):
    """A retryable external-system failure: timeout, throttle, leader
    election. Callers are expected to retry with backoff."""


class CQLError(ReproError):
    """Base class for CQL front-end errors."""


class CQLSyntaxError(CQLError):
    """Raised by the lexer/parser on malformed CQL text."""


class CQLSemanticError(CQLError):
    """Raised during CQL analysis: unknown streams, bad window specs,
    non-streamable relations."""


class PatternError(ReproError):
    """Raised for malformed CEP pattern definitions."""


class TransactionError(ReproError):
    """Base class for transactional processing errors."""


class TransactionAborted(TransactionError):
    """Raised when a transaction is aborted (conflict, explicit abort, or
    coordinator decision) and rolled back."""


class FunctionError(ReproError):
    """Raised by the stateful functions runtime (unknown function type,
    undeliverable message)."""


class QueryableStateError(ReproError):
    """Raised for queryable-state failures (unknown state, no snapshot)."""


class LoadManagementError(ReproError):
    """Raised by load shedding / elasticity controllers on invalid policies."""


class BackpressureError(LoadManagementError):
    """Raised when flow-control invariants are violated (negative credits)."""


class SimulationError(ReproError):
    """Raised by the discrete-event kernel (time travel, dead kernel)."""


class MetricNamespaceError(ReproError):
    """Raised when two owners claim overlapping metric-path prefixes on a
    shared registry (e.g. two fabric tenants with the same job name)."""


class FabricError(ReproError):
    """Raised by the multi-tenant job fabric (duplicate tenant names,
    invalid slot configuration, unsupported tenant wiring)."""
