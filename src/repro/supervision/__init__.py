"""Supervised recovery: restart policies, failover regions, commit retries.

The runtime's recovery verbs (:meth:`Engine.recover_from_checkpoint`,
:meth:`Engine.recover_region`, …) are mechanisms; this package is the
*policy* layer that drives them automatically when the failure injector
detects a fail-stop — the piece a real deployment calls the job manager's
failover logic. See DESIGN.md "Supervised recovery".
"""

from repro.supervision.regions import (
    FailoverRegion,
    compute_failover_regions,
    region_of,
)
from repro.supervision.retry import RetryPolicy, ScriptedOutage
from repro.supervision.strategies import (
    ExponentialBackoffRestart,
    FailureRateRestart,
    FixedDelayRestart,
    RestartStrategy,
)
from repro.supervision.supervisor import Supervisor, SupervisorConfig

__all__ = [
    "ExponentialBackoffRestart",
    "FailoverRegion",
    "FailureRateRestart",
    "FixedDelayRestart",
    "RestartStrategy",
    "RetryPolicy",
    "ScriptedOutage",
    "Supervisor",
    "SupervisorConfig",
    "compute_failover_regions",
    "region_of",
]
