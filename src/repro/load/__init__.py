"""Load management (survey §3.3): shedding, backpressure, elasticity, migration."""

from repro.load.autoscaler import AutoscaleController, HotSplitAction
from repro.load.elasticity import DS2Controller, OperatorModel, ScalingDecision
from repro.load.migration import Rescaler, RescaleReport
from repro.load.routing import KeyRouter
from repro.load.shedding import (
    RandomShedder,
    SemanticShedder,
    Shedder,
    WindowAwareShedder,
    relative_error,
)

__all__ = [
    "AutoscaleController",
    "DS2Controller",
    "HotSplitAction",
    "KeyRouter",
    "OperatorModel",
    "RandomShedder",
    "RescaleReport",
    "Rescaler",
    "ScalingDecision",
    "SemanticShedder",
    "Shedder",
    "WindowAwareShedder",
    "relative_error",
]
