"""Discrete-event simulation kernel (engine, resources, RNG)."""

from .engine import (
    NS_PER_S,
    Continuation,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Resource, Store
from .rng import RngRegistry, derive_seed

__all__ = [
    "NS_PER_S",
    "Continuation",
    "Event",
    "Process",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "derive_seed",
]
