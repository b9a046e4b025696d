"""Monotone DR-submodular and lattice-submodular maximization over integer lattices."""

from .cardinality import (
    CardinalityConstraint,
    SolverConfig,
    effective_epsilon,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
)
from .core import ValueOracle
from .instances import make_budget_allocation
from .knapsack import maximize_knapsack
from .polymatroid import maximize_polymatroid

__version__ = "0.1.0"

__all__ = [
    "CardinalityConstraint",
    "SolverConfig",
    "ValueOracle",
    "effective_epsilon",
    "make_budget_allocation",
    "maximize_dr_cardinality",
    "maximize_knapsack",
    "maximize_lattice_cardinality",
    "maximize_polymatroid",
]
