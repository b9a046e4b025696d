"""Exhaustive optimization for verifying solver output at desk scale."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cardinality import CardinalityConstraint
from .core import CapacityError, ValueOracle, lattice_points
from .knapsack import BUDGET_TOL, KnapsackInstance
from .polymatroid import PolymatroidOracle

MAX_POINTS = 10_000_000


@dataclass(frozen=True)
class ExactResult:
    opt_value: float
    argmax: tuple[int, ...]
    points_enumerated: int


def _cardinality_count(cap: np.ndarray, budget: int) -> int:
    # exact number of points x <= cap with x(E) <= budget, by DP over coords
    counts = np.zeros(budget + 1, dtype=np.float64)
    counts[0] = 1.0
    for c in cap:
        window = np.cumsum(counts)
        shifted = np.zeros_like(window)
        k = int(c) + 1
        shifted[k:] = window[:-k] if k <= budget else 0.0
        counts = window - shifted
    return int(counts.sum())


def brute_force_opt(f: ValueOracle, constraint) -> ExactResult:
    """Enumerate every feasible lattice point and return the maximizer.

    Supports cardinality, knapsack, and polymatroid constraints.  One
    lexicographic enumeration (``lattice_points``) stops raising a
    coordinate as soon as the prefix exceeds the budget, weighs more than
    the normalized budget 1 (weights summed left to right), or leaves the
    polymatroid (one membership call per prefix tried); all valid by
    downward closure.  Each feasible point costs one scalar ``f.eval``.
    Ties keep the lexicographically smallest maximizer.  Raises
    CapacityError, before any call, when the estimated feasible-region
    size exceeds ``MAX_POINTS``.
    """
    if isinstance(constraint, CardinalityConstraint):
        cap = np.minimum(constraint.cap_vector(), f.box)
        estimate = _cardinality_count(cap, constraint.budget)
        admits = lambda x, e: sum(x.tolist()) <= constraint.budget
    elif isinstance(constraint, KnapsackInstance):
        cap = np.minimum(constraint.cap_vector(), f.box)
        estimate = int(np.prod(cap + 1.0))
        w = constraint.weight_vector().tolist()

        def admits(x, e):
            spent = 0.0
            for k, w_e in zip(x[: e + 1].tolist(), w):
                spent += k * w_e
            return spent <= 1.0 + BUDGET_TOL

    elif isinstance(constraint, PolymatroidOracle):
        cap = np.minimum(f.box, constraint.rank_total)
        estimate = int(np.prod(cap + 1.0))
        admits = lambda x, e: constraint.member(x.astype(np.float64))
    else:
        raise TypeError(f"unsupported constraint type {type(constraint).__name__}")
    if estimate > MAX_POINTS:
        raise CapacityError(
            f"estimated feasible region of {estimate} points exceeds cap {MAX_POINTS}"
        )

    best_value = -np.inf
    best_point: np.ndarray | None = None
    enumerated = 0
    for point in lattice_points(cap, admits):
        enumerated += 1
        value = f.eval(point)
        if value > best_value:
            best_value, best_point = value, point
    if best_point is None:
        raise RuntimeError("no feasible point enumerated")
    return ExactResult(float(best_value), tuple(int(v) for v in best_point), enumerated)
