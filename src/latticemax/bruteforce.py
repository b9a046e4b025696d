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
    # the number of points x <= cap with x(E) <= budget, by DP over coords on
    # the totals 0..b, b = min(budget, sum(cap)), each of them reachable.
    # Counts only grow with each coordinate, so the first one past
    # MAX_POINTS is returned as it stands (b + 1, with nothing allocated,
    # when b alone reaches it); every count up to MAX_POINTS is exact
    b = min(budget, sum(cap.tolist()))
    if b >= MAX_POINTS:
        return b + 1
    counts = np.zeros(b + 1, dtype=np.float64)
    counts[0] = count = 1
    for c in cap.tolist():
        counts = np.cumsum(counts)
        counts[c + 1:] -= counts[: -c - 1]  # numpy buffers the overlapping read
        if (count := int(counts.sum())) > MAX_POINTS:
            break
    return count


def _box_count(cap: np.ndarray) -> int:
    # the box size prod(c_e + 1) as an exact int, stopped like the count
    # above at its first running value past MAX_POINTS: every factor is at
    # least 1, so the product stays past it
    count = 1
    for c in cap.tolist():
        count *= c + 1
        if count > MAX_POINTS:
            break
    return count


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
    size exceeds ``MAX_POINTS``: the cardinality count, or else the box
    size prod(c_e + 1), an exact product of Python ints.  Each stops at its
    first running value past ``MAX_POINTS``, which the message reports as
    "at least" that many points.
    """
    if isinstance(constraint, CardinalityConstraint):
        cap = np.minimum(constraint.cap_vector(), f.box)
        estimate = _cardinality_count(cap, constraint.budget)
        admits = lambda x, e: sum(x.tolist()) <= constraint.budget
    elif isinstance(constraint, KnapsackInstance):
        cap = np.minimum(constraint.cap_vector(), f.box)
        estimate = _box_count(cap)
        w = constraint.weight_vector().tolist()

        def admits(x, e):
            spent = 0.0
            for k, w_e in zip(x[: e + 1].tolist(), w):
                spent += k * w_e
            return spent <= 1.0 + BUDGET_TOL

    elif isinstance(constraint, PolymatroidOracle):
        cap = np.minimum(f.box, constraint.rank_total)
        estimate = _box_count(cap)
        admits = lambda x, e: constraint.member(x.astype(np.float64))
    else:
        raise TypeError(f"unsupported constraint type {type(constraint).__name__}")
    if estimate > MAX_POINTS:
        raise CapacityError(
            f"estimated feasible region of at least {estimate} points exceeds cap {MAX_POINTS}"
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
