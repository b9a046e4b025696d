"""Knapsack-constrained maximization: partial enumeration plus greedy.

Feasible solutions satisfy w . x <= 1 (weights normalized to the budget)
and x <= c.  The solver enumerates a small set of initial solutions whose
support has at most three elements, runs a density-threshold greedy from
each, and keeps the best outcome; the combination is a
(1 - 1/e - O(eps))-approximation for monotone DR-submodular objectives.
Like the cardinality solvers, :func:`maximize_knapsack` returns (x, trace).
One point memo serves the whole solve, so it makes at most prod_e (c_e + 1)
oracle calls: each lattice point in the box is evaluated at most once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cardinality import (
    GreedyTrace,
    SolverConfig,
    _level_candidates,
    _marginal_along,
    _max_step_with_gain,
    _PointMemo,
    threshold_schedule,
)
from .core import ValueOracle, as_lattice_point, unit, zeros

BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class KnapsackInstance:
    """Normalized knapsack constraint: weights in (0, 1], budget 1.

    Use :meth:`from_raw` to scale raw budgets (w', B) to w = w' / B.
    """

    weights: tuple[float, ...]
    cap: tuple[int, ...]

    def __post_init__(self):
        cap = as_lattice_point(np.array(self.cap, dtype=np.int64))
        object.__setattr__(self, "cap", tuple(int(v) for v in cap))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != len(self.cap):
            raise ValueError("weights and cap must have the same dimension")
        for e, w in enumerate(self.weights):
            if not w > 0:  # negated so that a NaN weight fails it
                raise ValueError(f"weight for element {e} must be positive, got {w}")
            if w > 1 + BUDGET_TOL:
                raise ValueError(f"weight for element {e} exceeds the budget: {w}")

    @classmethod
    def from_raw(cls, raw_weights, budget: float, cap) -> "KnapsackInstance":
        if not math.isfinite(budget):
            raise ValueError(f"budget must be finite, got {budget}")
        if budget <= 0:
            raise ValueError("budget must be positive")
        return cls(tuple(float(w) / budget for w in raw_weights), tuple(cap))

    @property
    def n(self) -> int:
        return len(self.weights)

    def weight_vector(self) -> np.ndarray:
        return np.array(self.weights, dtype=np.float64)

    def cap_vector(self) -> np.ndarray:
        return np.array(self.cap, dtype=np.int64)

    def fits(self, x: np.ndarray) -> bool:
        return float(self.weight_vector() @ x) <= 1.0 + BUDGET_TOL

    def is_feasible(self, x) -> bool:
        x = as_lattice_point(x, self.n)
        return bool(np.all(x <= self.cap_vector())) and self.fits(x)


def greedy_knapsack(
    f: ValueOracle,
    inst: KnapsackInstance,
    x0,
    config: SolverConfig,
) -> tuple[np.ndarray, GreedyTrace]:
    """Density-threshold greedy from the starting point x0.

    Thresholds sweep from d = max_e f(e) / w(e) down to eps * d * w_min.
    For each element the largest step k with f(k e | x) >= k w(e) theta is
    found by binary search against the per-element ceiling u(e); a step
    that would overrun the budget is rejected and lowers the ceiling to
    x(e) + k - 1 instead.  Rejected trials are recorded in the trace with
    ``accepted=False``.  Points are read through a fresh per-call memo,
    unless ``f`` already is one (as in :func:`maximize_knapsack`).
    """
    cap = inst.cap_vector()
    w = inst.weight_vector()
    if cap.shape[0] != f.n:
        raise ValueError("instance dimension does not match oracle")
    if np.any(cap > f.box):
        raise ValueError("instance cap exceeds the oracle box")
    x = as_lattice_point(x0, f.n)
    if not inst.is_feasible(x):
        raise ValueError("x0 is not feasible for the knapsack")
    eps = config.effective
    trace = GreedyTrace()
    if not cap.any():
        return x, trace

    memo = f if isinstance(f, _PointMemo) else _PointMemo(f)
    d = max(
        (memo(unit(f.n, e)) / w[e] for e in range(f.n) if cap[e] >= 1),
        default=0.0,
    )
    if d <= 0:
        return x, trace

    ceiling = cap.copy()
    spent = float(w @ x)
    for threshold in threshold_schedule(d, eps * d * float(w.min()), eps):
        for e in range(f.n):
            k_cap = int(ceiling[e] - x[e])
            if k_cap <= 0:
                continue
            k, gain = _max_step_with_gain(memo, x, e, k_cap, w[e] * threshold)
            if k < 1:
                continue
            if spent + k * w[e] <= 1.0 + BUDGET_TOL:
                x[e] += k
                spent += k * w[e]
                trace.add(threshold, e, k, gain)
            else:
                ceiling[e] = x[e] + k - 1
                trace.add(threshold, e, k, gain, accepted=False)
    return x, trace


def increase_support(
    f: ValueOracle,
    inst: KnapsackInstance,
    e: int,
    solutions,
    epsilon: float,
) -> list[np.ndarray]:
    """Extend each given point along coordinate e at geometric value levels.

    For each y, emits y + k e for every candidate k of the level-set scan
    (see :func:`binary_search_lattice`): levels h sweep from
    f(k_cap e | y) down by (1 - eps) factors to (1 - eps) * f(k_min e | y),
    where k_min is the smallest step with positive marginal (points with no
    positive marginal contribute nothing), and the smallest k reaching each
    level is emitted.  Costs one call for f(y) plus one per distinct k
    probed, for each y with room along e.  Output is deduplicated,
    box-feasible, and not filtered by the budget.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 <= e < inst.n:
        raise ValueError(f"element {e} out of range")
    cap = inst.cap_vector()
    step = unit(inst.n, e)
    out: dict[tuple, np.ndarray] = {}
    for y in solutions:
        y = as_lattice_point(y, inst.n)
        k_cap = int(cap[e] - y[e])
        if k_cap <= 0:
            continue
        for k, _ in _level_candidates(_marginal_along(f.eval, y, e), k_cap, epsilon):
            point = y + k * step
            out.setdefault(tuple(point), point)
    return list(out.values())


def partial_enumeration(
    f: ValueOracle, inst: KnapsackInstance, epsilon: float
) -> list[np.ndarray]:
    """Candidate starting points from all ordered element tuples of length <= 3.

    Each tuple grows {0} by chained :func:`increase_support` calls along its
    elements (a repeated element extends its coordinate again), so supports
    have at most three elements.  Each prefix is extended once: the batch of
    (a, b, c) is the batch of (a, b) extended along c, and only batches of
    tuples shorter than the longest are kept.  Only the points of a batch
    that fit the budget are kept for extension: an extension adds weight,
    so an over-budget point can never lead to a start.  Budget-feasible
    results are collected in tuple order (by length, then lexicographic) and
    deduplicated; the zero vector is always included via the empty tuple.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    n = inst.n
    collected: dict[tuple, np.ndarray] = {}
    max_len = min(3, n)
    batches: dict[tuple, list[np.ndarray]] = {}
    for length in range(max_len + 1):
        for combo in itertools.product(range(n), repeat=length):
            batch = (increase_support(f, inst, combo[-1], batches[combo[:-1]], epsilon)
                     if combo else [zeros(n)])
            batch = [point for point in batch if inst.fits(point)]
            if length < max_len:
                batches[combo] = batch
            for point in batch:
                collected.setdefault(tuple(point), point)
    return list(collected.values())


def maximize_knapsack(
    f: ValueOracle, inst: KnapsackInstance, config: SolverConfig
) -> tuple[np.ndarray, GreedyTrace]:
    """Best greedy completion over all enumerated starting points.

    Returns the best point and the trace of the :func:`greedy_knapsack` run
    that produced it.  Ties between equally valued runs keep the earliest
    starting point in enumeration order.  The enumeration, every greedy
    completion and the comparison of completions share one
    :class:`_PointMemo`, dropped on return: at most prod_e (c_e + 1) calls.
    """
    memo = _PointMemo(f)
    best, best_value = None, 0.0
    for x0 in partial_enumeration(memo, inst, config.effective):
        x, trace = greedy_knapsack(memo, inst, x0, config)
        value = memo(x)
        if best is None or value > best_value:
            best, best_value = (x, trace), value
    return best
