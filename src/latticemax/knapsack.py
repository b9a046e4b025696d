"""Knapsack-constrained maximization: partial enumeration plus greedy.

Feasible solutions satisfy w . x <= 1 (weights normalized to the budget)
and x <= c.  The solver enumerates a small set of initial solutions whose
support has at most three elements, runs a density-threshold greedy from
each, and keeps the best outcome; the combination is a
(1 - 1/e - O(eps))-approximation for monotone DR-submodular objectives.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

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
from .report import SolverReport

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


@dataclass
class InitialSolutionSet:
    """Deduplicated feasible starting points with support size <= 3."""

    solutions: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        unique = []
        for s in self.solutions:
            s = as_lattice_point(s)
            key = tuple(s)
            if key in seen:
                continue
            if int(np.count_nonzero(s)) > 3:
                raise ValueError("initial solution support exceeds three elements")
            seen.add(key)
            unique.append(s)
        self.solutions = unique

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)


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
    ``accepted=False``.
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

    memo = _PointMemo(f)
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
) -> InitialSolutionSet:
    """Candidate starting points from all ordered element tuples of length <= 3.

    Each tuple grows {0} by chained :func:`increase_support` calls along its
    elements (repeats extend the same coordinate again); budget-feasible
    results are collected and deduplicated.  The zero vector is always
    included via the empty tuple.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    n = inst.n
    collected: dict[tuple, np.ndarray] = {}
    max_len = min(3, n)
    for length in range(max_len + 1):
        for combo in itertools.product(range(n), repeat=length):
            batch = [zeros(n)]
            for e in combo:
                batch = increase_support(f, inst, e, batch, epsilon)
            for point in batch:
                if inst.fits(point):
                    collected.setdefault(tuple(point), point)
    return InitialSolutionSet(list(collected.values()))


def maximize_knapsack(
    f: ValueOracle, inst: KnapsackInstance, config: SolverConfig
) -> tuple[np.ndarray, SolverReport]:
    """Best greedy completion over all enumerated starting points.

    Ties between equally valued runs keep the earliest starting point in
    enumeration order.
    """
    start_calls = f.calls
    t0 = time.perf_counter()
    eps = config.effective
    starts = partial_enumeration(f, inst, eps)
    best_x: np.ndarray | None = None
    best_value = -1.0
    for x0 in starts:
        x, _ = greedy_knapsack(f, inst, x0, config)
        value = f.eval(x)
        if value > best_value:
            best_x, best_value = x, value
    if best_x is None:  # n >= 1 guarantees the zero start exists
        best_x, best_value = zeros(f.n), 0.0
    report = SolverReport(
        instance_id="",
        algorithm="knapsack",
        epsilon=eps,
        seed=config.seed,
        solution=tuple(int(v) for v in best_x),
        value=float(best_value),
        oracle_calls=f.calls - start_calls,
        wall_time_ms=int((time.perf_counter() - t0) * 1000),
    )
    return best_x, report
