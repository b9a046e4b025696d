"""Knapsack-constrained maximization: partial enumeration plus greedy.

Feasible solutions satisfy w . x <= 1 (weights normalized to the budget)
and x <= c.  The solver enumerates a small set of initial solutions whose
support has at most three elements, runs a density-threshold greedy from
each, and keeps the best outcome; the combination is a
(1 - 1/e - O(eps))-approximation for monotone DR-submodular objectives.
The greedy is the cardinality solvers' sweep (:func:`cardinality._sweep`)
with thresholds scaled by the weights and each step capped at the budget
left, so every step fits.
Like the cardinality solvers, :func:`maximize_knapsack` returns (x, trace).
One point memo serves the whole solve, so it makes at most prod_e (c_e + 1)
oracle calls: each lattice point in the box is evaluated at most once.
The enumeration extends a point along e only over the steps that fit the
budget, so a solve reads f only at points that fit, but for at most one
anchor y + (c_e - y_e) e per extended (y, e) pair, which fixes the scan's
levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .cardinality import (
    GreedyTrace,
    SolverConfig,
    _bisection_rule,
    _level_candidates,
    _memo_of,
    _PointMemo,
    _sweep,
    effective_epsilon,
    threshold_schedule,
)
from .core import ValueOracle, as_lattice_point, unit, zeros

BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class KnapsackInstance:
    """Normalized knapsack constraint: weights in (0, 1], budget 1.

    Use :meth:`from_raw` to scale raw budgets (w', B) to w = w' / B.  The
    weight and cap arrays are built once, read-only, and shared by every
    method; they take no part in equality or repr.
    """

    weights: tuple[float, ...]
    cap: tuple[int, ...]
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _c: np.ndarray = field(init=False, repr=False, compare=False)

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
        w = np.array(self.weights, dtype=np.float64)
        c = np.array(self.cap, dtype=np.int64)
        w.flags.writeable = c.flags.writeable = False
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_c", c)

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
        """The weights as a read-only float64 array."""
        return self._w

    def cap_vector(self) -> np.ndarray:
        """The cap as a read-only int64 array."""
        return self._c

    def fits(self, x: np.ndarray) -> bool:
        return float(self._w @ x) <= 1.0 + BUDGET_TOL

    def is_feasible(self, x) -> bool:
        x = as_lattice_point(x, self.n)
        return bool(np.all(x <= self._c)) and self.fits(x)


def _check(f: ValueOracle, inst: KnapsackInstance) -> None:
    """Raise ValueError unless inst has f's dimension and a cap inside f's box; no call."""
    if inst.n != f.n:
        raise ValueError("instance dimension does not match oracle")
    if np.any(inst.cap_vector() > f.box):
        raise ValueError("instance cap exceeds the oracle box")


def _greedy(
    memo: _PointMemo, inst: KnapsackInstance, config: SolverConfig
) -> Callable[[np.ndarray], tuple[np.ndarray, GreedyTrace]]:
    """The greedy completion x -> (x, trace) of one solve, which steps x in place.

    The set-up every start shares is done here, once: d = max_e f(e) / w_e
    over e with c_e >= 1 (n memo reads, a Python float) and the levels from
    d down to eps * d * w_min.  x must be a feasible int64 point.
    """
    eps = config.effective
    w = inst.weights
    d = max((memo(unit(inst.n, e)) / w[e] for e in range(inst.n) if inst.cap[e] >= 1),
            default=0.0)
    levels = list(threshold_schedule(d, eps * d * min(w), eps))
    w_vec = inst.weight_vector()

    def complete(x: np.ndarray) -> tuple[np.ndarray, GreedyTrace]:
        room = [c - v for c, v in zip(inst.cap, x.tolist())]
        return _sweep(memo.rays, x, room, levels, _bisection_rule, eps, w, float(w_vec @ x),
                      1.0 + BUDGET_TOL)

    return complete


def greedy_knapsack(
    f: ValueOracle,
    inst: KnapsackInstance,
    x0,
    config: SolverConfig,
) -> tuple[np.ndarray, GreedyTrace]:
    """Density-threshold greedy from the starting point x0.

    The sweep of :func:`_sweep` at thresholds theta from d = max_e f(e) / w(e)
    down to eps * d * w_min: e takes the largest k <= k_cap with
    f(k e | x) >= k w(e) theta, by exponential search from k = 1, where
    k_cap = min(c_e - x(e), floor((1 + BUDGET_TOL - w . x) / w(e))) is the
    room that both the box and the budget leave, so every step fits; the
    sweep ends once no element has room.
    The single-start entry: it checks the instance against f and x0 against
    the instance before any call, then runs the set-up and sweep that
    :func:`maximize_knapsack` runs once per solve and once per start.
    Points are read through a fresh memo unless ``f`` already is one.  A
    visit reads f(e | x) first, so one that takes no step costs at most one
    call, and one that takes a step at most 2 * floor(log2(m)) + 1,
    m = max_e c_e.  With L <= 1 + ln(1 / (eps * w_min)) / eps levels and
    s <= L * n steps taken, a call makes at most
    1 + n + L * n + 2 * s * floor(log2(m)) oracle calls, the 1 for f(x0)
    (none when x0 = 0).  Like the DR cardinality sweep it skips e while
    f(e | x), read at this x or an earlier one and an upper bound on it as
    x grows for DR f, is below w(e) theta; skips only save calls, so that
    bound still holds.
    """
    _check(f, inst)
    x = as_lattice_point(x0, f.n)
    if not inst.is_feasible(x):
        raise ValueError("x0 is not feasible for the knapsack")
    return _greedy(_memo_of(f), inst, config)(x)


def _fit_room(inst: KnapsackInstance, y: np.ndarray, e: int, k_cap: int) -> int:
    """The largest k in 0..k_cap with ``inst.fits(y + k e)``; no call.

    The float weight of y + k e is non-decreasing in k, so the k that fit
    form a prefix.  The arithmetic guess floor((1 + BUDGET_TOL - w . y) / w_e)
    is corrected by :meth:`KnapsackInstance.fits` itself, so k_fit agrees
    with the predicate to the last bit.
    """
    guess = (1.0 + BUDGET_TOL - float(inst.weight_vector() @ y)) // inst.weights[e]
    k = int(min(k_cap, max(0.0, guess)))
    point = y.copy()

    def fits(k: int) -> bool:
        point[e] = y[e] + k
        return inst.fits(point)

    while k > 0 and not fits(k):
        k -= 1
    while k < k_cap and fits(k + 1):
        k += 1
    return k


def _extend(
    memo: _PointMemo, factories: dict[bytes, Callable[[int], Mapping[int, float]]],
    inst: KnapsackInstance, y: np.ndarray, e: int, epsilon: float,
) -> list[np.ndarray]:
    """y + k e for each candidate k of the level-set scan along e that fits the budget.

    The candidates are those of :func:`increase_support`'s scan with
    k <= k_fit, the largest k with y + k e inside the box and the budget
    (:func:`_fit_room`), in the same order.  Nothing, and no ray and no
    call, when k_fit = 0.  Otherwise f(y), read when y's ray factory
    (``factories[y bytes]``) is made, if it is not there yet, and
    f(y + k_fit e); if that gain is not positive no fitting k has one, and
    nothing more is read.  Else the anchor y + (c_e - y_e) e, the one point
    read that may not fit (the scan's levels hang from it), plus the fitting
    k the bisections probe.  y must be an int64 point inside the box.
    """
    k_cap = inst.cap[e] - int(y[e])
    k_fit = _fit_room(inst, y, e, k_cap)
    if k_fit <= 0:
        return []
    if (key := y.tobytes()) not in factories:
        factories[key] = memo.rays(y)
    points = []
    for k, _ in _level_candidates(factories[key](e), k_cap, epsilon, k_fit):
        point = y.copy()
        point[e] += k
        points.append(point)
    return points


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
    probed, for each y with room along e (a fresh memo per y unless ``f``
    is a memo, in which a point already read costs none).  The instance is
    checked against f before any call.  Output is deduplicated,
    box-feasible, and not filtered by the budget: it is the paper's whole
    extension step, over k in [1, c_e - y_e].  Chaining it along a tuple's
    elements and dropping the over-budget points gives exactly the starts
    of :func:`partial_enumeration`, which runs the same scan with a fit
    bound (:func:`_extend`) and so probes no over-budget step but anchors.
    """
    effective_epsilon(epsilon)  # validates epsilon
    if not 0 <= e < inst.n:
        raise ValueError(f"element {e} out of range")
    _check(f, inst)
    out: dict[bytes, np.ndarray] = {}
    for y in solutions:
        y = as_lattice_point(y, inst.n)
        k_cap = inst.cap[e] - int(y[e])
        if k_cap <= 0:
            continue
        for k, _ in _level_candidates(_memo_of(f).rays(y)(e), k_cap, epsilon):
            point = y.copy()
            point[e] += k
            out.setdefault(point.tobytes(), point)
    return list(out.values())


def partial_enumeration(
    f: ValueOracle, inst: KnapsackInstance, epsilon: float
) -> list[np.ndarray]:
    """Candidate starting points from all ordered element tuples of length <= 3.

    Each tuple grows {0} by chained extensions along its elements, as
    :func:`increase_support` makes them (a repeated element extends its
    coordinate again), so supports have at most three elements.  Each
    prefix is extended once: the batch of (a, b, c) is the batch of (a, b)
    extended along c, deduplicated in first-seen order, and only batches
    of tuples shorter than the longest are kept.  An extension keeps only
    the steps that fit the budget (:func:`_extend`), and an over-budget
    point can never lead to a start, since extending adds weight: the
    batches, and so the starts, are those of :func:`increase_support`'s
    whole scan with the over-budget points dropped, in the same order, but
    no over-budget step is probed, except the one anchor per (point, e)
    pair that the scan's levels hang from.  Each (point, e) pair is
    extended once per call, since batches overlap (those of (a, b) and
    (b, a), say): its extensions are kept for the next batch that holds the
    point, and its ray factory for its other pairs, so a point is checked
    once.  Results are collected in tuple order (by length, then
    lexicographic) and deduplicated; the zero vector is always included via
    the empty tuple.  The instance is checked against f before any call,
    and points are read through one fresh memo unless ``f`` already is one.
    """
    effective_epsilon(epsilon)  # validates epsilon
    _check(f, inst)
    memo = _memo_of(f)
    n = inst.n
    collected: dict[bytes, np.ndarray] = {}
    max_len = min(3, n)
    batches: dict[tuple, list[np.ndarray]] = {}
    extensions: dict[tuple[bytes, int], list[np.ndarray]] = {}  # (y bytes, e) -> _extend's points
    factories: dict[bytes, Callable[[int], Mapping[int, float]]] = {}  # y bytes -> memo.rays(y)
    for length in range(max_len + 1):
        for combo in itertools.product(range(n), repeat=length):
            if not combo:
                batch = [zeros(n)]
            else:
                e = combo[-1]
                grown: dict[bytes, np.ndarray] = {}
                for y in batches[combo[:-1]]:
                    key = (y.tobytes(), e)
                    points = extensions.get(key)
                    if points is None:
                        points = extensions[key] = _extend(memo, factories, inst, y, e, epsilon)
                    for point in points:
                        grown.setdefault(point.tobytes(), point)
                batch = list(grown.values())
            if length < max_len:
                batches[combo] = batch
            for point in batch:
                collected.setdefault(point.tobytes(), point)
    return list(collected.values())


def maximize_knapsack(
    f: ValueOracle, inst: KnapsackInstance, config: SolverConfig
) -> tuple[np.ndarray, GreedyTrace]:
    """Best greedy completion over all enumerated starting points.

    Returns the best point and the trace of the greedy run (as
    :func:`greedy_knapsack` makes it, each step capped at the budget left)
    that produced it.  Ties between equally valued runs keep the earliest
    starting point in enumeration order.  The instance is checked against
    f before any call.  The greedy's set-up (d and its levels) runs once
    per solve, and each start is swept directly; the enumeration, every
    greedy completion and the comparison of completions share one
    :class:`_PointMemo`, dropped on return.  Every point the solve reads
    fits the budget, but for at most one anchor y + (c_e - y_e) e per pair
    (y, e) the enumeration extends, and each is read once: at most
    (points of the box that fit) + (extended pairs) calls, and never more
    than prod_e (c_e + 1).
    """
    _check(f, inst)
    memo = _PointMemo(f)
    starts = partial_enumeration(memo, inst, config.effective)
    complete = _greedy(memo, inst, config)
    best, best_value = None, 0.0
    for x0 in starts:
        x, trace = complete(x0.copy())
        value = memo(x)
        if best is None or value > best_value:
            best, best_value = (x, trace), value
    return best
