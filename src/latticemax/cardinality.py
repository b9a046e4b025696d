"""Decreasing-threshold greedy maximization under a cardinality constraint.

Feasible solutions are lattice points y with 0 <= y <= c and y(E) <= r.
Two solver entry points are provided:

* :func:`maximize_dr_cardinality` assumes diminishing-returns submodularity
  and picks the step size along each coordinate by a plain binary search
  (valid because k -> f(k e | y) - k * threshold is then concave).
* :func:`maximize_lattice_cardinality` only assumes lattice submodularity
  and replaces the step search with a level-set search over geometrically
  spaced value levels (:func:`binary_search_lattice`).

Within one solve each lattice point is evaluated at most once: solvers
read f through a per-call :class:`_PointMemo`, so ``f.calls`` grows by the
number of distinct points probed.

Both achieve a (1 - 1/e - O(eps)) fraction of the optimum for monotone
objectives and make O((n/eps) log ||c||_inf log(r/eps)) oracle calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from .core import ValueOracle, as_lattice_point, total, unit, zeros


def effective_epsilon(epsilon: float) -> tuple[float, int]:
    """Round epsilon down to the nearest exact reciprocal 1/m.

    Returns (1/m, m) where m = ceil(1/epsilon); a small tolerance absorbs
    float noise in the reciprocal so that e.g. 1/3 round-trips to m = 3.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    inv = 1.0 / epsilon
    m = round(inv)
    if abs(inv - m) > 1e-9:
        m = math.ceil(inv)
    return 1.0 / m, int(m)


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs: accuracy epsilon and RNG seed."""

    epsilon: float
    seed: int = 0

    def __post_init__(self):
        effective_epsilon(self.epsilon)  # validates the range

    @property
    def effective(self) -> float:
        return effective_epsilon(self.epsilon)[0]

    @property
    def inv_epsilon(self) -> int:
        """1 / effective epsilon, always an integer."""
        return effective_epsilon(self.epsilon)[1]


@dataclass(frozen=True)
class CardinalityConstraint:
    """y <= cap coordinate-wise and y(E) <= budget."""

    cap: tuple[int, ...]
    budget: int

    def __post_init__(self):
        cap = as_lattice_point(np.array(self.cap, dtype=np.int64))
        object.__setattr__(self, "cap", tuple(int(v) for v in cap))
        if self.budget < 0:
            raise ValueError("budget must be non-negative")

    @property
    def n(self) -> int:
        return len(self.cap)

    def cap_vector(self) -> np.ndarray:
        return np.array(self.cap, dtype=np.int64)

    def is_feasible(self, y: np.ndarray) -> bool:
        y = as_lattice_point(y, self.n)
        return bool(np.all(y <= self.cap_vector()) and total(y) <= self.budget)


@dataclass(frozen=True)
class TraceStep:
    threshold: float
    element: int
    step: int
    gain: float
    accepted: bool = True


@dataclass
class GreedyTrace:
    """Per-update log of a threshold greedy run; thresholds non-increasing."""

    steps: list[TraceStep] = field(default_factory=list)

    def add(self, threshold: float, element: int, step: int, gain: float,
            accepted: bool = True) -> None:
        self.steps.append(TraceStep(threshold, element, step, gain, accepted))

    def thresholds(self) -> list[float]:
        return [s.threshold for s in self.steps]


def threshold_schedule(top: float, floor: float, epsilon: float) -> Iterator[float]:
    """Yield top * (1 - eps)^j for j = 0, 1, ... while the value is >= floor.

    Each level is computed from the integer power to avoid cumulative
    multiplication drift.
    """
    if top <= 0:
        return
    j = 0
    while True:
        level = top * (1.0 - epsilon) ** j
        if level < floor:
            return
        yield level
        j += 1


class _PointMemo:
    """Values of f at the points one solve has probed, keyed by their bytes.

    A miss goes through ``f.eval``, so validation and call counting are
    those of the oracle; a hit costs no call.  Each solve creates its own
    memo and drops it on return; ``n``, ``box`` and ``eval`` let a memo
    stand in for f, so one knapsack solve shares it across its phases.
    Points must be int64 vectors, as all solver iterates are.
    """

    __slots__ = ("_f", "_values", "n", "box")

    def __init__(self, f: ValueOracle):
        self._f = f
        self._values: dict[bytes, float] = {}
        self.n, self.box = f.n, f.box

    def __call__(self, x: np.ndarray) -> float:
        key = x.tobytes()
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._f.eval(x)
        return value

    eval = __call__


def _max_step_with_gain(
    gain_at: Mapping[int, float], k_max: int, threshold: float
) -> tuple[int, float]:
    """Binary search for the largest k <= k_max with gain_at[k] >= k * threshold.

    ``gain_at`` is a ray k -> f(k e | y) from :func:`_marginal_along`.  The
    acceptable k form a prefix interval whenever f is DR-submodular
    (g(k) = f(k e | y) - k * threshold is concave with g(0) = 0), which
    makes the search exact.  Also returns the marginal value measured at
    the returned k (0.0 for k = 0).
    A search on a fresh ray costs at most 1 + ceil(log2(k_max + 1)) oracle
    calls, one for f(y) (made when the ray is) and one per probe; a probe
    the ray (or the memo under it) already holds costs none.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    lo, hi = 0, k_max
    gain_at_lo = 0.0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        gain = gain_at[mid]
        if gain >= mid * threshold:
            lo, gain_at_lo = mid, gain
        else:
            hi = mid - 1
    return lo, gain_at_lo


def maximize_dr_cardinality(
    f: ValueOracle, constraint: CardinalityConstraint, config: SolverConfig
) -> tuple[np.ndarray, GreedyTrace]:
    """Decreasing-threshold greedy for monotone DR-submodular f.

    Guarantees f(y) >= (1 - 1/e - eps) * OPT.  The threshold sweeps from
    d = max_e f(e) down to (eps / r) * d by factors of (1 - eps); at each
    level every element is topped up with the largest step whose average
    gain still clears the threshold.  Each (y, e) pair keeps one ray of
    marginals until a step changes y.
    """
    cap = constraint.cap_vector()
    if cap.shape[0] != f.n:
        raise ValueError("constraint dimension does not match oracle")
    if np.any(cap > f.box):
        raise ValueError("constraint cap exceeds the oracle box")
    eps = config.effective
    r = constraint.budget
    y = zeros(f.n)
    trace = GreedyTrace()
    if r == 0 or not cap.any():
        return y, trace

    memo = _PointMemo(f)
    d = max(
        (memo(unit(f.n, e)) for e in range(f.n) if cap[e] >= 1),
        default=0.0,
    )
    if d <= 0:
        return y, trace

    # room[e] = cap[e] - y[e] and left = r - y(E), kept as Python ints;
    # rays[e] caches f(k e | y) until a step changes y
    room, left = cap.tolist(), r
    rays: dict[int, Mapping[int, float]] = {}
    for threshold in threshold_schedule(d, (eps / r) * d, eps):
        for e in range(f.n):
            k_cap = min(room[e], left)
            if k_cap <= 0:
                continue
            ray = rays.get(e)
            if ray is None:
                ray = rays[e] = _marginal_along(memo, y, e)
            k, gain = _max_step_with_gain(ray, k_cap, threshold)
            if k >= 1:
                y[e] += k
                room[e] -= k
                left -= k
                trace.add(threshold, e, k, gain)
                rays.clear()
    return y, trace


def _level_candidates(
    val: Mapping[int, float], k_max: int, eps: float
) -> Iterator[tuple[int, float]]:
    """Yield (k, val[k]) lazily, one pair per geometric value level.

    ``val`` maps k to a value non-decreasing on 0..k_max with val[0] = 0,
    such as a ray of :func:`_marginal_along`; it must cache, since the scan
    reads some k more than once.  Levels h sweep from val[k_max] down by
    factors of (1 - eps) to (1 - eps) * val[k_min], where k_min is the
    smallest k with positive value; for each level the smallest k with
    val[k] >= h is yielded, unless the level before found the same k.
    Nothing is yielded when k_max <= 0 or val[k_max] <= 0.  Only the k the
    caller's iteration reaches are read.
    """
    if k_max <= 0 or val[k_max] <= 0:
        return
    # smallest k with positive value; valid since val is non-decreasing
    lo, hi = 1, k_max
    while lo < hi:
        mid = (lo + hi) // 2
        if val[mid] > 0:
            hi = mid
        else:
            lo = mid + 1
    k_min = lo

    found = None
    for level in threshold_schedule(val[k_max], (1.0 - eps) * val[k_min], eps):
        lo, hi = k_min, k_max
        while lo < hi:
            mid = (lo + hi) // 2
            if val[mid] >= level:
                hi = mid
            else:
                lo = mid + 1
        if lo != found:
            found = lo
            yield lo, val[lo]


class _Ray(dict):
    """k -> f(y + k e) - base, read through ``ev`` on the first lookup of k only.

    A repeated lookup is a dict hit: it builds no point and makes no call.
    """

    __slots__ = ("_ev", "_y", "_e", "_y_e", "_base")

    def __init__(self, ev: Callable[[np.ndarray], float], y: np.ndarray, e: int, base: float):
        super().__init__()
        self._ev, self._y, self._e, self._y_e, self._base = ev, y, e, int(y[e]), base

    def __missing__(self, k: int) -> float:
        point = self._y.copy()
        point[self._e] = self._y_e + k
        value = self[k] = self._ev(point) - self._base
        return value


def _marginal_along(
    ev: Callable[[np.ndarray], float], y: np.ndarray, e: int
) -> Mapping[int, float]:
    """The ray k -> f(y + k e) - f(y) through ``ev``, cached by k.

    f(y) is read once, now.  ``ray[k]`` reads f(y + k e) through ``ev`` on
    its first lookup only, so a repeated probe costs a dict lookup and
    builds no point.  The ray keeps a copy of y.  The subtraction is the
    same float arithmetic as ``f.shifted(y)``.
    """
    return _Ray(ev, y.copy(), e, ev(y))


def binary_search_lattice(
    g: ValueOracle, e: int, theta: float, k_max: int, epsilon: float
) -> int | None:
    """Level-set search for a step k with g(k e) >= (1 - eps) * k * theta.

    ``g`` must be monotone along coordinate e (typically a marginal view
    f(. | y)); no concavity is assumed.  Scans the value levels of
    :func:`_level_candidates`, from g(k_max e) down by factors of
    (1 - eps) until below (1 - eps) * g(k_min e), and returns the first
    level's smallest k that clears the threshold, or None (fail) when none
    does.  Each k is evaluated at most once.

    Any returned k satisfies g(k e) >= (1 - eps) * k * theta, and whenever
    some k* has g(k* e) >= k* * theta the search does not fail.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    along = _Ray(g.eval, unit(g.n, e, 0), e, 0.0)  # g(k e) - 0.0 is g(k e), bit for bit
    for k, value in _level_candidates(along, k_max, epsilon):
        if value >= (1.0 - epsilon) * k * theta:
            return k
    return None


def maximize_lattice_cardinality(
    f: ValueOracle, constraint: CardinalityConstraint, config: SolverConfig
) -> tuple[np.ndarray, GreedyTrace]:
    """Threshold greedy for monotone lattice-submodular f (DR not required).

    Same sweep as :func:`maximize_dr_cardinality` except for the top
    threshold and the step search.  The top threshold is
    d = max_e f(min(c_e, r) e), the value of the best feasible
    single-element point, so d <= OPT as the (1 - 1/e - eps) analysis
    requires.  Each step is the first level-set candidate k (see
    :func:`binary_search_lattice`) whose marginal f(k e | y) clears
    (1 - eps) * k * threshold.  Candidates do not depend on the threshold,
    so each (y, e) pair runs its level-set scan once, on one ray, and stops
    at the first candidate that clears.  A scan that finds none has run to
    its end, and later thresholds check the candidates it kept.  An
    accepted step changes y and discards every scan.
    """
    cap = constraint.cap_vector()
    if cap.shape[0] != f.n:
        raise ValueError("constraint dimension does not match oracle")
    if np.any(cap > f.box):
        raise ValueError("constraint cap exceeds the oracle box")
    eps = config.effective
    r = constraint.budget
    y = zeros(f.n)
    trace = GreedyTrace()
    if r == 0 or not cap.any():
        return y, trace

    memo = _PointMemo(f)
    d = max(
        (memo(unit(f.n, e, min(int(cap[e]), r))) for e in range(f.n) if cap[e] >= 1),
        default=0.0,
    )
    if d <= 0:
        return y, trace

    # room and left as in maximize_dr_cardinality; a visit that takes no
    # step has run the scan of (y, e) to its end, and scans[e] keeps its
    # candidates
    room, left = cap.tolist(), r
    scans: dict[int, list[tuple[int, float]]] = {}
    for threshold in threshold_schedule(d, (eps / r) * d, eps):
        for e in range(f.n):
            k_cap = min(room[e], left)
            if k_cap <= 0:
                continue
            scan = scans.get(e)
            if scan is None:
                scan = _level_candidates(_marginal_along(memo, y, e), k_cap, eps)
            seen = []
            for k, gain in scan:
                if gain >= (1.0 - eps) * k * threshold:
                    y[e] += k
                    room[e] -= k
                    left -= k
                    trace.add(threshold, e, k, gain)
                    scans.clear()
                    break
                seen.append((k, gain))
            else:
                scans[e] = seen
    return y, trace
