"""Decreasing-threshold greedy maximization under a cardinality constraint.

Feasible solutions are lattice points y with 0 <= y <= c and y(E) <= r.
Both solvers, and :func:`knapsack.greedy_knapsack`, run one sweep,
:func:`_sweep`: the threshold falls by factors of (1 - eps) from a top
value d, and at each level every element takes the step its step rule
picks on the ray k -> f(k e | y).  The cardinality levels end at
(eps / r) * d, and a step is capped at the budget left.

* :func:`maximize_dr_cardinality` (DR-submodular f): d = max_e f(e); the
  rule bisects for the largest step whose average gain clears the
  threshold, exact because k -> f(k e | y) - k * threshold is then concave.
* :func:`maximize_lattice_cardinality` (lattice-submodular f):
  d = max_e f(min(c_e, r) e); the rule takes the first candidate of a
  level-set scan whose gain clears (1 - eps) times the threshold
  (:func:`binary_search_lattice`).

The knapsack greedy bisects too, at thresholds scaled by the weights, and
rejects a step that overruns the budget.  Each solve reads f through its
own :class:`_PointMemo`, so ``f.calls`` grows by the number of distinct
points probed.  Both cardinality solvers achieve a (1 - 1/e - O(eps))
fraction of the optimum for monotone objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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

    A miss goes through ``f.eval`` (or ``f.eval_batch``, or, for a probe
    of a :class:`_Ray`, ``f.eval_along``), so validation and call counting
    are those of the oracle; a hit costs no call.  Each solve
    creates its own memo and drops it on return; ``n``, ``box``, ``eval``
    and ``eval_batch`` let a memo stand in for f, so one knapsack solve
    shares it across its phases and one polymatroid solve across its
    directions.  The two paths keep separate values, since ``fn`` and
    ``batch_fn`` need not agree bit for bit: a point read by one is never
    answered by the other.  Points must be int64 vectors, as all solver
    iterates are.
    """

    __slots__ = ("_f", "_values", "_batch_values", "n", "box")

    def __init__(self, f: ValueOracle):
        self._f = f
        self._values: dict[bytes, float] = {}
        self._batch_values: dict[bytes, float] = {}
        self.n, self.box = f.n, f.box

    def __call__(self, x: np.ndarray) -> float:
        key = x.tobytes()
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._f.eval(x)
        return value

    eval = __call__

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """f at the rows of X; one ``f.eval_batch`` call for the distinct new rows.

        The new rows go in first-seen order, so a batch of k distinct new
        rows costs k calls, and a batch of hits makes no call at all.
        """
        keys = [row.tobytes() for row in X]
        values = self._batch_values
        new: dict[bytes, int] = {}  # each new key -> the row it first appears in
        for i, key in enumerate(keys):
            if key not in values:
                new.setdefault(key, i)
        if new:
            values.update(zip(new, self._f.eval_batch(X[list(new.values())]).tolist()))
        return np.array([values[key] for key in keys], dtype=np.float64)


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
    """k -> f(y + k e) - base, read through a solve's memo on the first lookup of k only.

    y is checked once, when the ray is made, by the oracle's own check
    (shape, integer dtype, every entry in [0, box]); it must not change
    while the ray lives.  A first lookup of k builds y + k e and looks it
    up in the memo's values; a miss goes through ``f.eval_along``, which
    checks only y_e + k against [0, c_e], so the probe is counted as one
    call, or rejected at no cost with ``eval``'s ValueError.  A repeated
    lookup is a dict hit: it builds no point and makes no call.
    """

    __slots__ = ("_values", "_f", "_y", "_e", "_y_e", "_base")

    def __init__(self, memo: _PointMemo, y: np.ndarray, e: int, base: float):
        super().__init__()
        memo._f._validate(y)
        self._values, self._f = memo._values, memo._f
        self._y, self._e, self._y_e, self._base = y, e, int(y[e]), base

    def __missing__(self, k: int) -> float:
        point = self._y.copy()
        point[self._e] = self._y_e + k
        key = point.tobytes()
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._f.eval_along(point, self._e)
        value = self[k] = value - self._base
        return value


def _marginal_along(memo: _PointMemo, y: np.ndarray, e: int) -> Mapping[int, float]:
    """The ray k -> f(y + k e) - f(y) through ``memo``: a :class:`_Ray` on a copy of y.

    f(y) is read once, now, through the memo; each gain is the float
    difference of two memo values.
    """
    return _Ray(memo, y.copy(), e, memo(y))


# maps a threshold to the step (k, f(k e | y)) one (y, e) pair takes; k = 0 for none
_Step = Callable[[float], tuple[int, float]]
# makes a pair's _Step from its ray, the largest step allowed and eps
_Rule = Callable[[Mapping[int, float], int, float], _Step]


def _bisection_rule(ray: Mapping[int, float], k_max: int, eps: float) -> _Step:
    """The DR and knapsack sweeps' rule: :func:`_max_step_with_gain` on ``ray``."""
    return lambda threshold: _max_step_with_gain(ray, k_max, threshold)


def _level_rule(ray: Mapping[int, float], k_max: int, eps: float) -> _Step:
    """The lattice sweep's rule: the first level-set candidate that clears.

    The rule returns the first candidate (k, gain) of
    :func:`_level_candidates` on ``ray`` with gain >= (1 - eps) * k *
    threshold, or (0, 0.0) when none does.  Candidates do not depend on the
    threshold, so the scan runs once: the rule keeps the candidates it has
    read and resumes the scan only past them.
    """
    scan = _level_candidates(ray, k_max, eps)
    seen: list[tuple[int, float]] = []

    def step(threshold: float) -> tuple[int, float]:
        for k, gain in seen:
            if gain >= (1.0 - eps) * k * threshold:
                return k, gain
        for k, gain in scan:
            seen.append((k, gain))
            if gain >= (1.0 - eps) * k * threshold:
                return k, gain
        return 0, 0.0

    return step


def binary_search_lattice(
    g: ValueOracle, e: int, theta: float, k_max: int, epsilon: float
) -> int | None:
    """Level-set search for a step k with g(k e) >= (1 - eps) * k * theta.

    ``g`` must be monotone along coordinate e (typically a marginal view
    f(. | y)); no concavity is assumed.  This is the lattice sweep's rule
    (:func:`_level_rule`) on the ray k -> g(k e), with None (fail) for no
    step.  Each k is evaluated at most once, so a search costs at most
    k_max calls.

    Any returned k satisfies g(k e) >= (1 - eps) * k * theta, and whenever
    some k* has g(k* e) >= k* * theta the search does not fail.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    # g(k e) - 0.0 is g(k e), bit for bit, and g(0) is never read
    along = _Ray(_PointMemo(g), unit(g.n, e, 0), e, 0.0)
    return _level_rule(along, k_max, epsilon)(theta)[0] or None


def _sweep(
    memo: _PointMemo, y: np.ndarray, room: list[int], levels: Iterable[float], rule: _Rule,
    eps: float, scale: Sequence[float], spent: float, limit: float, *, reject: bool,
) -> tuple[np.ndarray, GreedyTrace]:
    """The threshold sweep of all three greedies; it steps y in place.

    At each level every e with k_cap >= 1 takes the step ``rule(ray, k_cap,
    eps)`` picks at threshold scale_e * level; the ray of (y, e) is kept
    until a step changes y, its search until k_cap changes.  A step of k
    costs k * scale_e against ``limit``, ``spent`` being the budget used.
    Without ``reject`` (cardinality, unit scale) k_cap = min(room_e,
    limit - spent), so every step fits.  With it (knapsack) k_cap = room_e,
    and a step that does not fit is rejected: room_e falls to k - 1 and e's
    search is rebuilt on the same ray.  Under :func:`_bisection_rule` a
    visit probes at most ceil(log2(k_cap + 1)) points, and the f(y) a ray
    reads is the start point's or one an accepted step has probed.
    """
    trace = GreedyTrace()
    rays: dict[int, Mapping[int, float]] = {}
    searches: dict[int, _Step] = {}
    for threshold in levels:
        for e in range(len(room)):
            k_cap = room[e] if reject else min(room[e], limit - spent)
            if k_cap <= 0:
                continue
            search = searches.get(e)
            if search is None:
                if e not in rays:
                    rays[e] = _marginal_along(memo, y, e)
                search = searches[e] = rule(rays[e], k_cap, eps)
            k, gain = search(scale[e] * threshold)
            if k < 1:
                continue
            if spent + k * scale[e] <= limit:
                y[e] += k
                room[e] -= k
                spent += k * scale[e]
                trace.add(threshold, e, k, gain)
                rays.clear()
                searches.clear()
            else:
                room[e] = k - 1
                del searches[e]
                trace.add(threshold, e, k, gain, accepted=False)
    return y, trace


def _cardinality_greedy(
    f: ValueOracle,
    constraint: CardinalityConstraint,
    config: SolverConfig,
    top: Callable[[int, int], int],
    rule: _Rule,
) -> tuple[np.ndarray, GreedyTrace]:
    """The set-up of both cardinality solvers, then their :func:`_sweep`.

    d = max_e f(top(c_e, r) e) over e with c_e >= 1; the levels end at
    (eps / r) * d, and steps are capped at r - y(E).
    """
    cap = constraint.cap_vector()
    if cap.shape[0] != f.n:
        raise ValueError("constraint dimension does not match oracle")
    if np.any(cap > f.box):
        raise ValueError("constraint cap exceeds the oracle box")
    eps = config.effective
    r = constraint.budget
    if r == 0:
        return zeros(f.n), GreedyTrace()
    memo = _PointMemo(f)
    tops = (memo(unit(f.n, e, top(int(cap[e]), r))) for e in range(f.n) if cap[e] >= 1)
    d = max(tops, default=0.0)
    levels = threshold_schedule(d, (eps / r) * d, eps)
    return _sweep(memo, zeros(f.n), cap.tolist(), levels, rule, eps, [1] * f.n, 0, r,
                  reject=False)


def maximize_dr_cardinality(
    f: ValueOracle, constraint: CardinalityConstraint, config: SolverConfig
) -> tuple[np.ndarray, GreedyTrace]:
    """Decreasing-threshold greedy for monotone DR-submodular f.

    Guarantees f(y) >= (1 - 1/e - eps) * OPT.  The top threshold is
    d = max_e f(e); each step is the largest whose average gain clears the
    threshold.  With L <= 1 + ln(r / eps) / eps levels and
    m = min(max_e c_e, r), a solve makes at most
    1 + n + L * n * ceil(log2(m + 1)) oracle calls.
    """
    return _cardinality_greedy(f, constraint, config, lambda c_e, r: 1, _bisection_rule)


def maximize_lattice_cardinality(
    f: ValueOracle, constraint: CardinalityConstraint, config: SolverConfig
) -> tuple[np.ndarray, GreedyTrace]:
    """Threshold greedy for monotone lattice-submodular f (DR not required).

    The top threshold is d = max_e f(min(c_e, r) e), the value of the best
    feasible single-element point, so d <= OPT as the (1 - 1/e - eps)
    analysis requires.  Each step is the first level-set candidate k (see
    :func:`binary_search_lattice`) whose gain f(k e | y) clears
    (1 - eps) * k * threshold.  A (y, e) pair's scan runs once and reads
    each k at most once, so with s <= r accepted steps and
    m = min(max_e c_e, r) a solve makes at most 1 + n + (s + 1) * n * m
    oracle calls.
    """
    return _cardinality_greedy(f, constraint, config, min, _level_rule)
