"""Decreasing-threshold greedy maximization under a cardinality constraint.

Feasible solutions are lattice points y with 0 <= y <= c and y(E) <= r.
Both solvers, :func:`knapsack.greedy_knapsack` and the polymatroid
direction search run one sweep, :func:`_sweep`: the threshold falls by
factors of (1 - eps) from a top value d, and at each level every element
takes the step its step rule picks on its ray, until no element can step.
The cardinality levels end at (eps / r) * d; a step is capped at r - y(E).

* :func:`maximize_dr_cardinality` (DR-submodular f): d = max_e f(e); the
  rule searches from k = 1 up, by doubling and then bisection, for the
  largest step whose average gain clears the threshold, exact because
  k -> f(k e | y) - k * threshold is then concave.
* :func:`maximize_lattice_cardinality` (lattice-submodular f):
  d = max_e f(min(c_e, r) e); the rule takes the first candidate of a
  level-set scan whose gain clears (1 - eps) times the threshold
  (:func:`binary_search_lattice`).

The knapsack greedy searches the same way, at thresholds scaled by the
weights, and caps each step at the budget left.  Each solve reads f
through its own :class:`_PointMemo`, so ``f.calls`` grows by the number
of distinct points probed other than 0.  Both cardinality solvers achieve
a (1 - 1/e - O(eps)) fraction of the optimum for monotone objectives.

The sweep is lazy (CELF-style, Minoux 1978): each step rule returns, with
its step, an upper bound on the element's average marginal gain, read from
the probes its ray holds, and a later visit whose bound is below its
threshold is skipped.  The DR search's bound, f(e | y) = g(1), needs DR,
which the search assumes anyway; the level rule's needs only lattice
submodularity.  When ``f.meta["dr_submodular"]`` is true the lattice
solver uses DR too: its rule finds the scan's step by the DR search's
exponential search (:func:`_dr_level_rule`), so a visit that takes no
step reads g(1) alone, and it keeps the DR bound across steps.  A skipped
visit is one where the rule would take no step, so solutions and traces
are those of the eager sweep, and calls only fall: every call bound below
still holds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import ValueOracle, as_lattice_point, total, unit, zeros


def _ceil_with_tolerance(v: float) -> int:
    """ceil(v), except that a v within 1e-9 of an integer rounds to it."""
    r = round(v)
    if abs(v - r) <= 1e-9:
        return int(r)
    return int(math.ceil(v))


def effective_epsilon(epsilon: float) -> tuple[float, int]:
    """Round epsilon down to the nearest exact reciprocal 1/m.

    Returns (1/m, m) where m = ceil(1/epsilon); a small tolerance absorbs
    float noise in the reciprocal so that e.g. 1/3 round-trips to m = 3.
    Raises ValueError outside (0, 1), and where 1 - epsilon rounds to 1.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if 1.0 - epsilon == 1.0:
        raise ValueError(f"epsilon {epsilon} is too small: 1 - epsilon rounds to 1")
    m = _ceil_with_tolerance(1.0 / epsilon)
    return 1.0 / m, m


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs: accuracy epsilon and RNG seed."""

    epsilon: float
    seed: int = 0

    def __post_init__(self):
        effective_epsilon(self.epsilon)  # validates epsilon
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

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
        if isinstance(self.budget, bool) or not isinstance(self.budget, (int, np.integer)):
            raise ValueError(f"budget must be an integer, got {self.budget!r}")
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
    """One step of a threshold sweep.

    Every step fits its budget and is taken, so ``accepted`` is always
    True; it stays because ``perfbench/tracing.py`` reads it.
    """

    threshold: float
    element: int
    step: int
    gain: float
    accepted: bool = True


@dataclass
class GreedyTrace:
    """Per-update log of a threshold greedy run; thresholds non-increasing.

    ``skipped`` counts the (y, e) visits that :func:`_sweep` skipped because
    a bound from earlier probes showed the step rule would take no step.
    """

    steps: list[TraceStep] = field(default_factory=list)
    skipped: int = 0

    def add(self, threshold: float, element: int, step: int, gain: float) -> None:
        self.steps.append(TraceStep(threshold, element, step, gain))

    def thresholds(self) -> list[float]:
        return [s.threshold for s in self.steps]


def threshold_schedule(top: float, floor: float, epsilon: float) -> Iterator[float]:
    """Yield top * (1 - eps)^j for j = 0, 1, ... while the value is >= floor.

    Each level is computed from the integer power to avoid cumulative
    multiplication drift.  A NaN or infinite top raises ValueError: no level
    would ever fall below the floor.
    """
    if not math.isfinite(top):
        raise ValueError(f"threshold schedule needs a finite top value, got {top}")
    if top <= 0:
        return
    j = 0
    while True:
        level = top * (1 - epsilon) ** j
        if level < floor:
            return
        yield level
        j += 1


class _PointMemo:
    """Values of f at the points one solve has probed, keyed by their bytes.

    A miss goes through ``f.eval`` (or, for a probe of a :class:`_Ray`,
    ``f.eval_along``), so validation and call counting are those of the
    oracle; a hit costs no call.  Both paths read and fill one table, so a
    point is read from f at most once per solve.  Each solve creates its
    own memo and drops it on return; ``n``, ``box`` and ``eval`` let a memo
    stand in for f, so one knapsack solve shares it across its phases and
    one polymatroid solve across its directions.  Points must be int64
    vectors, as all solver iterates are.  :meth:`rays` makes the rays the
    greedies' sweeps and the polymatroid's extension rays read, one factory
    per point.  A memo starts out holding f(0), the oracle's ``_f0``, which
    its constructor read uncounted, so a solve never pays a call for f(0).
    """

    __slots__ = ("_f", "_values", "n", "box")

    def __init__(self, f: ValueOracle):
        self._f = f
        self._values: dict[bytes, float] = {zeros(f.n).tobytes(): f._f0}
        self.n, self.box = f.n, f.box

    def __call__(self, x: np.ndarray) -> float:
        key = x.tobytes()
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._f.eval(x)
        return value

    eval = __call__

    def rays(self, y: np.ndarray) -> Callable[[int], _Ray]:
        """y's ray factory e -> :class:`_Ray`; y is copied, checked and read from f once, now."""
        y = y.copy()
        self._f._validate(y)
        return functools.partial(_Ray, self._values, self._f, y, y.tolist(), self(y))


def _memo_of(f: ValueOracle | _PointMemo) -> _PointMemo:
    """f itself if it is a memo (as in a knapsack or polymatroid solve), else a fresh one."""
    return f if isinstance(f, _PointMemo) else _PointMemo(f)


def _max_step_with_gain(
    gain_at: Mapping[int, float], k_max: int, threshold: float
) -> tuple[int, float]:
    """Exponential search for the largest k <= k_max with gain_at[k] >= k * threshold.

    ``gain_at`` is a ray k -> f(k e | y) from :meth:`_PointMemo.rays`.  The
    search probes k = 1, 2, 4, ... while the gain clears, up to k_max, then
    bisects between the last probe that cleared and the first that failed
    (or k_max).  The acceptable k form a prefix interval whenever f is
    DR-submodular (g(k) = f(k e | y) - k * threshold is concave with
    g(0) = 0), which makes the search exact.  Also returns the marginal
    value measured at the returned k (0.0 for k = 0).
    A search reads g(1) first, so a visit that takes no step makes one
    probe; with k_max >= 1 no search makes more than
    2 * floor(log2(k_max)) + 1.  Each probe the ray (or the memo under it)
    does not already hold costs one oracle call; f(y) costs one more when
    y's ray factory is made, unless the memo holds it.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    lo, hi = 0, k_max
    gain_at_lo = 0.0
    k = 1
    while k <= k_max:
        gain = gain_at[k]
        if gain >= k * threshold:
            lo, gain_at_lo = k, gain
            k *= 2
        else:
            hi = k - 1
            break
    while lo < hi:
        mid = (lo + hi + 1) // 2
        gain = gain_at[mid]
        if gain >= mid * threshold:
            lo, gain_at_lo = mid, gain
        else:
            hi = mid - 1
    return lo, gain_at_lo


def _least_reaching(val: Mapping[int, float], lo: int, hi: int, level: float) -> int:
    """The smallest k in lo..hi with val[k] >= level, by bisection, given val[hi] >= level."""
    while lo < hi:
        mid = (lo + hi) // 2
        if val[mid] >= level:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _level_candidates(
    val: Mapping[int, float], k_max: int, eps: float, k_fit: int | None = None
) -> Iterator[tuple[int, float]]:
    """Yield (k, val[k]) lazily, one pair per geometric value level, for k <= k_fit.

    ``val`` maps k to a value non-decreasing on 0..k_max with val[0] = 0,
    such as a ray of :meth:`_PointMemo.rays`; it must cache, since the scan
    reads some k more than once.  Levels h sweep from the anchor val[k_max]
    down by factors of (1 - eps) to (1 - eps) * val[k_min], where k_min is
    the smallest k with positive value; for each level the smallest k with
    val[k] >= h is yielded, unless the level before found the same k.  Only
    the k the caller's iteration reaches are read.

    The fit bound k_fit <= k_max (k_max by default) keeps the pairs with
    k <= k_fit, in the scan's order, and reads no other k but the anchor:
    val[k_fit] is read first, and nothing is yielded (and nothing more
    read) when k_fit <= 0 or val[k_fit] <= 0.  Then the anchor is read,
    k_min is found by bisection on [1, k_fit], and a level above val[k_fit]
    is skipped, since its k lies beyond k_fit; every other level's k lies
    in [k_min, k_fit], where its bisection runs.
    """
    if k_fit is None:
        k_fit = k_max
    if k_fit <= 0 or val[k_fit] <= 0:
        return
    fit_top = val[k_fit]
    top = val[k_max]
    # the least positive float, so val[k] >= it exactly when val[k] > 0
    k_min = _least_reaching(val, 1, k_fit, math.ulp(0.0))
    found = None
    for level in threshold_schedule(top, (1 - eps) * val[k_min], eps):
        if level > fit_top:
            continue
        k = _least_reaching(val, k_min, k_fit, level)
        if k != found:
            found = k
            yield k, val[k]


class _Ray(dict):
    """k -> f(y + k e) - base, read through a solve's memo on the first lookup of k only.

    y, checked by the :meth:`_PointMemo.rays` factory that made the ray (or
    :func:`binary_search_lattice`'s y = 0), must not change while the ray
    lives.  The factory, a ``functools.partial``, hands each ray the memo's
    values, f, y, y as a list of ints and base = f(y), so making a ray
    copies nothing.  A first lookup of k builds y + k e (one copy of y)
    and looks it up in the memo's values; a miss goes through
    ``f.eval_along``, which checks only y_e + k against [0, c_e], so the
    probe is counted as one call, or rejected at no cost with ``eval``'s
    ValueError.  A repeated lookup is a dict hit: it builds no point and
    makes no call.  Each gain is the float difference of two memo values.
    """

    __slots__ = ("_values", "_f", "_y", "_e", "_y_e", "_base")

    def __init__(self, values: dict[bytes, float], f: ValueOracle, y: np.ndarray,
                 y_list: list[int], base: float, e: int):
        # a ray starts empty, so dict's own __init__ has nothing to do
        self._values, self._f, self._y, self._e, self._y_e, self._base = (
            values, f, y, e, y_list[e], base)

    def __missing__(self, k: int) -> float:
        point = self._y.copy()
        point[self._e] = self._y_e + k
        key = point.tobytes()
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._f.eval_along(point, self._e)
        value = self[k] = value - self._base
        return value

    def value(self, k: int) -> float:
        """f(y + k e) for a k this ray has read: a memo hit, no call."""
        point = self._y.copy()
        point[self._e] = self._y_e + k
        return self._values[point.tobytes()]


# maps (ray of (y, e), the largest step allowed, eps, threshold) to the step
# (k, f(k e | y)) the pair takes (k = 0 for none) and the bound the ray's
# probes leave e: no later visit of e steps below it; None drops e's bound
_Rule = Callable[[Mapping[int, float], int, float, float], tuple[int, float, float | None]]


def _dr_bound(ray: Mapping[int, float], k: int) -> float:
    """g(1) = f(e | y), or f(e | y + k e) if less and known; inf if g(1) is unread.

    Needs f monotone and DR-submodular: then f(e | y') <= f(e | y) for
    every y' >= y, and by concavity the search at y' returns 0 once
    f(e | y') is below its threshold.  A search with k_cap >= 1 reads k = 1
    first; after a step of k < k_cap, its failed probe at k + 1 gives
    f(e | y + k e).  A polymatroid ray's -inf (off P, so off P for every
    y' >= y) passes through.
    """
    bound = ray.get(1, math.inf)
    if k and k + 1 in ray:
        bound = min(bound, ray[k + 1] - ray[k])
    return bound


def _bisection_rule(ray: Mapping[int, float], k_cap: int, eps: float,
                    threshold: float) -> tuple[int, float, float]:
    """The DR and knapsack sweeps' rule: :func:`_max_step_with_gain`, with :func:`_dr_bound`."""
    k, gain = _max_step_with_gain(ray, k_cap, threshold)
    return k, gain, _dr_bound(ray, k)


def _level_rule(ray: Mapping[int, float], k_cap: int, eps: float,
                threshold: float) -> tuple[int, float, float | None]:
    """The lattice sweep's rule: the first level-set candidate that clears.

    Returns the first candidate (k, gain) of :func:`_level_candidates` on
    ``ray`` with gain >= (1 - eps) * k * threshold, or (0, 0.0) when none
    does.  Candidates do not depend on the threshold and ``ray`` caches its
    probes, so a scan rerun on the same ray reads no k from f again.

    The bound is None after a step, which changes y_e, and else B / (1 - eps),
    B = max_i g(k_i) / (k_{i-1} + 1) over the probed 0 = k_0 < ... < k_m
    (k_m = k_cap, read first).  Monotone f gives g(k) <= g(k_i) on
    (k_{i-1}, k_i], so B >= max_k f(k e | y) / k; lattice submodularity
    alone gives f(k e | y') <= f(k e | y) for y' >= y with y'_e = y_e, and
    k_cap only falls, so no candidate clears at y' while
    B < (1 - eps) * threshold.  B only falls as the ray gains probes.
    """
    scan = _level_candidates(ray, k_cap, eps)
    k, gain = next(((k, gain) for k, gain in scan if gain >= (1 - eps) * k * threshold), (0, 0.0))
    if k:
        return k, gain, None
    bound, prev = 0.0, 0
    for k_i in sorted(ray):
        bound = max(bound, ray[k_i] / (prev + 1))
        prev = k_i
    return k, gain, bound / (1.0 - eps)


def _dr_level_rule(ray: Mapping[int, float], k_cap: int, eps: float,
                   threshold: float) -> tuple[int, float, float]:
    """The lattice sweep's rule for DR f: :func:`_level_rule`'s step, found without its scan.

    Under DR, g(k) = f(k e | y) is concave with g(0) = 0, so the k that
    clear (1 - eps) * k * threshold form a prefix [1, K], and the scan's
    candidates k_j = min{k : g(k) >= h_j} fall as its levels h_j fall: its
    step is k_j at the first level h_j <= g(K).  The rule finds K by
    :func:`_max_step_with_gain` at the bar (1 - eps) * threshold (K = 0:
    no step), reads g(k_cap) only then, walks the scan's own levels to that
    h_j, and bisects [1, K] for k_j.  A visit that takes no step probes g(1)
    alone, and one that steps at most
    2 * floor(log2(k_cap)) + ceil(log2(k_cap)) + 2 points.  Where rounding
    breaks DR and k_j fails the scan's own test, the step is k = 1, which
    passes it whenever K >= 1 (at k = 1 the two bars are the same float).

    The bound is :func:`_dr_bound` / (1 - eps), kept across steps: under DR
    every f(k' e | y') / k' with y' >= y is at most f(e | y), and the rule
    steps only where f(k' e | y') / k' >= (1 - eps) * threshold;
    f(e | y + k e) bounds the visits after e's own step.
    """
    k = _max_step_with_gain(ray, k_cap, (1 - eps) * threshold)[0]
    if k:
        top = ray[k]
        levels = threshold_schedule(ray[k_cap], (1 - eps) * ray[1], eps)
        k = _least_reaching(ray, 1, k, next((h for h in levels if h <= top), top))
        if ray[k] < (1 - eps) * k * threshold:
            k = 1
    return k, ray[k] if k else 0.0, _dr_bound(ray, k) / (1.0 - eps)


# a visit is skipped only if its bound is below the threshold by this share
# of max(|f(y)|, threshold), far above float rounding in the gains; the
# margin scales with f, so f scaled by a power of two skips the same visits
SKIP_MARGIN = 1e-9


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
    effective_epsilon(epsilon)  # validates epsilon
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    # g(k e) - 0.0 is g(k e), bit for bit, and g(0) is never read
    along = _Ray(_PointMemo(g)._values, g, unit(g.n, e, 0), [0] * g.n, 0.0, e)
    return _level_rule(along, k_max, epsilon, theta)[0] or None


def _sweep(
    rays_at: Callable[[np.ndarray], Callable[[int], Mapping[int, float]]], y: np.ndarray,
    room: list[int], levels: Iterable[float], rule: _Rule, eps: float, scale: Sequence[float],
    spent: float, limit: float, start: list[Mapping[int, float] | None] | None = None,
) -> tuple[np.ndarray, GreedyTrace]:
    """The threshold sweep of all four solvers; it steps y in place.

    At each level every e with k_cap >= 1 takes the step ``rule(ray, k_cap,
    eps, scale_e * level)`` picks on the ray ``rays_at(y)(e)``.  A step of k
    costs k * scale_e against ``limit``, ``spent`` being the budget used,
    and k_cap = min(room_e, floor((limit - spent) / scale_e)) caps it at the
    budget left, so every step fits and is taken.  k_cap changes only at a
    step, which changes y, so y's factory and a (y, e) pair's ray, each made
    at its first use, serve until the next step.  ``start``, if given, holds
    rays of the start point made by ``rays_at(y)``, e -> ray or None: the
    sweep uses e's ray there until the first step, and makes y's factory
    only for an e whose entry is None.  The sweep ends at the step after
    which no e has k_cap >= 1, drawing no further level.  Under
    :func:`_bisection_rule` a visit that takes no step probes one point,
    g(1), and one that steps at most 2 * floor(log2(k_cap)) + 1; the f(y) a
    greedy's factory reads is the start point's (f(0) costs no call) or one
    a step has probed.

    What a visit costs, calls aside: a skipped one reads e's k_cap, bar and
    bound and adds 1 to a local count, written to ``trace.skipped`` once, on
    return.  One that runs the rule also makes e's ray at its first use,
    one call of y's factory that copies nothing; each probe the ray does
    not hold builds one point (a copy of y) and reads the memo, and a
    repeated probe is a dict hit.  A step reads f(y + k e) back from the
    memo, moves y, logs a :class:`TraceStep` and recomputes every k_cap
    from one read of the budget left.

    Lazy bounds (CELF-style): each visit that runs the rule folds the bound
    the rule returns with its step into e's least bound (None drops it).  A
    visit whose bound is below scale_e * level by the margin
    :data:`SKIP_MARGIN` is skipped: the rule would take no step there, so
    only ``trace.skipped`` changes, and calls only fall.  The margin's
    |f(y)| is read once per step, from the stepped ray's ``value(k)``, a
    value its probe read.  Before the first step it is 0.0: every bound
    compared then was made at the start point, from the very floats the
    rule would read there.
    """
    trace = GreedyTrace()
    n = len(room)
    bounds = [math.inf] * n  # e's least bound; inf for none
    rays, ray_of = start or [None] * n, None  # e -> the ray of (y, e); y's ray factory
    f_abs = 0.0  # |f(y)|, read at each step; max(f_abs, bar) is written out below
    skipped = 0  # written to trace.skipped on return
    margin = SKIP_MARGIN

    def k_caps(left: float) -> list[int]:  # each e's k_cap, which changes only at a step
        return [room_e if room_e < (fit := int(left // s_e)) else fit
                for room_e, s_e in zip(room, scale)]

    caps = k_caps(limit - spent)
    for threshold in levels:
        for e in range(n):
            k_cap = caps[e]
            if k_cap <= 0:
                continue
            bar = scale[e] * threshold
            if bounds[e] < bar - margin * (bar if bar > f_abs else f_abs):
                skipped += 1
                continue
            ray = rays[e]
            if ray is None:
                ray_of = ray_of or rays_at(y)
                ray = rays[e] = ray_of(e)
            k, gain, bound = rule(ray, k_cap, eps, bar)
            bounds[e] = math.inf if bound is None else min(bound, bounds[e])
            if k < 1:
                continue
            f_abs = abs(ray.value(k))  # y + k e was probed by the step, so no call
            y[e] += k
            room[e] -= k
            spent += k * scale[e]
            trace.add(threshold, e, k, gain)
            if max(caps := k_caps(limit - spent)) <= 0:
                trace.skipped = skipped
                return y, trace  # no element can step again
            rays, ray_of = [None] * n, None
    trace.skipped = skipped
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
    (eps / r) * d, and steps are capped at r - y(E).  An e with f(top e) <= 0
    gets no room: while y_e = 0, lattice submodularity keeps f(k e | y) <= 0
    for k up to that top, so e never steps (the DR search needs g(1) > 0).
    Each f(top e) is read by scalar evaluation and written into the start
    point's ray of e as f(top e) - f(0), the float the ray's own probe
    would hold; the sweep then uses these rays (its ``start``), so e's
    first visit finds that probe in its ray: the DR search's g(1), or the
    level scan's anchor.
    """
    cap = constraint.cap
    if len(cap) != f.n:
        raise ValueError("constraint dimension does not match oracle")
    if any(c_e > box_e for c_e, box_e in zip(cap, f.box.tolist())):
        raise ValueError("constraint cap exceeds the oracle box")
    eps = config.effective
    r = constraint.budget
    y = zeros(f.n)
    if r == 0:
        return y, GreedyTrace()
    memo = _PointMemo(f)
    tops = [memo(unit(f.n, e, top(c_e, r))) if c_e >= 1 else 0.0 for e, c_e in enumerate(cap)]
    room = [c_e if t > 0 else 0 for c_e, t in zip(cap, tops)]
    ray_of, start = memo.rays(y), [None] * f.n
    for e, t in enumerate(tops):
        if room[e]:  # an e with no room is never visited
            ray = start[e] = ray_of(e)
            ray[top(cap[e], r)] = t - ray._base
    d = max(tops, default=0.0)
    levels = threshold_schedule(d, (eps / r) * d, eps)
    return _sweep(memo.rays, y, room, levels, rule, eps, [1] * f.n, 0, r, start)


def maximize_dr_cardinality(
    f: ValueOracle, constraint: CardinalityConstraint, config: SolverConfig
) -> tuple[np.ndarray, GreedyTrace]:
    """Decreasing-threshold greedy for monotone DR-submodular f.

    Guarantees f(y) >= (1 - 1/e - eps) * OPT.  The top threshold is
    d = max_e f(e); each step is the largest whose average gain clears the
    threshold.  Each search reads g(1) = f(e | y) first, so a visit that
    takes no step costs at most one call, and one that steps at most
    2 * floor(log2(m)) + 1, m = min(max_e c_e, r).  With
    L <= 1 + ln(r / eps) / eps levels and s <= min(r, L * n) steps taken,
    a solve makes at most n + L * n + 2 * s * floor(log2(m)) oracle calls;
    f(0) costs none.  An element is not visited while f(e | y), read at an
    earlier y, is below the threshold (DR keeps it an upper bound as y
    grows), so the bound holds with room to spare.
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
    (1 - eps) * k * threshold.  A (y, e) pair's scan reads each k from f at
    most once, however often it runs on the pair's ray, so with s <= r
    steps taken and m = min(max_e c_e, r) a solve makes at most
    n + (s + 1) * n * m oracle calls (f(0) costs none).  A pair is not
    visited while the steps its ray probed, at this y or an earlier one
    with the same y_e, bound every f(k e | y) / k below
    (1 - eps) * threshold; that needs only lattice submodularity, and
    calls only fall.

    When ``f.meta["dr_submodular"]`` is true (the built-in families, a
    lattice table that passes its exhaustive DR check, and the harness's
    views of either) the rule is :func:`_dr_level_rule`: it finds the
    scan's step by the exponential search for the largest step that clears
    (1 - eps) * k * threshold, then bisects below it to the scan's level,
    and runs no scan.  A visit then probes g(1) alone when it takes no
    step, and at most min(m, 2 * floor(log2(m)) + ceil(log2(m)) + 2)
    points when it steps, so the bound above still holds, and its lazy
    bound is kept across steps.  The steps, solution and trace are the
    scan's.  ``meta`` is trusted, not checked.
    """
    rule = _dr_level_rule if f.meta.get("dr_submodular") else _level_rule
    return _cardinality_greedy(f, constraint, config, min, rule)
