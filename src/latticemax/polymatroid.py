"""Continuous greedy over an integral polymatroid, plus dependent rounding.

The feasible region is P = {x >= 0 : x(S) <= rho(S) for all S} for a
monotone submodular integer rank function rho with rho(empty) = 0.  The
solver builds a fractional point by 1/eps rounds of a threshold direction
search driven by extension marginals, then rounds it to a lattice point
without loss in expectation.  The direction search is the greedies'
sweep (:func:`cardinality._sweep`) on rays k -> F(k e | x + y) that read
-inf where x + y + k e leaves P.  Each marginal is exact: F(b + k e) is
the D(b)-weighted sum of f(z + k e) over the 2^m corners z of b's unit
cell (m fractional coordinates), so a ray of b mixes the greedies' rays
k -> f(z + k e) - f(z) at those corners.  Each search of the sweep reads
k = 1 first, so a visit that takes no step makes one probe, and one that
steps at most 2 * floor(log2(k_max)) + 1.  A solve reads f through one
point memo, so a probe costs at most 2 * 2^m new oracle calls and a
repeat costs none.  The ground set is capped at ``MAX_ENUMERATION_N``
elements.

Rounding works inside the unit cell C(x): the fractional parts of P
intersected with C(x) form a matroid polytope whose rank function is the
translated rank

    rho'(S) = min_{Y subset of S} (rho(Y) - floor(x)(Y) + |S \\ Y|),

and pipage moves inside that polytope preserve the expected extension
value for DR-submodular objectives.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable

import numpy as np

from .cardinality import (
    SolverConfig,
    _bisection_rule,
    _ceil_with_tolerance,
    _max_step_with_gain,
    _memo_of,
    _PointMemo,
    _Ray,
    _sweep,
    effective_epsilon,
    threshold_schedule,
)
from .core import (
    MAX_ENUMERATION_N,
    CallCounter,
    CapacityError,
    ValueOracle,
    as_fractional_point,
    unit,
    zeros,
)
from .extension import SNAP_TOLERANCE, _cell_corners, _fractional_coords, _snap, split_point

MEMBERSHIP_TOL = 1e-9


class PolymatroidOracle:
    """Membership (and optionally rank) access to an integral polymatroid.

    Args:
        n: ground-set size.
        member_fn: accepts a non-negative float vector, returns membership.
            Implementations should allow ~1e-9 slack for float drift.
        rank_fn: optional rho on subsets (iterables of element indices).
        rank_total: rho(E); derived from rank_fn when absent.
    """

    def __init__(
        self,
        n: int,
        member_fn: Callable[[np.ndarray], bool],
        rank_fn: Callable[[frozenset[int]], int] | None = None,
        rank_total: int | None = None,
        name: str = "polymatroid",
    ):
        if n < 1:
            raise ValueError("ground set must contain at least one element")
        self.n = n
        self._member_fn = member_fn
        self._rank_fn = rank_fn
        self.name = name
        self._member_counter = CallCounter()
        if rank_total is None:
            if rank_fn is None:
                raise ValueError("rank_total is required when no rank oracle is given")
            rank_total = int(rank_fn(frozenset(range(n))))
        if rank_total < 0:
            raise ValueError("rank_total must be non-negative")
        self.rank_total = rank_total

    @property
    def member_calls(self) -> int:
        return self._member_counter.count

    def member(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {x.shape}")
        self._member_counter.add(1)
        if np.any(x < -MEMBERSHIP_TOL):
            return False
        return bool(self._member_fn(np.maximum(x, 0.0)))

    def rank(self, subset: Iterable[int]) -> int:
        subset = frozenset(int(e) for e in subset)
        if any(e < 0 or e >= self.n for e in subset):
            raise ValueError("subset contains out-of-range elements")
        if self._rank_fn is not None:
            return int(self._rank_fn(subset))
        return self._rank_from_membership(subset)

    def _rank_from_membership(self, subset: frozenset[int]) -> int:
        # polymatroid greedy: saturating coordinates of the subset one after
        # another reaches a maximal point of total rho(subset)
        x = zeros(self.n)
        for e in sorted(subset):
            room = self.rank_total - int(x.sum())
            if room <= 0:
                break
            x[e] += k_max_in_polymatroid(self, x, e, room)
        return int(x.sum())


def k_max_in_polymatroid(P: PolymatroidOracle, anchor, e: int, hard_cap: int) -> int:
    """Largest k <= hard_cap with anchor + k e in P, by binary search.

    Valid because membership along a single ray is prefix-closed (P is
    downward closed).  The anchor itself must be feasible.  Costs at most
    ceil(log2(hard_cap + 1)) + 1 membership calls.
    """
    if hard_cap < 0:
        raise ValueError("hard_cap must be non-negative")
    anchor = np.asarray(anchor, dtype=np.float64)
    if not P.member(anchor):
        raise ValueError("anchor is not in the polymatroid")
    if hard_cap == 0:
        return 0
    step = np.zeros(P.n)
    step[e] = 1.0
    lo, hi = 0, hard_cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if P.member(anchor + mid * step):
            lo = mid
        else:
            hi = mid - 1
    return lo


def update_budget_fixpoint(n: int, epsilon: float) -> int:
    """Smallest N = n * ceil(log_{1/(1-eps)}(N / eps)), reached within 50 iterations."""
    eps, _ = effective_epsilon(epsilon)
    decay = -math.log(1.0 - eps)
    N = n
    for _ in range(50):
        nxt = n * _ceil_with_tolerance(math.log(N / eps) / decay)
        if nxt == N:
            return N
        N = nxt
    raise RuntimeError("update-budget iteration did not reach a fixpoint")


class _ExtensionRay(dict):
    """k -> F(k e | b), or -inf where b + k e leaves P (``P`` None: never).

    Under D(b), F(b + k e) = sum_S w_S * f(z_S + k e) over the corners z_S
    of b's unit cell, so the ray is the D(b)-weighted mix of the greedies'
    rays ``memo.rays(z_S)(e)``.  The rays of b share ``cell``, filled with
    the corners' factories and weights on the first probe that fits P.  A
    first lookup of k costs one membership call and, for a member, at most
    2^m new oracle calls (2 * 2^m when it fills the cell, reading f(z_S));
    an out-of-box probe raises ``eval``'s ValueError at no cost.  As P is
    downward closed and clearing is a prefix in k for DR f, "fits and
    clears" is a prefix too.
    """

    __slots__ = ("_memo", "_P", "_b", "_cell", "_e", "_rays")

    def __init__(self, memo: _PointMemo, P: PolymatroidOracle | None, b, cell: list, e: int):
        super().__init__()
        self._memo, self._P, self._b, self._cell, self._e = memo, P, b, cell, e
        self._rays: list[_Ray] = []

    def __missing__(self, k: int) -> float:
        point = self._b.copy()
        point[self._e] += k
        if self._P is not None and not self._P.member(point):
            value = self[k] = -math.inf
            return value
        if not self._rays:
            if not self._cell:
                base, frac = split_point(self._memo, self._b)
                corners, weights = _cell_corners(base, frac, _fractional_coords(frac))
                self._cell[:] = [self._memo.rays(z) for z in corners], weights
            self._rays = [rays(self._e) for rays in self._cell[0]]
        self._rays[-1][k]  # the top corner first: an out-of-box k raises before any call
        value = self[k] = self._mix([ray[k] for ray in self._rays])
        return value

    def value(self, k: int) -> float:
        """F(b + k e) for a k whose gain this ray has read: no call."""
        return self._mix([ray.value(k) for ray in self._rays])

    def _mix(self, values: list[float]) -> float:
        return float(np.dot(np.array(values), self._cell[1]))


def binary_search_polymatroid(f: ValueOracle, x, e: int, theta: float, k_max: int) -> int:
    """Largest k in [1, k_max] with F(k e | x) >= k * theta, or 0; exact for DR f.

    The direction search's step search (``_max_step_with_gain``) on a
    fresh ray of x that asks no polytope, through a fresh memo unless ``f``
    is one: it probes k = 1 first, so a search that returns 0 makes one
    probe and none makes more than 2 * floor(log2(k_max)) + 1, each costing
    at most 2 * 2^m new oracle calls (m fractional coordinates in x; f at a
    corner or shifted corner is read once, and f(0) costs none).  It stays
    as the tracer's span.
    """
    x = as_fractional_point(x, f.n)
    if not 0 <= e < f.n:
        raise ValueError(f"element {e} out of range for ground set of size {f.n}")
    return _max_step_with_gain(_ExtensionRay(_memo_of(f), None, x, [], e), k_max, theta)[0]


def direction_polymatroid(
    f: ValueOracle | _PointMemo, x, P: PolymatroidOracle, epsilon: float, num_updates: int
) -> np.ndarray:
    """One threshold sweep producing an integral direction y with x + y in P.

    :func:`cardinality._sweep` with the DR step rule and a limit that never
    binds (the total room), from d = max_e f(e) down to
    epsilon * d / num_updates (num_updates bounds the coordinate updates):
    at each level e takes the largest k within its box room with
    x + y + k e in P and F(k e | x + y) >= k * threshold, on a ray that
    reads -inf off P; f(e) <= 0 leaves e no room (DR f cannot clear along
    it).  Each ray mixes the greedies' rays at the corners of x + y
    (:class:`_ExtensionRay`); y's ray factory forms x + y once, and its rays
    share one cell, split once.  All read through one memo (``f`` if it is a
    solve's memo, else a fresh one), so f at each point is read once and
    each corner is copied and checked once.  P is asked about each
    (x + y, e, k) once, and a probe costs at most 2 * 2^m new oracle calls
    (m fractional coordinates in x).  The lazy skip holds, as y is integral
    and D(x + y) = D(x) + y: for DR f, F(e | x + y') <= F(e | x + y) for
    y' >= y.
    """
    effective_epsilon(epsilon)  # validates epsilon
    memo = _memo_of(f)
    x = as_fractional_point(x, f.n)
    if P.n != f.n:
        raise ValueError("polymatroid dimension does not match oracle")
    if not P.member(x):
        raise ValueError("x is not in the polymatroid")
    # f(e), or 0 where the box leaves no room along e
    unit_values = [memo.eval(unit(f.n, e)) if f.box[e] >= 1 else 0.0 for e in range(f.n)]
    room = [int(math.floor(f.box[e] - x[e] + SNAP_TOLERANCE)) if unit_values[e] > 0 else 0
            for e in range(f.n)]
    d = max(unit_values, default=0.0)
    levels = threshold_schedule(d, epsilon * d / num_updates, epsilon)
    return _sweep(lambda y: functools.partial(_ExtensionRay, memo, P, x + y, []), zeros(f.n),
                  room, levels, _bisection_rule, epsilon, [1] * f.n, 0, sum(room))[0]


def continuous_greedy(
    f: ValueOracle, P: PolymatroidOracle, config: SolverConfig
) -> np.ndarray:
    """Fractional maximization of the extension over P.

    Runs 1/eps direction searches and accumulates x <- x + eps * y; the
    iterate stays in P by convexity since both x and x + y are feasible.
    Every direction reads f through one :class:`_PointMemo` per solve,
    scalar reads and the corner rays alike, so ``f.calls`` grows by the
    number of distinct points probed: at most 2 * 2^m new calls per probe,
    a repeat costing none.  Returns the final fractional point (round
    separately).
    """
    eps = config.effective
    num_updates = update_budget_fixpoint(f.n, eps)
    memo = _PointMemo(f)
    x = np.zeros(f.n, dtype=np.float64)
    for _ in range(config.inv_epsilon):
        y = direction_polymatroid(memo, x, P, eps, num_updates)
        x = x + eps * y.astype(np.float64)
        if not P.member(x):
            raise RuntimeError("continuous greedy iterate left the polymatroid")
    return x


def _translated_rank_table(P: PolymatroidOracle, base: np.ndarray) -> list[int]:
    # rho'(S) = min_{Y subset of S} (ghat(Y) + |S \ Y|), where ghat is the
    # monotone closure of g = rho - base, ghat(Y) = min_{W superset of Y}
    # g(W); the closure is what the cube-restricted polytope actually
    # enforces since g itself need not be monotone.  Each minimization is
    # one sweep per element over the table, exact as every value is an int.
    n, base = P.n, base.tolist()
    subsets = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
    table = [P.rank(S) - sum(base[i] for i in S) for S in subsets]
    bits = [1 << i for i in range(n)]
    for bit in bits:
        for mask in range(1 << n):
            if not mask & bit:
                table[mask] = min(table[mask], table[mask | bit])
    for bit in bits:
        for mask in range(1 << n):
            if mask & bit:
                table[mask] = min(table[mask], table[mask ^ bit] + 1)
    return table


def rounding_state(x, P: PolymatroidOracle) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(base, frac) split of x in P, and rho' above base as a list indexed by subset bitmask."""
    x = as_fractional_point(x, P.n)
    snapped = _snap(x)
    base = np.floor(snapped).astype(np.int64)
    frac = snapped - base
    return base, frac, _translated_rank_table(P, base)


def round_polymatroid(x, P: PolymatroidOracle, seed: int) -> np.ndarray:
    """Round a fractional feasible point to an integral one in P.

    Pipage rounding in the translated matroid of fractional parts: pairs of
    fractional coordinates inside a minimal tight set are moved along
    e_i - e_j with martingale step probabilities until integral, a lone
    fractional coordinate is rounded by an (always feasible) Bernoulli
    draw.  For monotone DR-submodular f this preserves the extension value
    in expectation and every outcome stays feasible.  Per-coordinate
    marginals of the source distribution are preserved whenever single
    coordinates round independently.

    Enumerates subsets of the ground set, so n is capped at
    MAX_ENUMERATION_N.
    """
    if P.n > MAX_ENUMERATION_N:
        raise CapacityError("pipage rounding enumerates subsets; ground set too large")
    x = as_fractional_point(x, P.n)
    if not P.member(x):
        raise ValueError("x is not in the polymatroid")
    base, z, rho = rounding_state(x, P)
    n = P.n
    rng = np.random.default_rng(seed)
    # nonempty subsets by size, ties by mask (the sort is stable): each
    # subset comes after its subsets, and tight sets are met smallest first
    by_size = sorted(range(1, 1 << n), key=int.bit_count)
    sums = [0.0] * (1 << n)

    for _ in range(16 * n * n + 64):
        z = _snap(z)
        np.clip(z, 0.0, 1.0, out=z)
        frac_idx = [i for i in range(n) if 0.0 < z[i] < 1.0]
        if not frac_idx:
            return base + np.round(z).astype(np.int64)
        if len(frac_idx) == 1:
            i = frac_idx[0]
            z[i] = 1.0 if rng.random() < z[i] else 0.0
            continue

        # z(S), adding S's lowest element last
        zs = z.tolist()
        for mask in by_size:
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + zs[low.bit_length() - 1]
        # minimal tight set holding at least two fractional coordinates
        inside = frac_idx
        for mask in by_size:
            if not sums[mask] < rho[mask] - MEMBERSHIP_TOL:
                tight = [i for i in frac_idx if mask >> i & 1]
                if len(tight) >= 2:
                    inside = tight
                    break
        i, j = inside[:2]
        # least slack rho'(S) - z(S) over the S holding i but not j, then j but not i
        slack = [min(rho[m] - sums[m] for m in by_size if m >> a & 1 and not m >> b & 1)
                 for a, b in ((i, j), (j, i))]
        d_plus = max(min(1.0 - z[i], z[j], slack[0]), 0.0)
        d_minus = max(min(1.0 - z[j], z[i], slack[1]), 0.0)
        if d_plus + d_minus <= 1e-12:
            raise RuntimeError("pipage step stalled; inconsistent rank table")
        if rng.random() < d_minus / (d_plus + d_minus):
            z[i] += d_plus
            z[j] -= d_plus
        else:
            z[i] -= d_minus
            z[j] += d_minus
    raise RuntimeError("pipage rounding did not terminate")


def maximize_polymatroid(
    f: ValueOracle, P: PolymatroidOracle, config: SolverConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Continuous greedy followed by rounding; returns (integral, fractional).

    Raises CapacityError, before any oracle or membership call, when the
    ground set exceeds ``MAX_ENUMERATION_N`` elements.
    """
    if P.n > MAX_ENUMERATION_N:
        raise CapacityError(
            f"ground set of {P.n} elements exceeds the polymatroid cap ({MAX_ENUMERATION_N})"
        )
    x = continuous_greedy(f, P, config)
    round_seed = int(np.random.default_rng([config.seed, 1]).integers(0, 2**63))
    return round_polymatroid(x, P, round_seed), x
