"""Continuous greedy over an integral polymatroid, plus dependent rounding.

The feasible region is P = {x >= 0 : x(S) <= rho(S) for all S} for a
monotone submodular integer rank function rho with rho(empty) = 0.  The
solver builds a fractional point by 1/eps rounds of a threshold direction
search driven by extension marginals, then rounds it to a lattice point
without loss in expectation.  Each marginal is exact, a sum over the 2^m
corners of the current unit cell (m fractional coordinates), so a probe of
the step search costs 2 * 2^m oracle calls.  The ground set is capped at
``MAX_ENUMERATION_N`` elements.

Rounding works inside the unit cell C(x): the fractional parts of P
intersected with C(x) form a matroid polytope whose rank function is the
translated rank

    rho'(S) = min_{Y subset of S} (rho(Y) - floor(x)(Y) + |S \\ Y|),

and pipage moves inside that polytope preserve the expected extension
value for DR-submodular objectives.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .cardinality import SolverConfig, effective_epsilon, threshold_schedule
from .core import (
    MAX_ENUMERATION_N,
    CallCounter,
    CapacityError,
    ValueOracle,
    as_fractional_point,
    unit,
    zeros,
)
from .extension import SNAP_TOLERANCE, _marginal_estimate, _snap

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


def _ceil_with_tolerance(v: float) -> int:
    r = round(v)
    if abs(v - r) <= 1e-9:
        return int(r)
    return int(math.ceil(v))


def update_budget_fixpoint(n: int, epsilon: float, max_iters: int = 50) -> int:
    """Smallest N = n * ceil(log_{1/(1-eps)}(N / eps)) reached by iteration."""
    eps, _ = effective_epsilon(epsilon)
    decay = -math.log(1.0 - eps)
    N = n
    for _ in range(max_iters):
        nxt = n * _ceil_with_tolerance(math.log(N / eps) / decay)
        if nxt == N:
            return N
        N = nxt
    raise RuntimeError("update-budget iteration did not reach a fixpoint")


def binary_search_polymatroid(f: ValueOracle, x, e: int, theta: float, k_max: int) -> int:
    """Largest step k whose average extension gain clears theta.

    Bisects k in [1, k_max], testing whether F(k e | x) >= k * theta, and
    returns the last accepted position (0 when none).  Each F(k e | x) is
    the exact sum over the 2^m corners of x's unit cell (m fractional
    coordinates in x), so a probe costs 2 * 2^m oracle calls, and there
    are at most ceil(log2(k_max + 1)) probes.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if k_max == 0:
        return 0
    step = unit(f.n, e)
    lo, hi = 1, k_max + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _marginal_estimate(f, mid * step, x) >= mid * theta:
            lo = mid + 1
        else:
            hi = mid
    return lo - 1


def direction_polymatroid(
    f: ValueOracle, x, P: PolymatroidOracle, epsilon: float, num_updates: int
) -> np.ndarray:
    """One threshold sweep producing an integral direction y with x + y in P.

    Thresholds decay by factors of 1 - epsilon from d = max_e f(e) down to
    epsilon * d / num_updates, where num_updates bounds the coordinate
    updates (elements times threshold levels).  For each element the
    largest feasible step is found first (membership binary search,
    clamped to the oracle box), then accepted if the exact extension
    marginal at the current point x + y clears the threshold.  Elements
    with f(e) <= 0 are skipped: for monotone DR-submodular f no step along
    them can clear a positive threshold.
    """
    x = as_fractional_point(x, f.n)
    if P.n != f.n:
        raise ValueError("polymatroid dimension does not match oracle")
    if not P.member(x):
        raise ValueError("x is not in the polymatroid")
    y = zeros(f.n)
    box = f.box
    # f(e), or 0 where the box leaves no room along e
    unit_values = [f.eval(unit(f.n, e)) if box[e] >= 1 else 0.0 for e in range(f.n)]
    d = max(unit_values, default=0.0)
    if d <= 0:
        return y
    for threshold in threshold_schedule(d, epsilon * d / num_updates, epsilon):
        for e in range(f.n):
            if unit_values[e] <= 0:
                continue
            current = x + y
            hard_cap = int(math.floor(box[e] - current[e] + SNAP_TOLERANCE))
            if hard_cap <= 0:
                continue
            k_max = k_max_in_polymatroid(P, current, e, hard_cap)
            if k_max == 0:
                continue
            k = binary_search_polymatroid(f, current, e, threshold, k_max)
            if k >= 1:
                y[e] += k
    return y


def continuous_greedy(
    f: ValueOracle, P: PolymatroidOracle, config: SolverConfig
) -> np.ndarray:
    """Fractional maximization of the extension over P.

    Runs 1/eps direction searches and accumulates x <- x + eps * y; the
    iterate stays in P by convexity since both x and x + y are feasible.
    Returns the final fractional point (round separately).
    """
    eps = config.effective
    num_updates = update_budget_fixpoint(f.n, eps)
    x = np.zeros(f.n, dtype=np.float64)
    for _ in range(config.inv_epsilon):
        y = direction_polymatroid(f, x, P, eps, num_updates)
        x = x + eps * y.astype(np.float64)
        if not P.member(x):
            raise RuntimeError("continuous greedy iterate left the polymatroid")
    return x


def _translated_rank_table(P: PolymatroidOracle, base: np.ndarray) -> dict[int, int]:
    # Two-stage DP.  First the monotone closure of g = rho - base,
    # ghat(Y) = min_{W >= Y} g(W), walking subsets in decreasing size; the
    # closure is what the cube-restricted polytope actually enforces since
    # g itself need not be monotone.  Then the induced matroid rank
    # rho'(S) = min(ghat(S), min_{e in S} rho'(S - e) + 1).
    n = P.n
    full = 1 << n
    ghat = [0] * full
    for mask in range(full - 1, -1, -1):
        elems = [i for i in range(n) if mask >> i & 1]
        best = P.rank(elems) - int(base[elems].sum())
        for i in range(n):
            if not mask >> i & 1:
                cand = ghat[mask | 1 << i]
                if cand < best:
                    best = cand
        ghat[mask] = best
    table: dict[int, int] = {0: 0}
    for mask in range(1, full):
        best = ghat[mask]
        for i in range(n):
            if mask >> i & 1:
                cand = table[mask & ~(1 << i)] + 1
                if cand < best:
                    best = cand
        table[mask] = best
    return table


def rounding_state(x, P: PolymatroidOracle) -> tuple[np.ndarray, np.ndarray, dict]:
    """(base, frac) split of x and the rho' table (by subset bitmask) above base."""
    x = as_fractional_point(x, P.n)
    snapped = _snap(x)
    base = np.floor(snapped).astype(np.int64)
    frac = snapped - base
    return base, frac, _translated_rank_table(P, base)


def _mask_sums(z: np.ndarray) -> np.ndarray:
    n = z.shape[0]
    sums = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + z[low.bit_length() - 1]
    return sums


def _min_slack(
    rho: dict[int, int], sums: np.ndarray, n: int, include: int, exclude: int
) -> float:
    best = math.inf
    for mask in range(1 << n):
        if not mask >> include & 1 or mask >> exclude & 1:
            continue
        slack = rho[mask] - sums[mask]
        if slack < best:
            best = slack
    return best


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

        sums = _mask_sums(z)
        pair = None
        # minimal tight set holding at least two fractional coordinates
        for mask in sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m)):
            if sums[mask] < rho[mask] - MEMBERSHIP_TOL:
                continue
            inside = [i for i in frac_idx if mask >> i & 1]
            if len(inside) >= 2:
                pair = (inside[0], inside[1])
                break
        if pair is None:
            pair = (frac_idx[0], frac_idx[1])
        i, j = pair

        d_plus = min(1.0 - z[i], z[j], _min_slack(rho, sums, n, i, j))
        d_minus = min(1.0 - z[j], z[i], _min_slack(rho, sums, n, j, i))
        d_plus, d_minus = max(d_plus, 0.0), max(d_minus, 0.0)
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
