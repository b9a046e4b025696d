import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest

from latticemax import cardinality, polymatroid
from latticemax.bruteforce import brute_force_opt
from latticemax.cardinality import SolverConfig, threshold_schedule
from latticemax.core import CapacityError, ValueOracle, unit, zeros
from latticemax.extension import SNAP_TOLERANCE, _marginal_estimate, extension_exact
from latticemax.instances import (
    InstanceSpec,
    make_budget_allocation,
    make_polymatroid,
    make_separable_concave,
    partition_polymatroid,
    table_polymatroid,
    uniform_polymatroid,
)
from latticemax.polymatroid import (
    PolymatroidOracle,
    binary_search_polymatroid,
    continuous_greedy,
    direction_polymatroid,
    k_max_in_polymatroid,
    maximize_polymatroid,
    round_polymatroid,
    rounding_state,
    update_budget_fixpoint,
)
from test_extension import _old_cell_corners, _old_snap, _old_split_point


def test_k_max_in_polymatroid_examples():
    P = uniform_polymatroid(3, 2, 5)
    zero = np.zeros(3)
    assert k_max_in_polymatroid(P, zero, 0, 10) == 2
    # anchor already tight along e
    anchor = np.array([2.0, 0.0, 0.0])
    assert k_max_in_polymatroid(P, anchor, 0, 10) == 0
    # partition: part cap 3 containing e, anchor = chi_e
    Q = partition_polymatroid([[0, 1], [2]], [3, 1])
    assert k_max_in_polymatroid(Q, np.array([1.0, 0.0, 0.0]), 0, 10) == 2
    with pytest.raises(ValueError):
        k_max_in_polymatroid(P, np.array([9.0, 0.0, 0.0]), 0, 10)


def test_k_max_respects_hard_cap():
    P = uniform_polymatroid(2, 5, 10)
    assert k_max_in_polymatroid(P, np.zeros(2), 0, 3) == 3


def test_update_budget_fixpoint():
    # hand iteration for n=3, eps=1/4: 3 -> 27 -> 51 -> 57 -> 57
    assert update_budget_fixpoint(3, 0.25) == 57
    n = update_budget_fixpoint(2, 0.5)
    assert n >= 2


def modular_oracle(weights, box):
    w = np.asarray(weights, dtype=np.float64)
    return ValueOracle(lambda x: float(np.dot(w, x)), np.asarray(box, dtype=np.int64))


def test_binary_search_polymatroid_modular_returns_k_max():
    # unit-weight modular f: the marginal of m units is exactly m, so
    # theta = 0.9 keeps the predicate true at every m and k_max must come back
    f = modular_oracle([1.0, 2.0], [8, 8])
    k = binary_search_polymatroid(f, np.zeros(2), 0, 0.9, 6)
    assert k == 6
    assert binary_search_polymatroid(f, np.zeros(2), 0, 0.9, 0) == 0


def test_binary_search_polymatroid_high_threshold_returns_zero():
    f = modular_oracle([1.0, 2.0], [8, 8])
    assert binary_search_polymatroid(f, np.zeros(2), 0, 1.5, 6) == 0


def test_binary_search_polymatroid_concave_prefix_noise_free():
    # integral anchor: each marginal is one corner difference
    f = ValueOracle(lambda x: math.sqrt(x[0]), np.array([12]))
    for theta in (0.34, 0.5, 0.75, 0.2):
        want = 0
        for m in range(1, 10):
            if math.sqrt(m) >= m * theta - 1e-12:
                want = m
            else:
                break
        got = binary_search_polymatroid(f, np.zeros(1), 0, theta, 9)
        assert got == want, theta


def test_binary_search_polymatroid_zero_ceiling_short_circuit():
    f = ValueOracle(lambda x: 0.0, np.array([5]))
    calls_before = f.calls
    assert binary_search_polymatroid(f, np.zeros(1), 0, 0.5, 5) == 0
    # x is integral: each of the ceil(log2(6)) = 3 probes is one exact
    # corner marginal, two calls
    assert f.calls - calls_before <= 3 * 2


def test_binary_search_polymatroid_accuracy_predicates():
    # the marginals are exact, so the search meets both predicates with no
    # slack: (1) F(k chi_e | x) >= k theta and (2) F((k+1) chi_e | x) < (k+1) theta
    make = lambda: make_separable_concave([1.0, 0.8], [0.5, 1.0], [6, 6])
    F = lambda z: extension_exact(make(), z)
    x = np.array([0.5, 1.25])
    found = set()
    for theta in (0.35, 0.45, 0.5, 0.6, 0.8):
        k = binary_search_polymatroid(make(), x, 0, theta, 4)
        found.add(k)
        if k >= 1:
            assert F(x + k * np.eye(2)[0]) - F(x) >= k * theta - 1e-9
        if k < 4:
            assert F(x + (k + 1) * np.eye(2)[0]) - F(x) < (k + 1) * theta + 1e-9
    assert found == {0, 1, 2, 3, 4}


def test_binary_search_polymatroid_costs_at_most_the_cell_per_probe():
    # x fractional in 2 of 3 coordinates: 4 cell corners, so each probe
    # costs 2 * 4 calls
    P = uniform_polymatroid(3, 4, 7)
    x = np.array([0.25, 1.5, 2.0])
    m = 2
    for e in range(3):
        f = make_separable_concave([1.0, 0.8, 1.2], [0.5, 0.7, 1.0], [6, 6, 6])
        k_max = k_max_in_polymatroid(P, x, e, int(f.box[e] - np.ceil(x[e])))
        assert k_max >= 1
        probes = math.ceil(math.log2(k_max + 1))
        for theta in (0.05, 0.4, 2.0):
            before = f.calls
            binary_search_polymatroid(f, x, e, theta, k_max)
            assert f.calls - before <= probes * 2 * 2**m


def _cell_sum(f, b, e, k):
    # (F(k e | b), F(b + k e)) as one cell sum, a batch read per matrix of
    # corners and one np.dot each: the reference for the ray's bits
    base, frac = _old_split_point(f, b)
    corners, weights = _old_cell_corners(base, frac, np.flatnonzero(frac > 0))
    shifted = corners.copy()
    shifted[:, e] += k
    moved = f.eval_batch(shifted)
    return (float(np.dot(moved - f.eval_batch(corners), weights)),
            float(np.dot(moved, weights)))


def test_extension_ray_matches_the_cell_sum_bit_for_bit():
    rng = np.random.default_rng(31)
    n, checked = 6, 0
    for m in range(n + 1):
        for _ in range(3):
            cap = rng.integers(1, 4, size=n)
            if rng.random() < 0.5:
                args = (rng.uniform(0.5, 2.0, size=n).tolist(),
                        rng.choice([0.3, 0.5, 0.7, 1.0], size=n).tolist(), cap)
                make = make_separable_concave
            else:
                args = ([(s, int(rng.integers(0, 4)), float(rng.uniform(0.1, 0.6)))
                         for s in range(n) for _ in range(2)], cap)
                make = make_budget_allocation
            f, ref = make(*args), make(*args)
            b = np.floor(rng.uniform(0, cap + 1)).clip(0, cap).astype(np.float64)
            idx = rng.choice(n, size=m, replace=False)
            b[idx] = rng.integers(0, cap[idx]) + rng.uniform(0.05, 0.95, size=m)
            memo, cell = cardinality._PointMemo(f), []  # one cell for all the rays of b
            for e in range(n):
                ray = polymatroid._ExtensionRay(memo, None, b, cell, e)
                for k in range(1, int(cap[e] - np.ceil(b[e])) + 1):
                    gain, value = _cell_sum(ref, b, e, k)
                    assert ray[k].hex() == gain.hex()
                    assert ray.value(k).hex() == value.hex()
                    step = b + k * unit(n, e)
                    exact = extension_exact(ref, step) - extension_exact(ref, b)
                    assert abs(ray[k] - exact) <= 1e-12 * max(1.0, extension_exact(ref, step))
                    checked += 1
    assert checked > 50


def test_extension_ray_rejects_an_out_of_box_probe_at_no_cost():
    # at k = 2 the lower corners' shifted points are in the box and unread,
    # the upper corners' are outside it; the probe raises before reading any
    f = make_separable_concave([1.0, 1.0], [0.5, 0.5], [2, 1])
    ray = polymatroid._ExtensionRay(cardinality._PointMemo(f), None, np.array([0.5, 0.5]), [], 0)
    with pytest.raises(ValueError, match="outside box"):
        ray[2]
    # the four corners, read when the ray first probes, but for 0, whose
    # value the memo starts out holding
    assert f.calls == 3
    assert ray[1] > 0 and f.calls == 5


def test_direction_polymatroid_zero_polytope():
    f = make_separable_concave([1.0, 1.0], [0.5, 0.5], [3, 3])
    P = uniform_polymatroid(2, 1, 0)
    y = direction_polymatroid(f, np.zeros(2), P, 0.25, update_budget_fixpoint(2, 0.25))
    assert list(y) == [0, 0]


def test_direction_polymatroid_feasibility_and_precondition():
    f = make_separable_concave([1.0, 1.5, 0.7], [0.5, 1.0, 0.5], [3, 3, 3])
    P = partition_polymatroid([[0, 1], [2]], [2, 1])
    N = update_budget_fixpoint(3, 0.25)
    x = np.array([0.5, 0.25, 0.25])
    assert P.member(x)
    y = direction_polymatroid(f, x, P, 0.25, N)
    assert np.all(y >= 0)
    assert P.member(x + y)
    with pytest.raises(ValueError):
        direction_polymatroid(f, np.array([5.0, 0.0, 0.0]), P, 0.25, N)


def test_continuous_greedy_zero_oracle():
    f = ValueOracle(lambda x: 0.0, np.array([2, 2]))
    P = uniform_polymatroid(2, 2, 3)
    x = continuous_greedy(f, P, SolverConfig(0.25, 0))
    assert np.allclose(x, 0.0)


def test_continuous_greedy_feasible_and_useful():
    f = make_separable_concave([1.0, 1.5, 0.8], [0.5, 0.5, 1.0], [3, 3, 3])
    P = uniform_polymatroid(3, 2, 4)
    x = continuous_greedy(f, P, SolverConfig(0.25, 0))
    assert P.member(x)
    assert extension_exact(make_separable_concave([1.0, 1.5, 0.8], [0.5, 0.5, 1.0], [3, 3, 3]), x) > 0


def test_direction_polymatroid_skips_an_element_with_zero_value():
    # element 1 adds nothing: f(e_1) = 0, so no step along it can clear a
    # threshold, and the membership search must not look along it
    f = make_separable_concave([1.0, 0.0, 1.2], [0.5, 1.0, 0.7], [3, 3, 3])
    base = uniform_polymatroid(3, 2, 4)
    queried = []

    def member(x):
        queried.append(x.copy())
        return base.member(x)

    P = type(base)(3, member, None, rank_total=4, name="logged")
    x = np.array([0.5, 0.0, 0.25])
    y = direction_polymatroid(f, x, P, 0.25, update_budget_fixpoint(3, 0.25))
    assert y[1] == 0 and y.sum() > 0
    assert queried and all(q[1] == 0.0 for q in queried)


# rho'(X) as the library once computed it: the minimization over all 2^n
# subsets, kept as the reference for the table that rounding reads
def _old_translated_rank(P, base, X):
    base = np.asarray(base, dtype=np.int64)
    elems = set(int(e) for e in X)
    n = P.n
    best = len(elems)  # Y = empty set
    for mask in range(1, 1 << n):
        sub = [i for i in range(n) if mask >> i & 1]
        outside = sum(1 for e in elems if not mask >> e & 1)
        value = P.rank(sub) - int(base[sub].sum()) + outside
        if value < best:
            best = value
    return best


def _random_polymatroids(rng):
    for n in range(1, 5):
        yield uniform_polymatroid(n, int(rng.integers(1, 3)), int(rng.integers(1, 2 * n + 1)))
        k = int(rng.integers(1, n + 1))
        labels = rng.integers(0, k, size=n)
        parts = [np.flatnonzero(labels == j).tolist() for j in range(k)]
        parts = [p for p in parts if p]
        yield partition_polymatroid(parts, rng.integers(1, 3, size=len(parts)), n)
        # truncated weighted coverage: a monotone submodular integer rank
        covers = rng.random((n, 4)) < 0.5
        weights = rng.integers(1, 3, size=4)
        top = int(rng.integers(1, 2 * n + 1))
        table = [
            min(top, int(weights[covers[[e for e in range(n) if m >> e & 1]].any(axis=0)].sum()))
            for m in range(1 << n)
        ]
        yield table_polymatroid(n, table)


def test_translated_rank_matches_the_old_minimization():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(2):
        for P in _random_polymatroids(rng):
            n = P.n
            singles = [P.rank([e]) for e in range(n)]
            for b in itertools.product(*(range(c + 1) for c in singles)):
                base = np.array(b, dtype=np.int64)
                if not P.member(base):
                    continue
                rho = rounding_state(base, P)[2]
                for mask in range(1 << n):
                    X = [e for e in range(n) if mask >> e & 1]
                    assert rho[mask] == _old_translated_rank(P, base, X)
                    checked += 1
    assert checked > 5000


def test_translated_rank_examples():
    P = uniform_polymatroid(3, 1, 3)  # rho(X) = min(|X|, 3)
    assert rounding_state(np.zeros(3), P)[2][0] == 0
    # closed form at base (1,1,0), X = all: min over Y of rho(Y)-base(Y)+|X\Y|
    assert rounding_state(np.array([1.0, 1.0, 0.0]), P)[2][0b111] == 1
    # base 0: plain truncation min(rho(X), |X|)
    Q = uniform_polymatroid(3, 2, 3)
    rho = rounding_state(np.zeros(3), Q)[2]
    for size in range(4):
        want = min(Q.rank(range(size)), size)
        assert rho[(1 << size) - 1] == want


def test_translated_rank_is_matroid_rank():
    # unit increments, monotonicity, submodularity on every subset
    P = uniform_polymatroid(4, 2, 5)
    base = np.array([1, 0, 2, 0], dtype=np.int64)
    n = 4
    rho = rounding_state(base, P)[2]
    assert rho[0] == 0
    for mask in range(1 << n):
        for e in range(n):
            if mask >> e & 1:
                continue
            up = mask | 1 << e
            assert rho[mask] <= rho[up] <= rho[mask] + 1
            for g in range(n):
                if g == e or mask >> g & 1:
                    continue
                withg = mask | 1 << g
                assert rho[withg | 1 << e] - rho[withg] <= rho[up] - rho[mask]


# pipage rounding as the library once ran it: a dict rank table from a
# superset scan and a subset scan, mask sums and minimum slacks from their
# own helpers, and the subsets sorted afresh at every step; the reference
# for the bits of the rounded point and the table
def _old_translated_rank_table(P, base):
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
    table = {0: 0}
    for mask in range(1, full):
        best = ghat[mask]
        for i in range(n):
            if mask >> i & 1:
                cand = table[mask & ~(1 << i)] + 1
                if cand < best:
                    best = cand
        table[mask] = best
    return table


def _mask_sums(z):
    n = z.shape[0]
    sums = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + z[low.bit_length() - 1]
    return sums


def _min_slack(rho, sums, n, include, exclude):
    best = math.inf
    for mask in range(1 << n):
        if not mask >> include & 1 or mask >> exclude & 1:
            continue
        slack = rho[mask] - sums[mask]
        if slack < best:
            best = slack
    return best


def _old_round_polymatroid(x, P, seed):
    snapped = _old_snap(np.asarray(x, dtype=np.float64))
    base = np.floor(snapped).astype(np.int64)
    z = snapped - base
    rho = _old_translated_rank_table(P, base)
    n = P.n
    rng = np.random.default_rng(seed)
    for _ in range(16 * n * n + 64):
        z = _old_snap(z)
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
        for mask in sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m)):
            if sums[mask] < rho[mask] - polymatroid.MEMBERSHIP_TOL:
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


def _fractional_points(rng, P, count):
    """Means of 2 to 10 integral points of P, drawn from all of them or from its maximal ones."""
    n = P.n
    singles = [P.rank([e]) for e in range(n)]
    points = [np.array(b, dtype=np.float64)
              for b in itertools.product(*(range(c + 1) for c in singles))]
    points = [y for y in points if P.member(y)]
    tops = [y for y in points if not any(P.member(y + unit(n, e)) for e in range(n))]
    for _ in range(count):
        pool = tops if rng.random() < 0.5 else points
        m = int(rng.choice([2, 3, 4, 7, 10]))
        yield sum(pool[k] for k in rng.integers(0, len(pool), size=m)) / m


def _two_part_polymatroid(rng, n):
    # rho(S) = sum over the parts p of min(a |S & p|, a |p| - 1): a part binds
    # only when nearly full, so each part is often a minimal tight set.  The
    # small part holds element n - 1, so it comes before the large part by
    # size and after it by mask
    small = {int(rng.integers(0, n - 1)), n - 1}
    parts = [small, set(range(n)) - small]
    a = int(rng.integers(1, 3))
    subsets = [{e for e in range(n) if m >> e & 1} for m in range(1 << n)]
    return table_polymatroid(n, [sum(min(a * len(p & S), a * len(p) - 1) for p in parts)
                                 for S in subsets])


def test_round_polymatroid_matches_the_old_pipage_loop():
    rng = np.random.default_rng(33)
    polytopes = [P for _ in range(3) for P in _random_polymatroids(rng)]
    polytopes += [uniform_polymatroid(n, a, t) for n in (5, 6) for a, t in ((1, 3), (2, n))]
    polytopes += [_two_part_polymatroid(rng, n) for n in (4, 5, 6) for _ in range(4)]
    rounded = paired = 0
    for P in polytopes:
        for x in _fractional_points(rng, P, 12):
            assert P.member(x)
            paired += int(np.count_nonzero(_old_snap(x) % 1) >= 2)  # pipage moves a pair
            base = np.floor(_old_snap(x)).astype(np.int64)
            table = _old_translated_rank_table(P, base)
            assert rounding_state(x, P)[2] == [table[m] for m in range(1 << P.n)]
            for seed in range(4):
                got = round_polymatroid(x, P, seed)
                assert got.tolist() == _old_round_polymatroid(x, P, seed).tolist()
                rounded += 1
    assert rounded > 2000 and paired > 300


def test_round_polymatroid_integral_identity():
    P = uniform_polymatroid(2, 2, 3)
    x = np.array([1.0, 2.0])
    out = round_polymatroid(x, P, seed=0)
    assert list(out) == [1, 2]


def test_round_polymatroid_reads_no_rank_for_an_integral_point():
    # an integral point (within the snap tolerance) is returned after the
    # membership check, with no rank call and no draw; a fractional one
    # still builds the table, and both round as the old pipage loop does
    class CountingRank(PolymatroidOracle):
        rank_calls = 0

        def rank(self, subset):
            CountingRank.rank_calls += 1
            return super().rank(subset)

    P = CountingRank(3, lambda x: x.sum() <= 4 + 1e-9 and (x <= 2 + 1e-9).all(),
                     lambda S: min(4, 2 * len(S)))
    for x, table_calls in (([0.0, 0.0, 0.0], 0), ([2.0, 1.0, 1.0], 0),
                           ([1.0 + 1e-12, 2.0 - 1e-12, 0.0], 0), ([1.5, 0.5, 1.0], 1 << 3)):
        x = np.array(x)
        want = _old_round_polymatroid(x, P, 5).tolist()
        CountingRank.rank_calls = 0
        assert round_polymatroid(x, P, 5).tolist() == want
        assert CountingRank.rank_calls == table_calls
    # the 17-element table would take a second; an integral point needs none
    P = uniform_polymatroid(17, 10**18, 10**18)
    start = time.perf_counter()
    assert round_polymatroid(np.zeros(17), P, 0).tolist() == [0] * 17
    assert time.perf_counter() - start < 0.1


def test_round_polymatroid_single_fractional_marginals():
    P = uniform_polymatroid(1, 3, 3)
    hits = 0
    for seed in range(10_000):
        out = round_polymatroid(np.array([1.5]), P, seed=seed)
        assert out[0] in (1, 2)
        hits += out[0] == 2
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_round_polymatroid_always_member_and_mean_preserving():
    P = uniform_polymatroid(3, 1, 2)
    x = np.array([0.5, 0.9, 0.6])  # sum = 2.0: the total constraint is tight
    assert P.member(x)
    w = np.array([2.0, 1.0, 0.5])
    acc = np.zeros(3)
    for seed in range(2000):
        out = round_polymatroid(x, P, seed=seed)
        assert P.member(out.astype(np.float64))
        assert np.all(out <= 1)
        assert out.sum() <= 2
        acc += out
    mean = acc / 2000
    # pipage is mean-preserving, so empirical means track x
    assert np.all(np.abs(mean - x) < 0.05)


def test_round_polymatroid_expected_value_dominates_extension():
    make = lambda: make_separable_concave([1.0, 1.4, 0.6], [0.5, 1.0, 0.5], [2, 2, 2])
    P = uniform_polymatroid(3, 2, 4)
    x = np.array([0.75, 1.25, 0.5])
    assert P.member(x)
    f = make()
    values = []
    for seed in range(1000):
        out = round_polymatroid(x, P, seed=seed)
        values.append(f.eval(out))
    values = np.asarray(values)
    F = extension_exact(make(), x)
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert values.mean() >= F - 3 * se


def test_round_polymatroid_rejects_outside_point():
    P = uniform_polymatroid(2, 1, 2)
    with pytest.raises(ValueError):
        round_polymatroid(np.array([1.5, 1.5]), P, seed=0)


def test_maximize_polymatroid_end_to_end():
    make = lambda: make_separable_concave([1.0, 1.5, 0.8], [0.5, 0.5, 1.0], [3, 3, 3])
    P = uniform_polymatroid(3, 2, 4)
    x_int, x_frac = maximize_polymatroid(make(), P, SolverConfig(0.25, 0))
    assert P.member(x_int.astype(np.float64))
    assert P.member(x_frac)
    assert make().eval(x_int) >= 0.0
    exact = brute_force_opt(make(), uniform_polymatroid(3, 2, 4))
    assert make().eval(x_int) <= exact.opt_value + 1e-9


def test_polymatroid_oracle_guards():
    P = uniform_polymatroid(2, 2, 3)
    assert P.rank([0, 1]) == 3
    # membership counter increments
    before = P.member_calls
    P.member(np.array([1.0, 1.0]))
    assert P.member_calls == before + 1


def test_member_hands_member_fn_only_non_negative_points():
    # x's least entry decides: in [-MEMBERSHIP_TOL, 0) the entry reaches
    # member_fn as 0.0; below it (or NaN) x is out, counted, and member_fn
    # is not called; a wrong shape raises and is not counted
    tol = polymatroid.MEMBERSHIP_TOL
    seen = []

    def member_fn(x):
        seen.append(x.tolist())
        return True

    P = polymatroid.PolymatroidOracle(3, member_fn, rank_total=2)
    for v in (-tol, -5e-10, -1e-300, -0.0):
        assert P.member([0.5, v, 1.0]) is True
        assert seen[-1] == [0.5, 0.0, 1.0]
    assert len(seen) == P.member_calls == 4
    for v in (-1.0000001e-9, -2e-9, -1.0, -math.inf, math.nan):
        assert P.member(np.array([1.0, 0.5, v])) is False
    assert len(seen) == 4 and P.member_calls == 9
    for bad in ([0.0, 0.0], [[0.0, 0.0, 0.0]], 0.0, np.zeros(4)):
        with pytest.raises(ValueError, match="expected shape"):
            P.member(bad)
    assert P.member_calls == 9
    rng = np.random.default_rng(13)
    for _ in range(2000):
        x = rng.choice([-2 * tol, -tol, -tol / 2, -0.0, 0.0, 0.25, 1.0], size=3)
        assert P.member(x) is bool(x.min() >= -tol)
    assert len(seen) > 400
    assert all(v >= 0 for point in seen for v in point)


def test_member_calls_are_exact_across_threads():
    P = uniform_polymatroid(3, 2, 4)
    point = np.array([1.0, 0.5, 0.0])
    per_thread = 3000

    def work():
        for _ in range(per_thread):
            P.member(point)

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so a lost update would show
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert P.member_calls == 8 * per_thread


def test_rank_from_membership_matches_closed_form():
    # drop the rank function: ranks must be recovered through member alone
    base = uniform_polymatroid(3, 2, 4)
    stripped = type(base)(3, base.member, None, rank_total=4, name="stripped")
    for size in range(4):
        X = list(range(size))
        assert stripped.rank(X) == base.rank(X)


def test_maximize_polymatroid_checks_the_cap_before_any_call():
    f = make_separable_concave([1.0] * 21, [0.5] * 21, [2] * 21)
    P = uniform_polymatroid(21, 1, 3)
    with pytest.raises(CapacityError):
        maximize_polymatroid(f, P, SolverConfig(1 / 3, 0))
    assert f.calls == 0
    assert P.member_calls == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polymatroid_entry_points_reject_non_finite_points(bad):
    f = make_separable_concave([1.0, 1.0], [0.5, 0.5], [2, 2])
    P = uniform_polymatroid(2, 2, 3)
    x = np.array([bad, 0.0])
    for call in (
        lambda: binary_search_polymatroid(f, x, 0, 0.1, 1),
        lambda: direction_polymatroid(f, x, P, 1 / 3, 4),
        lambda: rounding_state(x, P),
        lambda: round_polymatroid(x, P, 0),
    ):
        with pytest.raises(ValueError, match="point entries must be finite"):
            call()
    assert f.calls == 0 and P.member_calls == 0


# maximize_polymatroid results recorded before the sampled marginal path
# was deleted: (oracle family, params), (polymatroid family, params),
# epsilon, seed, then the integral point, the fractional point, f.calls and
# P.member_calls.  The two counts were recorded again, lower, once a solve
# kept one point memo and one ray per (x + y, e), again once the direction
# search ran on the threshold sweep with membership read as a probe of the
# ray, f.calls again once the memo kept one value per point for its
# scalar and batch reads, and both once each step search read k = 1 first
# and the memo started out holding f(0); the points did not move.  Every
# family/objective shape of the `continuous` benchmark workload, plus the
# demo config's uniform_poly.
POLYMATROID_PINS = [
    (
        ('separable_concave', {'coeffs': [1.173, 1.146], 'powers': [0.3, 0.5], 'cap': [3, 2]}),
        ('uniform', {'n': 2, 'per_element': 1, 'total': 2}),
        1 / 3, 419,
        [0, 0], [0.3333333333333333, 0.3333333333333333], 3, 15,
    ),
    (
        ('budget_allocation', {'edges': [[0, 1, 0.239], [0, 2, 0.511], [1, 0, 0.125], [1, 2, 0.146]], 'cap': [3, 3]}),
        ('uniform', {'n': 2, 'per_element': 2, 'total': 2}),
        1 / 3, 325,
        [1, 0], [1.3333333333333333, 0.0], 4, 21,
    ),
    (
        ('separable_concave', {'coeffs': [1.492, 0.809], 'powers': [0.5, 0.3], 'cap': [3, 3]}),
        ('partition', {'parts': [[0], [1]], 'caps': [1, 2]}),
        1 / 3, 232,
        [1, 1], [0.3333333333333333, 1.3333333333333333], 5, 19,
    ),
    (
        ('budget_allocation', {'edges': [[0, 2, 0.594], [0, 1, 0.544], [1, 2, 0.266], [1, 1, 0.192]], 'cap': [3, 3]}),
        ('partition', {'parts': [[0], [1]], 'caps': [1, 2]}),
        1 / 3, 520,
        [0, 1], [0.3333333333333333, 1.3333333333333333], 5, 18,
    ),
    (
        ('separable_concave', {'coeffs': [0.749, 1.134], 'powers': [0.5, 0.3], 'cap': [2, 2]}),
        ('rank_table', {'n': 2, 'table': [0, 2, 1, 2]}),
        1 / 3, 908,
        [1, 0], [1.0, 0.3333333333333333], 5, 16,
    ),
    (
        ('budget_allocation', {'edges': [[0, 1, 0.182], [0, 0, 0.347], [1, 0, 0.427], [1, 2, 0.36]], 'cap': [3, 2]}),
        ('rank_table', {'n': 2, 'table': [0, 4, 3, 5]}),
        1 / 3, 914,
        [2, 1], [1.9999999999999998, 1.3333333333333333], 10, 23,
    ),
    (
        ('separable_concave', {'coeffs': [1.812, 1.539, 0.905], 'powers': [0.5, 0.7, 0.3], 'cap': [3, 3, 3]}),
        ('uniform', {'n': 3, 'per_element': 2, 'total': 4}),
        1 / 3, 987,
        [1, 1, 1], [1.0, 1.3333333333333333, 0.3333333333333333], 21, 30,
    ),
    (
        ('budget_allocation', {'edges': [[0, 0, 0.526], [0, 1, 0.221], [1, 2, 0.334], [1, 1, 0.538], [2, 2, 0.422], [2, 0, 0.186]], 'cap': [3, 2, 2]}),
        ('uniform', {'n': 3, 'per_element': 2, 'total': 2}),
        1 / 3, 501,
        [1, 0, 0], [0.6666666666666666, 0.6666666666666666, 0.0], 11, 26,
    ),
    (
        ('separable_concave', {'coeffs': [0.966, 1.03, 0.774], 'powers': [0.5, 0.7, 0.3], 'cap': [3, 2, 3]}),
        ('partition', {'parts': [[0, 1], [2]], 'caps': [2, 2]}),
        1 / 3, 9,
        [1, 1, 2], [1.3333333333333333, 1.3333333333333333, 1.3333333333333333], 24, 34,
    ),
    (
        ('budget_allocation', {'edges': [[0, 1, 0.492], [0, 2, 0.212], [1, 2, 0.117], [1, 0, 0.167], [2, 1, 0.268], [2, 0, 0.517]], 'cap': [2, 2, 2]}),
        ('partition', {'parts': [[0, 1], [2]], 'caps': [1, 1]}),
        1 / 3, 730,
        [1, 0, 0], [0.3333333333333333, 0.3333333333333333, 0.3333333333333333], 5, 21,
    ),
    (
        ('separable_concave', {'coeffs': [0.739, 1.412, 0.539], 'powers': [0.7, 0.3, 0.5], 'cap': [3, 3, 2]}),
        ('rank_table', {'n': 3, 'table': [0, 1, 3, 4, 3, 3, 4, 4]}),
        1 / 3, 839,
        [0, 2, 1], [0.3333333333333333, 1.3333333333333333, 1.0], 21, 30,
    ),
    (
        ('budget_allocation', {'edges': [[0, 2, 0.432], [0, 0, 0.286], [1, 1, 0.396], [1, 2, 0.175], [2, 1, 0.345], [2, 2, 0.463]], 'cap': [3, 3, 2]}),
        ('rank_table', {'n': 3, 'table': [0, 1, 1, 1, 2, 2, 2, 2]}),
        1 / 3, 726,
        [0, 0, 1], [0.3333333333333333, 0.0, 1.0], 7, 22,
    ),
    (
        ('separable_concave', {'coeffs': [1.618, 1.48], 'powers': [0.3, 0.5], 'cap': [3, 3]}),
        ('partition', {'parts': [[0, 1]], 'caps': [1]}),
        1 / 3, 229,
        [0, 0], [0.3333333333333333, 0.3333333333333333], 3, 15,
    ),
    (
        ('budget_allocation', {'edges': [[0, 1, 0.552], [0, 0, 0.482], [1, 1, 0.121], [1, 0, 0.432]], 'cap': [2, 3]}),
        ('partition', {'parts': [[0, 1]], 'caps': [2]}),
        1 / 3, 513,
        [1, 2], [1.3333333333333333, 1.3333333333333333], 8, 23,
    ),
    (
        ('separable_concave', {'coeffs': [1.442, 1.058, 1.836], 'powers': [0.3, 0.5, 0.7], 'cap': [2, 2, 2]}),
        ('partition', {'parts': [[0], [1, 2]], 'caps': [2, 2]}),
        1 / 3, 930,
        [1, 1, 2], [1.3333333333333333, 1.3333333333333333, 1.3333333333333333], 24, 28,
    ),
    (
        ('budget_allocation', {'edges': [[0, 0, 0.348], [0, 1, 0.573], [1, 2, 0.188], [1, 0, 0.486], [2, 1, 0.126], [2, 2, 0.413]], 'cap': [2, 2, 2]}),
        ('partition', {'parts': [[0], [1, 2]], 'caps': [1, 2]}),
        1 / 3, 453,
        [0, 2, 1], [0.3333333333333333, 1.3333333333333333, 1.3333333333333333], 17, 23,
    ),
    (
        ('separable_concave', {'coeffs': [1.372, 1.164, 1.096], 'powers': [0.7, 0.5, 0.3], 'cap': [3, 2, 3]}),
        ('partition', {'parts': [[0], [1], [2]], 'caps': [2, 2, 2]}),
        1 / 3, 859,
        [2, 1, 1], [1.3333333333333333, 1.3333333333333333, 1.3333333333333333], 24, 33,
    ),
    (
        ('budget_allocation', {'edges': [[0, 0, 0.414], [0, 2, 0.504], [1, 0, 0.381], [1, 2, 0.489], [2, 1, 0.4], [2, 0, 0.227]], 'cap': [3, 2, 2]}),
        ('partition', {'parts': [[0], [1], [2]], 'caps': [1, 2, 2]}),
        1 / 3, 709,
        [1, 1, 1], [0.3333333333333333, 1.3333333333333333, 1.3333333333333333], 17, 24,
    ),
    (
        ('separable_concave', {'coeffs': [1.0, 1.5, 0.8], 'powers': [0.5, 0.5, 1.0], 'cap': [3, 3, 3]}),
        ('uniform', {'n': 3, 'per_element': 2, 'total': 4}),
        0.25, 0,
        [1, 1, 0], [0.75, 1.0, 0.75], 24, 41,
    ),
    (
        ('separable_concave', {'coeffs': [1.0, 1.5, 0.8], 'powers': [0.5, 0.5, 1.0], 'cap': [3, 3, 3]}),
        ('uniform', {'n': 3, 'per_element': 2, 'total': 4}),
        0.25, 1,
        [1, 1, 1], [0.75, 1.0, 0.75], 24, 41,
    ),
]


@pytest.mark.parametrize(
    "pin", POLYMATROID_PINS, ids=lambda pin: f"{pin[0][0]}-{pin[1][0]}-seed{pin[3]}"
)
def test_maximize_polymatroid_matches_recorded_results(pin):
    (family, params), (poly_family, poly_params), eps, seed, x_int, x_frac, calls, members = pin
    f = InstanceSpec(family, params).build()
    P = make_polymatroid(poly_family, **poly_params)
    got_int, got_frac = maximize_polymatroid(f, P, SolverConfig(eps, seed))
    assert got_int.tolist() == x_int
    assert got_frac.tolist() == x_frac
    assert f.calls == calls
    assert P.member_calls == members


# the direction search as the library ran it before each solve read f
# through one memo and each (x + y, e) kept its cell, membership search and
# ray: every visit re-ran the membership search and re-summed the cell, so
# it is the reference for the points and an upper bound for the counts
def _old_binary_search_polymatroid(f, x, e, theta, k_max):
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


def _old_direction_polymatroid(f, x, P, epsilon, num_updates):
    if not P.member(x):
        raise ValueError("x is not in the polymatroid")
    y = zeros(f.n)
    box = f.box
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
            k = _old_binary_search_polymatroid(f, current, e, threshold, k_max)
            if k >= 1:
                y[e] += k
    return y


def _old_maximize_polymatroid(f, P, config):
    eps = config.effective
    num_updates = update_budget_fixpoint(f.n, eps)
    x = np.zeros(f.n, dtype=np.float64)
    for _ in range(config.inv_epsilon):
        y = _old_direction_polymatroid(f, x, P, eps, num_updates)
        x = x + eps * y.astype(np.float64)
        if not P.member(x):
            raise RuntimeError("continuous greedy iterate left the polymatroid")
    round_seed = int(np.random.default_rng([config.seed, 1]).integers(0, 2**63))
    return round_polymatroid(x, P, round_seed), x


def _random_polymatroid_solves(rng, count):
    """(make f, make P, config) triples over both DR families and three polytopes."""
    for _ in range(count):
        n = int(rng.integers(1, 4))
        cap = [int(v) for v in rng.integers(1, 4, size=n)]
        if rng.random() < 0.5:
            coeffs = rng.uniform(0.5, 2.0, size=n).tolist()
            powers = rng.choice([0.3, 0.5, 0.7, 1.0], size=n).tolist()
            make_f = lambda coeffs=coeffs, powers=powers, cap=cap: make_separable_concave(
                coeffs, powers, cap)
        else:
            edges = [(s, int(rng.integers(0, 3)), float(rng.uniform(0.1, 0.6)))
                     for s in range(n) for _ in range(2)]
            make_f = lambda edges=edges, cap=cap: make_budget_allocation(edges, cap)
        kind = int(rng.integers(0, 3))
        if kind == 0:
            spec = ("uniform", {"n": n, "per_element": int(rng.integers(1, 3)),
                                "total": int(rng.integers(1, 2 * n + 1))})
        elif kind == 1:
            labels = rng.integers(0, n, size=n)
            parts = [p for p in (np.flatnonzero(labels == j).tolist() for j in range(n)) if p]
            caps = [int(v) for v in rng.integers(1, 3, size=len(parts))]
            spec = ("partition", {"parts": parts, "caps": caps})
        else:
            covers = rng.random((n, 3)) < 0.5
            table = [int(covers[[e for e in range(n) if m >> e & 1]].any(axis=0).sum())
                     + bin(m).count("1") for m in range(1 << n)]
            spec = ("rank_table", {"n": n, "table": table})
        make_P = lambda spec=spec: make_polymatroid(spec[0], **spec[1])
        eps = float(rng.choice([1 / 3, 0.25, 0.5]))
        yield make_f, make_P, SolverConfig(eps, int(rng.integers(1000)))


def test_maximize_polymatroid_matches_the_old_direction_loop():
    rng = np.random.default_rng(2024)
    fewer = 0
    for make_f, make_P, config in _random_polymatroid_solves(rng, 60):
        f, P = make_f(), make_P()
        ref_f, ref_P = make_f(), make_P()
        got_int, got_frac = maximize_polymatroid(f, P, config)
        want_int, want_frac = _old_maximize_polymatroid(ref_f, ref_P, config)
        assert got_int.tolist() == want_int.tolist()
        assert [v.hex() for v in got_frac.tolist()] == [v.hex() for v in want_frac.tolist()]
        assert f.calls <= ref_f.calls
        assert P.member_calls <= ref_P.member_calls
        fewer += f.calls < ref_f.calls
    assert fewer > 30


def test_direction_search_reads_each_point_once_and_probes_each_step_once(monkeypatch):
    # no point reaches fn twice in one solve; between accepted steps x + y
    # stays put, and each (x + y, e, k) is probed once, a membership query
    # being asked only by such a probe; the direction makes no
    # k_max_in_polymatroid search.  The memo under the solve would hide a
    # repeat from every call count, so the events are logged where they
    # happen
    events = []
    direction = polymatroid.direction_polymatroid
    probe, member = polymatroid._ExtensionRay.__missing__, polymatroid.PolymatroidOracle.member

    def logged_direction(*args):
        events.append(("direction",))
        y = direction(*args)
        events.append(("done",))
        return y

    def logged_k_max(*args):
        events.append(("k_max",))

    def logged_probe(self, k):
        events.append(("probe", self._b.tobytes(), self._e, k))
        return probe(self, k)

    def logged_member(self, x):
        events.append(("member",))
        return member(self, x)

    monkeypatch.setattr(polymatroid, "direction_polymatroid", logged_direction)
    monkeypatch.setattr(polymatroid, "k_max_in_polymatroid", logged_k_max)
    monkeypatch.setattr(polymatroid._ExtensionRay, "__missing__", logged_probe)
    monkeypatch.setattr(polymatroid.PolymatroidOracle, "member", logged_member)
    rng = np.random.default_rng(7)
    reads = probes = 0
    for make_f, make_P, config in _random_polymatroid_solves(rng, 40):
        events.clear()
        f = make_f()
        fn = f._fn
        f._fn = lambda x: events.append(("fn", x.tobytes())) or fn(x)
        maximize_polymatroid(f, make_P(), config)
        assert ("k_max",) not in events
        read = [event for event in events if event[0] == "fn"]
        assert len(read) == len(set(read)) == f.calls  # each point once per solve
        reads += len(read)
        starts = [i for i, event in enumerate(events) if event == ("direction",)]
        stops = [i for i, event in enumerate(events) if event == ("done",)]
        assert len(starts) == len(stops) == config.inv_epsilon
        for start, stop in zip(starts, stops):
            span = events[start + 1:stop]
            assert span[0] == ("member",)  # the check that x is in P
            probed = set()
            for before, event in zip(span, span[1:]):
                if event[0] == "member":
                    assert before[0] == "probe"
                elif event[0] == "probe":
                    assert event not in probed  # each (x + y, e, k) once
                    probed.add(event)
                    probes += 1
    assert reads > 40 and probes > 40


def test_each_direction_splits_each_point_once(monkeypatch):
    # the rays of one x + y come from one factory, which splits x + y into
    # its unit cell and makes the corners' ray factories once for them all
    split, direction = polymatroid.split_point, polymatroid.direction_polymatroid
    probe = polymatroid._ExtensionRay.__missing__
    points, logged = [], []  # x + y per split; (x + y, e) per probe that fits P
    splits = shared = 0

    def logged_split(f, b):
        points.append(b.tobytes())
        return split(f, b)

    def logged_direction(*args):
        nonlocal splits, shared
        points.clear()
        probes = len(logged)
        y = direction(*args)
        assert len(points) == len(set(points))
        splits += len(points)
        shared += len(set(logged[probes:])) > len(points)
        return y

    def logged_probe(self, k):
        value = probe(self, k)
        if value > -math.inf:  # a probe that fits P
            logged.append((self._b.tobytes(), self._e))
        return value

    monkeypatch.setattr(polymatroid, "split_point", logged_split)
    monkeypatch.setattr(polymatroid, "direction_polymatroid", logged_direction)
    monkeypatch.setattr(polymatroid._ExtensionRay, "__missing__", logged_probe)
    rng = np.random.default_rng(11)
    for make_f, make_P, config in _random_polymatroid_solves(rng, 20):
        maximize_polymatroid(make_f(), make_P(), config)
    assert splits > 20 and shared > 0  # some x + y has rays along two elements
