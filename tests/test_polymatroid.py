import itertools
import math
import sys
import threading

import numpy as np
import pytest

from latticemax.bruteforce import brute_force_opt
from latticemax.cardinality import SolverConfig
from latticemax.core import CapacityError, ValueOracle
from latticemax.extension import extension_exact
from latticemax.instances import (
    InstanceSpec,
    make_polymatroid,
    make_separable_concave,
    partition_polymatroid,
    table_polymatroid,
    uniform_polymatroid,
)
from latticemax.polymatroid import (
    binary_search_polymatroid,
    continuous_greedy,
    direction_polymatroid,
    k_max_in_polymatroid,
    maximize_polymatroid,
    round_polymatroid,
    rounding_state,
    update_budget_fixpoint,
)


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


def test_round_polymatroid_integral_identity():
    P = uniform_polymatroid(2, 2, 3)
    x = np.array([1.0, 2.0])
    out = round_polymatroid(x, P, seed=0)
    assert list(out) == [1, 2]


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


# maximize_polymatroid results recorded before the sampled marginal path
# was deleted: (oracle family, params), (polymatroid family, params),
# epsilon, seed, then the integral point, the fractional point, f.calls and
# P.member_calls.  Every family/objective shape of the `continuous`
# benchmark workload, plus the demo config's uniform_poly.
POLYMATROID_PINS = [
    (
        ('separable_concave', {'coeffs': [1.173, 1.146], 'powers': [0.3, 0.5], 'cap': [3, 2]}),
        ('uniform', {'n': 2, 'per_element': 1, 'total': 2}),
        1 / 3, 419,
        [0, 0], [0.3333333333333333, 0.3333333333333333], 12, 142,
    ),
    (
        ('budget_allocation', {'edges': [[0, 1, 0.239], [0, 2, 0.511], [1, 0, 0.125], [1, 2, 0.146]], 'cap': [3, 3]}),
        ('uniform', {'n': 2, 'per_element': 2, 'total': 2}),
        1 / 3, 325,
        [1, 0], [1.3333333333333333, 0.0], 40, 180,
    ),
    (
        ('separable_concave', {'coeffs': [1.492, 0.809], 'powers': [0.5, 0.3], 'cap': [3, 3]}),
        ('partition', {'parts': [[0], [1]], 'caps': [1, 2]}),
        1 / 3, 232,
        [1, 1], [0.3333333333333333, 1.3333333333333333], 96, 159,
    ),
    (
        ('budget_allocation', {'edges': [[0, 2, 0.594], [0, 1, 0.544], [1, 2, 0.266], [1, 1, 0.192]], 'cap': [3, 3]}),
        ('partition', {'parts': [[0], [1]], 'caps': [1, 2]}),
        1 / 3, 520,
        [0, 1], [0.3333333333333333, 1.3333333333333333], 90, 156,
    ),
    (
        ('separable_concave', {'coeffs': [0.749, 1.134], 'powers': [0.5, 0.3], 'cap': [2, 2]}),
        ('rank_table', {'n': 2, 'table': [0, 2, 1, 2]}),
        1 / 3, 908,
        [1, 0], [1.0, 0.3333333333333333], 72, 113,
    ),
    (
        ('budget_allocation', {'edges': [[0, 1, 0.182], [0, 0, 0.347], [1, 0, 0.427], [1, 2, 0.36]], 'cap': [3, 2]}),
        ('rank_table', {'n': 2, 'table': [0, 4, 3, 5]}),
        1 / 3, 914,
        [2, 1], [1.9999999999999998, 1.3333333333333333], 112, 65,
    ),
    (
        ('separable_concave', {'coeffs': [1.812, 1.539, 0.905], 'powers': [0.5, 0.7, 0.3], 'cap': [3, 3, 3]}),
        ('uniform', {'n': 3, 'per_element': 2, 'total': 4}),
        1 / 3, 987,
        [1, 1, 1], [1.0, 1.3333333333333333, 0.3333333333333333], 207, 246,
    ),
    (
        ('budget_allocation', {'edges': [[0, 0, 0.526], [0, 1, 0.221], [1, 2, 0.334], [1, 1, 0.538], [2, 2, 0.422], [2, 0, 0.186]], 'cap': [3, 2, 2]}),
        ('uniform', {'n': 3, 'per_element': 2, 'total': 2}),
        1 / 3, 501,
        [1, 0, 0], [0.6666666666666666, 0.6666666666666666, 0.0], 93, 213,
    ),
    (
        ('separable_concave', {'coeffs': [0.966, 1.03, 0.774], 'powers': [0.5, 0.7, 0.3], 'cap': [3, 2, 3]}),
        ('partition', {'parts': [[0, 1], [2]], 'caps': [2, 2]}),
        1 / 3, 9,
        [1, 1, 2], [1.3333333333333333, 1.3333333333333333, 1.3333333333333333], 215, 195,
    ),
    (
        ('budget_allocation', {'edges': [[0, 1, 0.492], [0, 2, 0.212], [1, 2, 0.117], [1, 0, 0.167], [2, 1, 0.268], [2, 0, 0.517]], 'cap': [2, 2, 2]}),
        ('partition', {'parts': [[0, 1], [2]], 'caps': [1, 1]}),
        1 / 3, 730,
        [1, 0, 0], [0.3333333333333333, 0.3333333333333333, 0.3333333333333333], 25, 231,
    ),
    (
        ('separable_concave', {'coeffs': [0.739, 1.412, 0.539], 'powers': [0.7, 0.3, 0.5], 'cap': [3, 3, 2]}),
        ('rank_table', {'n': 3, 'table': [0, 1, 3, 4, 3, 3, 4, 4]}),
        1 / 3, 839,
        [0, 2, 1], [0.3333333333333333, 1.3333333333333333, 1.0], 345, 213,
    ),
    (
        ('budget_allocation', {'edges': [[0, 2, 0.432], [0, 0, 0.286], [1, 1, 0.396], [1, 2, 0.175], [2, 1, 0.345], [2, 2, 0.463]], 'cap': [3, 3, 2]}),
        ('rank_table', {'n': 3, 'table': [0, 1, 1, 1, 2, 2, 2, 2]}),
        1 / 3, 726,
        [0, 0, 1], [0.3333333333333333, 0.0, 1.0], 57, 223,
    ),
    (
        ('separable_concave', {'coeffs': [1.618, 1.48], 'powers': [0.3, 0.5], 'cap': [3, 3]}),
        ('partition', {'parts': [[0, 1]], 'caps': [1]}),
        1 / 3, 229,
        [0, 0], [0.3333333333333333, 0.3333333333333333], 12, 142,
    ),
    (
        ('budget_allocation', {'edges': [[0, 1, 0.552], [0, 0, 0.482], [1, 1, 0.121], [1, 0, 0.432]], 'cap': [2, 3]}),
        ('partition', {'parts': [[0, 1]], 'caps': [2]}),
        1 / 3, 513,
        [1, 2], [1.3333333333333333, 1.3333333333333333], 138, 116,
    ),
    (
        ('separable_concave', {'coeffs': [1.442, 1.058, 1.836], 'powers': [0.3, 0.5, 0.7], 'cap': [2, 2, 2]}),
        ('partition', {'parts': [[0], [1, 2]], 'caps': [2, 2]}),
        1 / 3, 930,
        [1, 1, 2], [1.3333333333333333, 1.3333333333333333, 1.3333333333333333], 237, 89,
    ),
    (
        ('budget_allocation', {'edges': [[0, 0, 0.348], [0, 1, 0.573], [1, 2, 0.188], [1, 0, 0.486], [2, 1, 0.126], [2, 2, 0.413]], 'cap': [2, 2, 2]}),
        ('partition', {'parts': [[0], [1, 2]], 'caps': [1, 2]}),
        1 / 3, 453,
        [0, 2, 1], [0.3333333333333333, 1.3333333333333333, 1.3333333333333333], 187, 135,
    ),
    (
        ('separable_concave', {'coeffs': [1.372, 1.164, 1.096], 'powers': [0.7, 0.5, 0.3], 'cap': [3, 2, 3]}),
        ('partition', {'parts': [[0], [1], [2]], 'caps': [2, 2, 2]}),
        1 / 3, 859,
        [2, 1, 1], [1.3333333333333333, 1.3333333333333333, 1.3333333333333333], 215, 199,
    ),
    (
        ('budget_allocation', {'edges': [[0, 0, 0.414], [0, 2, 0.504], [1, 0, 0.381], [1, 2, 0.489], [2, 1, 0.4], [2, 0, 0.227]], 'cap': [3, 2, 2]}),
        ('partition', {'parts': [[0], [1], [2]], 'caps': [1, 2, 2]}),
        1 / 3, 709,
        [1, 1, 1], [0.3333333333333333, 1.3333333333333333, 1.3333333333333333], 185, 134,
    ),
    (
        ('separable_concave', {'coeffs': [1.0, 1.5, 0.8], 'powers': [0.5, 0.5, 1.0], 'cap': [3, 3, 3]}),
        ('uniform', {'n': 3, 'per_element': 2, 'total': 4}),
        0.25, 0,
        [1, 1, 0], [0.75, 1.0, 0.75], 530, 507,
    ),
    (
        ('separable_concave', {'coeffs': [1.0, 1.5, 0.8], 'powers': [0.5, 0.5, 1.0], 'cap': [3, 3, 3]}),
        ('uniform', {'n': 3, 'per_element': 2, 'total': 4}),
        0.25, 1,
        [1, 1, 1], [0.75, 1.0, 0.75], 530, 507,
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
