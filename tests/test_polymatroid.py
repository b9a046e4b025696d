import itertools
import math
import sys
import threading

import numpy as np
import pytest

from latticemax.bruteforce import brute_force_opt
from latticemax.cardinality import SolverConfig
from latticemax.core import ValueOracle
from latticemax.extension import EstimatorParams, extension_exact
from latticemax.instances import (
    make_separable_concave,
    partition_polymatroid,
    table_polymatroid,
    uniform_polymatroid,
)
from latticemax.polymatroid import (
    DirectionConfig,
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


def test_direction_config_from_epsilon():
    cfg = DirectionConfig.from_epsilon(3, 0.25)
    assert cfg.num_updates == 57
    assert cfg.alpha == 0.25
    assert cfg.beta == pytest.approx(0.25 / (2 * 57 * 4))
    assert cfg.delta == pytest.approx(0.25 / (3 * 57))
    params = cfg.estimator_params()
    assert isinstance(params, EstimatorParams)
    assert params.samples(2) >= 1


def modular_oracle(weights, box):
    w = np.asarray(weights, dtype=np.float64)
    return ValueOracle(lambda x: float(np.dot(w, x)), np.asarray(box, dtype=np.int64))


def test_binary_search_polymatroid_modular_returns_k_max():
    # unit-weight modular f: the sample mean is exactly m, so theta = 0.9
    # keeps the predicate true at every m and k_max must come back
    f = modular_oracle([1.0, 2.0], [8, 8])
    params = EstimatorParams(alpha=0.2, beta=0.1, delta=0.2)
    k = binary_search_polymatroid(f, np.zeros(2), 0, 0.9, params, 6, seed=0)
    assert k == 6
    assert binary_search_polymatroid(f, np.zeros(2), 0, 0.9, params, 0, seed=0) == 0


def test_binary_search_polymatroid_high_threshold_returns_zero():
    f = modular_oracle([1.0, 2.0], [8, 8])
    params = EstimatorParams(alpha=0.01, beta=0.01, delta=0.1)
    assert binary_search_polymatroid(f, np.zeros(2), 0, 1.5, params, 6, seed=3) == 0


def test_binary_search_polymatroid_concave_prefix_noise_free():
    # integral anchor makes every draw identical: search is exact
    f = ValueOracle(lambda x: math.sqrt(x[0]), np.array([12]))
    params = EstimatorParams(alpha=0.2, beta=0.1, delta=0.2)
    for theta in (0.34, 0.5, 0.75, 0.2):
        want = 0
        for m in range(1, 10):
            if math.sqrt(m) >= m * theta - 1e-12:
                want = m
            else:
                break
        got = binary_search_polymatroid(f, np.zeros(1), 0, theta, params, 9, seed=1)
        assert got == want, theta


def test_binary_search_polymatroid_zero_ceiling_short_circuit():
    f = ValueOracle(lambda x: 0.0, np.array([5]))
    params = EstimatorParams(alpha=0.2, beta=0.1, delta=0.2)
    calls_before = f.calls
    assert binary_search_polymatroid(f, np.zeros(1), 0, 0.5, params, 5, seed=0) == 0
    # x is integral: each of the ceil(log2(6)) = 3 probes is one exact
    # corner marginal, two calls
    assert f.calls - calls_before <= 3 * 2


def test_binary_search_polymatroid_accuracy_predicates():
    # property (1): F(k chi_e | x) >= (1-alpha) k theta - beta f(k chi_e)
    # property (2): F((k+1) chi_e | x) < (k+1) theta / (1-alpha) + 2 beta f((k+1) chi_e)
    make = lambda: make_separable_concave([1.0, 0.8], [0.5, 1.0], [6, 6])
    params = EstimatorParams(alpha=0.1, beta=0.05, delta=0.05)
    theta = 0.35
    failures = 0
    trials = 40
    for seed in range(trials):
        f = make()
        x = np.array([0.5, 1.25])
        k = binary_search_polymatroid(f, x, 0, theta, params, 4, seed=seed)
        g = make()
        F = lambda z: extension_exact(g, z)
        ok = True
        if k >= 1:
            gain = F(x + k * np.eye(2)[0]) - F(x)
            ok &= gain >= (1 - 0.1) * k * theta - 0.05 * g.eval(np.array([k, 0])) - 1e-9
        if k < 4:
            gain = F(x + (k + 1) * np.eye(2)[0]) - F(x)
            bound = (k + 1) * theta / (1 - 0.1) + 2 * 0.05 * g.eval(np.array([k + 1, 0]))
            ok &= gain < bound + 1e-9
        failures += not ok
    assert failures <= 2  # delta = 0.05 per call; generous slack


def test_binary_search_polymatroid_costs_at_most_the_cell_per_probe():
    # x fractional in 2 of 3 coordinates: 4 cell corners, far below the
    # Chernoff count, so each probe costs 2 * 4 calls
    P = uniform_polymatroid(3, 4, 7)
    params = DirectionConfig.from_epsilon(3, 0.25).estimator_params()
    x = np.array([0.25, 1.5, 2.0])
    m = 2
    for e in range(3):
        f = make_separable_concave([1.0, 0.8, 1.2], [0.5, 0.7, 1.0], [6, 6, 6])
        k_max = k_max_in_polymatroid(P, x, e, int(f.box[e] - np.ceil(x[e])))
        assert k_max >= 1 and params.samples(k_max) > 2**m
        probes = math.ceil(math.log2(k_max + 1))
        for theta in (0.05, 0.4, 2.0):
            before = f.calls
            binary_search_polymatroid(f, x, e, theta, params, k_max, seed=0)
            assert f.calls - before <= probes * 2 * 2**m


def test_direction_polymatroid_zero_polytope():
    f = make_separable_concave([1.0, 1.0], [0.5, 0.5], [3, 3])
    P = uniform_polymatroid(2, 1, 0)
    cfg = DirectionConfig.from_epsilon(2, 0.25)
    y = direction_polymatroid(f, np.zeros(2), cfg, P, seed=0)
    assert list(y) == [0, 0]


def test_direction_polymatroid_feasibility_and_precondition():
    f = make_separable_concave([1.0, 1.5, 0.7], [0.5, 1.0, 0.5], [3, 3, 3])
    P = partition_polymatroid([[0, 1], [2]], [2, 1])
    cfg = DirectionConfig.from_epsilon(3, 0.25)
    x = np.array([0.5, 0.25, 0.25])
    assert P.member(x)
    y = direction_polymatroid(f, x, cfg, P, seed=1)
    assert np.all(y >= 0)
    assert P.member(x + y)
    with pytest.raises(ValueError):
        direction_polymatroid(f, np.array([5.0, 0.0, 0.0]), cfg, P, seed=0)


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
    cfg = DirectionConfig.from_epsilon(3, 0.25)
    x = np.array([0.5, 0.0, 0.25])
    y = direction_polymatroid(f, x, cfg, P, seed=0)
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
