import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticemax import cardinality, knapsack
from latticemax.bruteforce import brute_force_opt
from latticemax.cardinality import (
    CardinalityConstraint,
    SolverConfig,
    _max_step_with_gain,
    _PointMemo,
    binary_search_lattice,
    effective_epsilon,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
    threshold_schedule,
)
from latticemax.core import ValueOracle, as_lattice_point, total, unit, zeros
from latticemax.instances import (
    NON_DR_TABLES,
    make_budget_allocation,
    make_lattice_non_dr,
    make_separable_concave,
    random_budget_allocation,
    random_separable_concave,
    uniform_polymatroid,
)
from latticemax.knapsack import (
    BUDGET_TOL,
    KnapsackInstance,
    greedy_knapsack,
    increase_support,
    maximize_knapsack,
    partial_enumeration,
)
from latticemax.polymatroid import direction_polymatroid, maximize_polymatroid

RATIO_DR = 1 - 1 / math.e - 0.1


def capped_modular(weights, caps):
    w = np.asarray(weights, dtype=np.float64)
    k = np.asarray(caps, dtype=np.int64)
    return lambda x: float(np.dot(w, np.minimum(x, k)))


def scan_max_step(fn, y, e, k_max, theta):
    """Reference for the DR step search: literal linear scan of the definition."""
    best = 0
    base = fn(y)
    for k in range(1, k_max + 1):
        step = y.copy()
        step[e] += k
        if fn(step) - base >= k * theta - 1e-12:
            best = k
    return best


def test_effective_epsilon():
    assert effective_epsilon(0.5) == (0.5, 2)
    assert effective_epsilon(0.25) == (0.25, 4)
    # 1/0.1 is 10.000000000000002 in floats; tolerance keeps m = 10
    eps, m = effective_epsilon(0.1)
    assert m == 10 and eps == pytest.approx(0.1)
    eps, m = effective_epsilon(0.3)  # 1/0.3 = 3.33.. -> m = 4
    assert m == 4 and eps == 0.25
    with pytest.raises(ValueError):
        effective_epsilon(0.0)
    with pytest.raises(ValueError):
        effective_epsilon(1.0)


@pytest.mark.parametrize("epsilon", [1e-17, 5e-324])
def test_an_epsilon_whose_complement_rounds_to_one_is_rejected(epsilon):
    # 1 - eps == 1.0: no threshold level would ever fall (and 1 / 5e-324 overflows)
    f = make_separable_concave([1.0, 2.0], [0.5, 1.0], [2, 2])
    inst = KnapsackInstance((0.3, 0.4), (2, 2))
    P = uniform_polymatroid(2, 1, 2)
    entries = [
        lambda: SolverConfig(epsilon),
        lambda: binary_search_lattice(f, 0, 0.5, 2, epsilon),
        lambda: increase_support(f, inst, 0, [zeros(2)], epsilon),
        lambda: partial_enumeration(f, inst, epsilon),
        lambda: direction_polymatroid(f, zeros(2), P, epsilon, 4),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="too small: 1 - epsilon rounds to 1"):
            entry()
    assert f.calls == 0 and P.member_calls == 0


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "0"])
def test_solver_config_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    # numpy's generators reject a negative seed only once a solve draws
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        SolverConfig(0.1, seed)
    assert SolverConfig(0.1, np.int64(3)).seed == 3


def test_threshold_schedule():
    levels = list(threshold_schedule(2.0, 1 / 6, 0.25))
    assert levels[0] == 2.0
    assert len(levels) == 9
    for a, b in zip(levels, levels[1:]):
        assert b == pytest.approx(a * 0.75)
    assert levels[-1] >= 1 / 6
    assert levels[-1] * 0.75 < 1 / 6


def test_threshold_schedule_empty_when_top_below_floor():
    assert list(threshold_schedule(0.1, 0.2, 0.5)) == []


@pytest.mark.parametrize("top", [math.nan, math.inf])
@pytest.mark.parametrize("solver", ["dr", "lattice", "knapsack", "polymatroid"])
def test_a_non_finite_objective_raises_instead_of_hanging(solver, top):
    # no level of a NaN or infinite top ever falls below the floor, so the
    # schedule used to run forever; each solver's first schedule now raises
    f = ValueOracle(lambda x: top if x[0] >= 1 else float(x.sum()), [2, 2])
    config = SolverConfig(0.25)
    solve = {
        "dr": lambda: maximize_dr_cardinality(f, CardinalityConstraint((2, 2), 3), config),
        "lattice": lambda: maximize_lattice_cardinality(f, CardinalityConstraint((2, 2), 3), config),
        "knapsack": lambda: maximize_knapsack(f, KnapsackInstance((0.5, 0.5), (2, 2)), config),
        "polymatroid": lambda: maximize_polymatroid(f, uniform_polymatroid(2, 2, 3), config),
    }[solver]
    with pytest.raises(ValueError, match="finite top value"):
        solve()


def test_max_step_dr_examples():
    fn = capped_modular([2.0], [1])
    f = ValueOracle(fn, np.array([5]))
    y = np.zeros(1, dtype=np.int64)
    assert _max_step_with_gain(_PointMemo(f).rays(y)(0), 0, 2.0)[0] == 0
    assert _max_step_with_gain(_PointMemo(f).rays(y)(0), 5, 2.0)[0] == 1
    assert _max_step_with_gain(_PointMemo(f).rays(y)(0), 5, 2.5)[0] == 0
    with pytest.raises(ValueError):
        _max_step_with_gain(_PointMemo(f).rays(y)(0), -1, 2.0)


def test_max_step_dr_matches_linear_scan():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        caps = rng.integers(1, 6, size=n)
        w = rng.uniform(0.2, 3.0, size=n)
        kink = rng.integers(1, caps + 1)
        fn = capped_modular(w, kink)
        box = np.array(caps, dtype=np.int64)
        f = ValueOracle(fn, box)
        y = rng.integers(0, caps + 1)
        e = int(rng.integers(0, n))
        k_max = int(caps[e] - y[e])
        theta = float(rng.uniform(0.1, 2.5))
        ray = _PointMemo(f).rays(np.array(y, dtype=np.int64))(e)
        got = _max_step_with_gain(ray, k_max, theta)[0]
        want = scan_max_step(fn, np.array(y, dtype=np.int64), e, k_max, theta)
        assert got == want


def test_maximize_dr_cardinality_frozen_example():
    # f(x) = 2 min(x_a, 1) + min(x_b, 3), c = (1, 3), r = 2
    f = ValueOracle(capped_modular([2.0, 1.0], [1, 3]), np.array([1, 3]))
    cst = CardinalityConstraint((1, 3), 2)
    y, trace = maximize_dr_cardinality(f, cst, SolverConfig(0.1, 0))
    assert list(y) == [1, 1]
    assert f.eval(y) == pytest.approx(3.0)
    exact = brute_force_opt(
        ValueOracle(capped_modular([2.0, 1.0], [1, 3]), np.array([1, 3])), cst
    )
    assert exact.opt_value == pytest.approx(3.0)
    thetas = trace.thresholds()
    assert thetas == sorted(thetas, reverse=True)
    assert all(s.gain >= s.step * s.threshold - 1e-9 for s in trace.steps)


def test_maximize_dr_cardinality_zero_budget_and_zero_oracle():
    f = ValueOracle(lambda x: 0.0, np.array([2, 2]))
    y, trace = maximize_dr_cardinality(f, CardinalityConstraint((2, 2), 0), SolverConfig(0.1, 0))
    assert list(y) == [0, 0]
    y, trace = maximize_dr_cardinality(f, CardinalityConstraint((2, 2), 3), SolverConfig(0.1, 0))
    assert list(y) == [0, 0] and not trace.steps


def test_maximize_dr_cardinality_modular_near_opt():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        caps = rng.integers(1, 4, size=n)
        w = rng.uniform(0.2, 3.0, size=n)
        while len(set(np.round(w, 6))) < n:  # distinct weights
            w = rng.uniform(0.2, 3.0, size=n)
        r = int(rng.integers(1, caps.sum() + 1))
        make = lambda: ValueOracle(lambda x: float(np.dot(w, x)), np.array(caps, dtype=np.int64))
        cst = CardinalityConstraint(tuple(int(c) for c in caps), r)
        y, _ = maximize_dr_cardinality(make(), cst, SolverConfig(0.1, 0))
        exact = brute_force_opt(make(), cst)
        assert float(np.dot(w, y)) >= (1 - 0.1) * exact.opt_value - 1e-9
        assert cst.is_feasible(y)


def test_maximize_dr_cardinality_ratio_on_random_dr_instances():
    from latticemax.instances import random_separable_concave

    for seed in range(20):
        oracle = random_separable_concave(seed, 3, 4)
        caps = tuple(int(c) for c in oracle.box)
        r = 1 + seed % 6
        cst = CardinalityConstraint(caps, r)
        y, _ = maximize_dr_cardinality(oracle, cst, SolverConfig(0.1, seed))
        exact = brute_force_opt(random_separable_concave(seed, 3, 4), cst)
        value = random_separable_concave(seed, 3, 4).eval(y)
        assert value >= RATIO_DR * exact.opt_value - 1e-9


def single_coordinate(gfun, k_max):
    return ValueOracle(lambda x: float(gfun(int(x[0]))), np.array([k_max]))


def test_binary_search_lattice_zero_function_fails():
    g = single_coordinate(lambda k: 0.0, 6)
    assert binary_search_lattice(g, 0, 0.5, 6, 0.1) is None
    assert binary_search_lattice(g, 0, 0.5, 0, 0.1) is None


def test_binary_search_lattice_ceil_example():
    # g(k) = ceil(k/2), theta = 0.4: hand replay returns 9 for eps = 0.1
    g = single_coordinate(lambda k: math.ceil(k / 2), 10)
    k = binary_search_lattice(g, 0, 0.4, 10, 0.1)
    assert k == 9
    # the contract only promises the acceptance predicate
    g2 = single_coordinate(lambda k: math.ceil(k / 2), 10)
    k2 = binary_search_lattice(g2, 0, 0.4, 10, 0.01)
    assert k2 is not None
    assert math.ceil(k2 / 2) >= (1 - 0.01) * 0.4 * k2 - 1e-12


def test_binary_search_lattice_saturating_example():
    # g(k) = min(k, 1), theta = 1.5: no k >= 1 has g >= 1.5 k
    g = single_coordinate(lambda k: min(k, 1), 4)
    k = binary_search_lattice(g, 0, 1.5, 4, 0.1)
    if k is not None:
        assert min(k, 1) >= (1 - 0.1) * 1.5 * k - 1e-12


def random_monotone_steps(rng, k_max):
    """Random non-decreasing g with g(0) = 0 as a lookup table."""
    inc = rng.uniform(0.0, 1.0, size=k_max) * (rng.random(k_max) < 0.7)
    return np.concatenate([[0.0], np.cumsum(inc)])


def test_binary_search_lattice_acceptance_guarantees():
    rng = np.random.default_rng(3)
    for _ in range(150):
        k_max = int(rng.integers(1, 65))
        table = random_monotone_steps(rng, k_max)
        theta = float(rng.uniform(0.05, 1.2))
        eps = float(rng.choice([0.5, 0.25, 0.1]))
        g = single_coordinate(lambda k: table[k], k_max)
        k = binary_search_lattice(g, 0, theta, k_max, eps)
        exists = any(table[j] >= j * theta - 1e-12 for j in range(1, k_max + 1))
        if k is not None:
            # property (3): acceptance predicate at the returned k
            assert table[k] >= (1 - eps) * k * theta - 1e-9
            assert 1 <= k <= k_max
        if exists:
            # property (1): a qualifying k* forbids FAIL
            assert k is not None


def test_maximize_lattice_cardinality_on_dr_instance_matches_dr_solver_bound():
    f1 = make_separable_concave([1.0, 2.0], [0.5, 1.0], [3, 3])
    cst = CardinalityConstraint((3, 3), 4)
    y, trace = maximize_lattice_cardinality(f1, cst, SolverConfig(0.1, 0))
    exact = brute_force_opt(make_separable_concave([1.0, 2.0], [0.5, 1.0], [3, 3]), cst)
    value = make_separable_concave([1.0, 2.0], [0.5, 1.0], [3, 3]).eval(y)
    assert cst.is_feasible(y)
    assert value >= (1 - 1 / math.e - 0.2) * exact.opt_value - 1e-9
    thetas = trace.thresholds()
    assert thetas == sorted(thetas, reverse=True)


@pytest.mark.parametrize("name", sorted(NON_DR_TABLES))
def test_maximize_lattice_cardinality_non_dr_tables(name):
    table = NON_DR_TABLES[name]
    f = make_lattice_non_dr(table)
    assert f.meta["strictly_non_dr"]
    caps = tuple(int(b) for b in f.box)
    for r in (1, 2, sum(caps)):
        g = make_lattice_non_dr(table)
        cst = CardinalityConstraint(caps, r)
        y, trace = maximize_lattice_cardinality(g, cst, SolverConfig(0.1, 0))
        assert cst.is_feasible(y)
        exact = brute_force_opt(make_lattice_non_dr(table), cst)
        value = make_lattice_non_dr(table).eval(y)
        assert value >= (1 - 1 / math.e - 0.2) * exact.opt_value - 1e-9
        for s in trace.steps:
            assert s.gain >= (1 - 0.1) * s.step * s.threshold - 1e-9


def test_maximize_lattice_cardinality_zero_budget():
    f = make_separable_concave([1.0], [1.0], [3])
    y, trace = maximize_lattice_cardinality(f, CardinalityConstraint((3,), 0), SolverConfig(0.1, 0))
    assert list(y) == [0]


def test_constraint_validation():
    with pytest.raises(ValueError):
        CardinalityConstraint((2, -1), 3)
    with pytest.raises(ValueError):
        CardinalityConstraint((2, 2), -1)
    cst = CardinalityConstraint((2, 2), 3)
    assert cst.is_feasible(np.array([2, 1]))
    assert not cst.is_feasible(np.array([2, 2]))
    assert not cst.is_feasible(np.array([3, 0]))


@pytest.mark.parametrize("budget", [2.5, 2.0, math.nan, math.inf, True])
def test_constraint_rejects_a_non_integer_budget(budget):
    # a budget of 2.5 made the bisection probe mid = 2.0 forever; a NaN or
    # infinite one gave a level floor the threshold schedule never reaches
    with pytest.raises(ValueError, match=re.escape(f"budget must be an integer, got {budget!r}")):
        CardinalityConstraint((3, 3), budget)


def test_constraint_accepts_numpy_integer_budgets():
    for budget in (np.int64(3), np.int32(3), np.uint8(3)):
        cst = CardinalityConstraint((3, 3), budget)
        assert cst.is_feasible(np.array([2, 1])) and not cst.is_feasible(np.array([2, 2]))


@given(st.integers(min_value=0, max_value=40), st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=80, deadline=None)
def test_max_step_dr_prefix_property(cap, theta):
    # concave marginals: sqrt steps; compare against the scan reference
    fn = lambda x: float(math.sqrt(x[0]))
    f = ValueOracle(fn, np.array([max(cap, 1)]))
    y = np.zeros(1, dtype=np.int64)
    got = _max_step_with_gain(_PointMemo(f).rays(y)(0), cap, theta)[0]
    want = scan_max_step(lambda v: math.sqrt(v[0]), y, 0, cap, theta)
    assert got == want


class CountingRay(dict):
    """k -> gains[k] for a list of gains, kept on the first read of k: len() counts the probes."""

    def __init__(self, gains):
        super().__init__()
        self.gains = gains

    def __missing__(self, k):
        value = self[k] = self.gains[k]
        return value


def concave_integer_gains(rng, k_max):
    """g(0..k_max) with g(0) = 0 and non-negative, non-increasing integer increments."""
    increments = sorted(rng.integers(0, 12, size=k_max).tolist(), reverse=True)
    return [0] + np.cumsum(increments, dtype=np.int64).tolist()


def every_threshold(gains):
    """Each positive average gain g(k) / k exactly, the midpoints between them, one past each end."""
    averages = sorted({Fraction(g, k) for k, g in enumerate(gains) if k and g > 0})
    if not averages:
        return [Fraction(1)]
    mids = [(a + b) / 2 for a, b in zip(averages, averages[1:])]
    return [averages[0] / 2, *averages, *mids, averages[-1] + 1]


def worst_probes(k_max):
    """The most probes the exponential search may make: 2 floor(log2 k_max) + 1."""
    return 2 * (k_max.bit_length() - 1) + 1


def test_max_step_returns_the_bisections_step_on_exact_concave_gains():
    # integer gains and rational thresholds compare exactly, so the steps
    # that clear form a prefix and both searches must return its end; a
    # visit with g(1) < threshold makes one probe, and none makes more
    # than 2 floor(log2 k_max) + 1
    rng = np.random.default_rng(28)
    searches = 0
    for k_max in range(65):
        for _ in range(4):
            gains = concave_integer_gains(rng, k_max)
            for threshold in every_threshold(gains):
                ray = CountingRay(gains)
                got = _max_step_with_gain(ray, k_max, threshold)
                assert got == bisection_max_step(gains.__getitem__, k_max, threshold)
                if k_max == 0:
                    assert len(ray) == 0
                elif gains[1] < threshold:
                    assert got == (0, 0.0) and len(ray) == 1
                else:
                    assert 1 <= len(ray) <= worst_probes(k_max)
                searches += 1
    assert searches > 10_000


def test_max_step_probes_at_most_twice_the_log_of_k_max_plus_one():
    # the probes depend only on where the steps that clear end, so every
    # end k* of a prefix covers every search; the bound is reached
    reached = set()
    for k_max in range(1, 129):
        most = 0
        for k_star in range(k_max + 1):
            ray = CountingRay([min(k, k_star) for k in range(k_max + 1)])
            assert _max_step_with_gain(ray, k_max, 1.0) == (k_star, k_star)
            most = max(most, len(ray))
        assert 1 <= most <= worst_probes(k_max)
        if most == worst_probes(k_max):
            reached.add(k_max)
    assert {1, 3, 7, 127} <= reached


def test_a_search_that_takes_no_step_costs_one_call():
    f = make_separable_concave([1.0, 2.0], [0.5, 1.0], [64, 64])
    memo = _PointMemo(f)
    ray = memo.rays(np.array([3, 5], dtype=np.int64))(1)
    calls = f.calls
    assert _max_step_with_gain(ray, 59, 2.5) == (0, 0.0)
    assert f.calls == calls + 1 and list(ray) == [1]


def dr_level_probes(k_max):
    """The most probes a stepping visit of the DR level rule makes: 2 floor(log2 k) + ceil(log2 k) + 2."""
    return min(k_max, worst_probes(k_max) + (k_max - 1).bit_length() + 1)


def test_dr_level_rule_returns_the_scans_step_on_exact_concave_gains():
    # integer gains with rational eps and thresholds compare exactly, so DR
    # holds exactly and the rule must return the scan's (k, gain) at every
    # threshold where the scan's step changes, (g(k) / k) / (1 - eps), and
    # between them; a visit that takes no step probes g(1) alone.  One ray
    # asked at falling thresholds, as the sweep asks it, answers the same
    rng = np.random.default_rng(29)
    searches, reached = 0, set()
    for k_max in range(65):
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
            gains = concave_integer_gains(rng, k_max)
            kept = CountingRay(gains)
            thresholds = sorted((t / (1 - eps) for t in every_threshold(gains)), reverse=True)
            for threshold in thresholds:
                ray = CountingRay(gains)
                got = cardinality._dr_level_rule(ray, k_max, eps, threshold)[:2]
                assert got == cardinality._level_rule(CountingRay(gains), k_max, eps, threshold)[:2]
                assert cardinality._dr_level_rule(kept, k_max, eps, threshold)[:2] == got
                if got[0] == 0:
                    assert len(ray) == min(k_max, 1)
                else:
                    assert 1 <= len(ray) <= dr_level_probes(k_max)
                    if len(ray) == dr_level_probes(k_max):
                        reached.add(k_max)
                searches += 1
    assert searches > 10_000
    assert {7, 15, 31, 63} <= reached


def test_dr_level_rule_steps_only_where_the_scans_test_passes_off_dr():
    # increments 10, 10, 5, 15 break DR: the search finds K = 4 at the bar
    # 10, the first level at or below g(4) = 40 is 22.5, and its k = 3 does
    # not clear 0.5 * 3 * 20, so the rule steps k = 1, which does
    gains = [0.0, 10.0, 20.0, 25.0, 40.0, 41.0, 42.0, 43.0, 45.0]
    assert cardinality._dr_level_rule(CountingRay(gains), 8, 0.5, 20.0)[:2] == (1, 10.0)
    assert cardinality._level_rule(CountingRay(gains), 8, 0.5, 20.0)[:2] == (2, 20.0)


def test_level_candidates_with_a_fit_bound_yield_the_whole_scans_pairs_up_to_it():
    # monotone gains with flat runs (no concavity): the fit bound keeps the
    # whole scan's pairs with k <= k_fit, in order, and reads no k beyond
    # k_fit but the anchor k_max, and only val[k_fit] when it is not positive
    rng = np.random.default_rng(32)
    scans = 0
    for k_max in range(40):
        for _ in range(4):
            increments = rng.integers(0, 4, size=k_max) * rng.integers(0, 2, size=k_max)
            gains = [0.0] + np.cumsum(increments, dtype=np.float64).tolist()
            for eps in (0.5, 0.25, 0.1):
                whole = list(cardinality._level_candidates(CountingRay(gains), k_max, eps))
                for k_fit in range(k_max + 1):
                    ray = CountingRay(gains)
                    got = list(cardinality._level_candidates(ray, k_max, eps, k_fit))
                    assert got == [(k, g) for k, g in whole if k <= k_fit]
                    assert all(k <= k_fit or k == k_max for k in ray)
                    if not k_fit or gains[k_fit] <= 0:
                        assert list(ray) == [k_fit][:k_fit]
                    scans += 1
    assert scans > 5_000


def test_maximize_lattice_cardinality_top_threshold_is_feasible():
    # cap far above the budget: probing f(c_e e) instead of f(min(c_e, r) e)
    # put every threshold above any gain a step of <= r units can reach
    coeffs, powers, cap, r = [1.0, 1.5, 0.8, 1.2], [1.0, 0.5, 0.7, 1.0], 1024, 8
    f = make_separable_concave(coeffs, powers, [cap] * 4)
    y, _ = maximize_lattice_cardinality(f, CardinalityConstraint((cap,) * 4, r), SolverConfig(0.1, 0))
    # exact optimum: the r largest unit increments (each coordinate is concave)
    increments = sorted(
        (a * (k**p - (k - 1) ** p) for a, p in zip(coeffs, powers) for k in range(1, r + 1)),
        reverse=True,
    )
    opt = sum(increments[:r])
    assert total(y) <= r
    assert f.eval(y) >= (1 - 1 / math.e - 0.1) * opt


# -- every solve evaluates each lattice point at most once --------------------


def recording(base: ValueOracle) -> tuple[ValueOracle, list]:
    """An oracle equal to ``base``, with its ``meta``, that logs every point it evaluates."""
    points: list[bytes] = []

    def fn(x):
        points.append(np.asarray(x, dtype=np.int64).tobytes())
        return base.eval(x)

    f = ValueOracle(fn, base.box, meta=base.meta)
    points.clear()  # drop the constructor's f(0) check
    return f, points


# (make, whether to run the whole knapsack solve): a knapsack solve on the
# n = 4, cap 30-40 oracles takes seconds, so it runs on the small ones only
POINT_ONCE_ORACLES = [
    *(pytest.param(lambda s=s: random_separable_concave(s, 4, 40), False,
                   id=f"separable_concave-{s}") for s in range(3)),
    *(pytest.param(lambda s=s: random_budget_allocation(s, 4, 5, 30), False,
                   id=f"budget_allocation-{s}") for s in range(3)),
    *(pytest.param(lambda s=s: random_separable_concave(s, 3, 4), True,
                   id=f"small_separable_concave-{s}") for s in range(3)),
    *(pytest.param(lambda s=s: random_budget_allocation(s, 3, 3, 4), True,
                   id=f"small_budget_allocation-{s}") for s in range(3)),
    *(pytest.param(lambda t=t: make_lattice_non_dr(NON_DR_TABLES[t]), True, id=t)
      for t in sorted(NON_DR_TABLES)),
]


@pytest.mark.parametrize("make, whole_knapsack", POINT_ONCE_ORACLES)
def test_solvers_evaluate_no_point_twice(make, whole_knapsack):
    base = make()
    caps = tuple(int(c) for c in base.box)
    weights = [1.0 + e % 3 for e in range(base.n)]
    knapsack = lambda r: KnapsackInstance.from_raw(weights, 3.0 * r, caps)
    solves = [
        lambda f, r: maximize_dr_cardinality(f, CardinalityConstraint(caps, r), SolverConfig(0.1)),
        lambda f, r: maximize_lattice_cardinality(f, CardinalityConstraint(caps, r), SolverConfig(0.1)),
        lambda f, r: greedy_knapsack(f, knapsack(r), zeros(f.n), SolverConfig(0.1)),
    ]
    if whole_knapsack:
        solves.append(lambda f, r: maximize_knapsack(f, knapsack(r), SolverConfig(0.1)))
    # the polymatroid solve reads f(e) by eval and again as a corner of a
    # cell, through one memo value
    solves.append(lambda f, r: maximize_polymatroid(f, uniform_polymatroid(f.n, 2, r),
                                                    SolverConfig(1 / 3)))
    for solve in solves:
        for r in (1, 3, sum(caps)):
            f, points = recording(base)
            solve(f, r)
            assert points, "the solve made no oracle call"
            assert len(points) == len(set(points)) == f.calls


# -- same results as the sweeps before the per-solve memo -----------------------
# Literal copies of the step searches and sweeps that evaluated f(y) afresh
# for every step search and built f.shifted(y) for every lattice step.


def reference_gains(f, y, e, log=None):
    """k -> f(k e | y) on f itself, f(y) read now; ``log``, when given, collects each probe."""
    base = f.eval(y)

    def gain(k):
        value = f.eval(y + unit(f.n, e, k)) - base
        if log is not None:
            log[k] = value
        return value

    return gain


def exponential_max_step(gain, k_max, threshold):
    """The largest k <= k_max with gain(k) >= k * threshold by the exponential search.

    It probes k = 1, 2, 4, ... while the gain clears, then bisects between
    the last probe that cleared and the first that failed.
    """
    lo, hi, gain_at_lo = 0, k_max, 0.0
    k = 1
    while k <= k_max:
        value = gain(k)
        if value >= k * threshold:
            lo, gain_at_lo = k, value
            k *= 2
        else:
            hi = k - 1
            break
    while lo < hi:
        mid = (lo + hi + 1) // 2
        value = gain(mid)
        if value >= mid * threshold:
            lo, gain_at_lo = mid, value
        else:
            hi = mid - 1
    return lo, gain_at_lo


def bisection_max_step(gain, k_max, threshold):
    """The same k by the search the exponential one replaced: bisection of [0, k_max] from the middle."""
    lo, hi, gain_at_lo = 0, k_max, 0.0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        value = gain(mid)
        if value >= mid * threshold:
            lo, gain_at_lo = mid, value
        else:
            hi = mid - 1
    return lo, gain_at_lo


def reference_max_step_with_gain(f, y, e, k_max, threshold, log=None):
    """The exponential search on f itself; ``log``, when given, collects each probe k -> f(k e | y)."""
    if k_max == 0:
        return 0, 0.0
    return exponential_max_step(reference_gains(f, y, e, log), k_max, threshold)


def reference_bisection(f, y, e, k_max, threshold, log=None):
    """:func:`reference_max_step_with_gain` with the bisection from the middle."""
    if k_max == 0:
        return 0, 0.0
    return bisection_max_step(reference_gains(f, y, e, log), k_max, threshold)


def memo_along(g, e, log=None):
    """k -> g(k e), each k evaluated once; ``log``, when given, is the memo."""
    step = unit(g.n, e)
    memo = {} if log is None else log

    def val(k):
        if k not in memo:
            memo[k] = g.eval(k * step)
        return memo[k]

    return val


def reference_k_min(val, k_max):
    """The smallest k with val(k) > 0, None if val(k_max) <= 0."""
    if val(k_max) <= 0:
        return None
    lo, hi = 1, k_max
    while lo < hi:
        mid = (lo + hi) // 2
        if val(mid) > 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def first_reaching(val, lo, hi, level):
    """The smallest k in lo..hi with val(k) >= level, by bisection."""
    while lo < hi:
        mid = (lo + hi) // 2
        if val(mid) >= level:
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_binary_search_lattice(g, e, theta, k_max, epsilon, log=None):
    """The level-set search; ``log``, when given, is its memo of the probes k -> g(k e)."""
    if k_max == 0:
        return None
    val = memo_along(g, e, log)
    k_min = reference_k_min(val, k_max)
    if k_min is None:
        return None
    g_min, g_max = val(k_min), val(k_max)
    for level in threshold_schedule(g_max, (1 - epsilon) * g_min, epsilon):
        k = first_reaching(val, k_min, k_max, level)
        if val(k) >= (1 - epsilon) * k * theta:
            return k
    return None


def reference_dr_level_search(g, e, theta, k_max, epsilon, log=None):
    """The level-set search's step under DR, found in the DR lattice sweep's probe order.

    The exponential search for the largest K with g(K e) >= K (1 - eps)
    theta, then g(k_max e), then the bisection of [1, K] for the smallest k
    reaching the first level of the scan's schedule at or below g(K e).
    """
    if k_max == 0:
        return None
    val = memo_along(g, e, log)
    k_clear, _ = exponential_max_step(val, k_max, (1 - epsilon) * theta)
    if k_clear == 0:
        return None
    levels = threshold_schedule(val(k_max), (1 - epsilon) * val(1), epsilon)
    top = val(k_clear)
    k = first_reaching(val, 1, k_clear, next((h for h in levels if h <= top), top))
    assert val(k) >= (1 - epsilon) * k * theta
    return k


def lazy_skip(bounds, e, bar, f_y):
    """Whether the lazy sweep skips a visit of e at threshold ``bar``.

    ``bounds`` holds e's least bound so far; skip when it is below ``bar``
    by more than 1e-9 * max(|f(y)|, bar).
    """
    return e in bounds and bounds[e] < bar - 1e-9 * max(abs(f_y), bar)


def lazy_bounds_before_step(bounds, probes, e, k, lattice, eps, dr=False):
    """Fold the probes made at y into ``bounds`` as a step of k along e leaves y.

    ``probes[e']`` maps each k' probed along e' at y to f(k' e' | y).  DR:
    the gain at the smallest probed k' (k' = 1 under the exponential
    search, 1 or more under the bisection), and for e also f(e | y + k e) from
    the probe at k + 1; the lattice sweep on DR f (``dr``) divides it by
    1 - eps.  Lattice otherwise: max_i g(k_i) / (k_{i-1} + 1) over the
    probed k_i, over 1 - eps; e's own bound is dropped.
    """
    for e2, gains in probes.items():
        if lattice and not dr:
            if e2 == e:
                bounds.pop(e2, None)
                continue
            ks = sorted(gains)
            new = max([0.0] + [gains[b] / (a + 1) for a, b in zip([0] + ks, ks)]) / (1.0 - eps)
        else:
            new = gains[min(gains)]
            if e2 == e and k + 1 in gains:
                new = min(new, gains[k + 1] - gains[k])
            if lattice:
                new /= 1.0 - eps
        bounds[e2] = min(new, bounds.get(e2, new))


def reference_sweep(f, constraint, config, lattice, skip=False,
                    search=reference_max_step_with_gain):
    """The cardinality sweep as it was before the memo; ``skip`` adds the lazy bounds.

    With ``skip``, the lattice sweep on an f whose ``meta`` says DR finds
    each step by :func:`reference_dr_level_search`.  ``search`` is the DR
    sweep's step search.
    """
    cap = constraint.cap_vector()
    eps = config.effective
    r = constraint.budget
    y = zeros(f.n)
    steps = []
    if r == 0 or not cap.any():
        return y, steps
    probe = (lambda e: min(int(cap[e]), r)) if lattice else (lambda e: 1)
    d = max((f.eval(unit(f.n, e, probe(e))) for e in range(f.n) if cap[e] >= 1), default=0.0)
    if d <= 0:
        return y, steps
    dr = skip and lattice and bool(f.meta.get("dr_submodular"))
    bounds, probes, f_y = {}, {}, 0.0
    for threshold in threshold_schedule(d, (eps / r) * d, eps):
        for e in range(f.n):
            k_cap = min(int(cap[e] - y[e]), r - total(y))
            if k_cap <= 0:
                continue
            if skip and lazy_skip(bounds, e, threshold, f_y):
                continue
            log = probes.setdefault(e, {})
            if lattice:
                view = f.shifted(y)
                level_search = reference_dr_level_search if dr else reference_binary_search_lattice
                k = level_search(view, e, threshold, k_cap, eps, log)
                if k is None:
                    continue
                gain = view.eval(unit(f.n, e, k))
            else:
                k, gain = search(f, y, e, k_cap, threshold, log)
            if k >= 1:
                lazy_bounds_before_step(bounds, probes, e, k, lattice, eps, dr)
                probes.clear()
                y[e] += k
                f_y = f.eval(y) if skip else None
                steps.append((threshold, e, k, gain, True))
    return y, steps


def equivalence_instances():
    """(oracle factory, cap, budget) triples: 48 seeded DR draws plus the non-DR tables."""
    cases = []
    for seed in range(24):
        for make in (
            lambda s=seed: random_separable_concave(s, 2 + s % 4, 60),
            lambda s=seed: random_budget_allocation(s, 2 + s % 4, 4, 60),
        ):
            caps = tuple(int(c) for c in make().box)
            cases.append((make, caps, 1 + (seed * 7) % (2 * sum(caps))))
    for name in sorted(NON_DR_TABLES):
        make = lambda t=name: make_lattice_non_dr(NON_DR_TABLES[t])
        caps = tuple(int(c) for c in make().box)
        for r in (1, 2, sum(caps)):
            cases.append((make, caps, r))
    return cases


def query_scale_instances():
    """(oracle factory, cap, budget) at query-scaling scale: n = 16, cap 1024, budget 32."""
    cases = []
    for seed in range(2):
        rng = np.random.default_rng([seed, 16])
        coeffs = rng.uniform(0.5, 2.0, size=16)
        powers = rng.choice([0.3, 0.5, 0.7, 1.0], size=16)
        edges = [(s, int(t), float(rng.uniform(0.05, 0.3)))
                 for s in range(16) for t in rng.choice(4, size=2, replace=False)]
        cases.append((lambda c=coeffs, p=powers: make_separable_concave(c, p, [1024] * 16),
                      (1024,) * 16, 32))
        cases.append((lambda e=edges: make_budget_allocation(e, [1024] * 16), (1024,) * 16, 32))
    return cases


def memo_reads(points):
    """The points a solve reading f through a memo sends to f, given a reference's evaluations.

    Each distinct point once, in the order of its first evaluation, except
    0: a memo starts out holding f(0), which the oracle read uncounted.
    """
    return [p for p in dict.fromkeys(points) if any(p)]


def test_sweeps_match_reference():
    # the solvers return the reference's points and traces, without the
    # skip; reading f through a memo and cached rays, they evaluate the
    # lazy reference sweep's points in the order of its first evaluation
    # of each.  The DR solves call f less often than the lazy sweep with
    # the bisection from the middle that the exponential search replaced
    cases = equivalence_instances()
    assert len(cases) >= 50
    skipped = calls = bisection_calls = 0
    for make, caps, r in cases + query_scale_instances():
        cst = CardinalityConstraint(caps, r)
        for lattice, solve in ((False, maximize_dr_cardinality), (True, maximize_lattice_cardinality)):
            f, points = recording(make())
            y, trace = solve(f, cst, SolverConfig(0.1))
            ref_y, ref_steps = reference_sweep(make(), cst, SolverConfig(0.1), lattice)
            assert list(y) == list(ref_y)
            got = [(s.threshold, s.element, s.step, s.gain, s.accepted) for s in trace.steps]
            assert got == ref_steps
            lazy, lazy_points = recording(make())
            lazy_y, lazy_steps = reference_sweep(lazy, cst, SolverConfig(0.1), lattice, skip=True)
            assert list(lazy_y) == list(y) and lazy_steps == got
            assert points == memo_reads(lazy_points)
            skipped += trace.skipped
            if not lattice:
                old, old_points = recording(make())
                old_y, old_steps = reference_sweep(old, cst, SolverConfig(0.1), lattice, skip=True,
                                                   search=reference_bisection)
                if old.meta["dr_submodular"]:  # on a non-DR table the two searches may differ
                    assert list(old_y) == list(y) and old_steps == got
                calls += f.calls
                bisection_calls += len(memo_reads(old_points))
    assert skipped > 0
    assert calls < bisection_calls


def reference_greedy_knapsack(f, inst, x0, config, skip=False,
                              search=reference_max_step_with_gain):
    """greedy_knapsack as it was before its rays, searching on f itself.

    Each step is capped at the budget left, so every step fits.  ``skip``
    adds the lazy bounds of the DR sweep; ``search`` is the step search.
    """
    cap = inst.cap_vector()
    w = inst.weight_vector()
    x = as_lattice_point(x0, f.n)
    eps = config.effective
    steps = []
    if not cap.any():
        return x, steps
    d = max((f.eval(unit(f.n, e)) / w[e] for e in range(f.n) if cap[e] >= 1), default=0.0)
    if d <= 0:
        return x, steps
    spent = float(w @ x)
    bounds, probes, f_y = {}, {}, None
    for threshold in threshold_schedule(d, eps * d * float(w.min()), eps):
        for e in range(f.n):
            k_cap = min(int(cap[e] - x[e]), int((1.0 + BUDGET_TOL - spent) // w[e]))
            if k_cap <= 0:
                continue
            if skip and lazy_skip(bounds, e, w[e] * threshold, f_y):
                continue
            log = probes.setdefault(e, {})
            k, gain = search(f, x, e, k_cap, w[e] * threshold, log)
            if k < 1:
                continue
            lazy_bounds_before_step(bounds, probes, e, k, False, eps)
            probes.clear()
            x[e] += k
            spent += k * w[e]
            f_y = f.eval(x) if skip else None
            steps.append((threshold, e, k, gain, True))
    return x, steps


def budget_bound_steps(inst, x0, trace):
    """The steps of ``trace`` from x0 whose k is the budget left, below e's room.

    Each is a visit where the budget term of k_cap binds and the search
    takes the whole cap.
    """
    w, cap, x = inst.weights, inst.cap, x0.tolist()
    spent, count = float(inst.weight_vector() @ x0), 0
    for s in trace.steps:
        e = s.element
        count += s.step == int((1.0 + BUDGET_TOL - spent) // w[e]) < cap[e] - x[e]
        x[e] += s.step
        spent += s.step * w[e]
    return count


def test_greedy_knapsack_probes_the_reference_points_in_order():
    # and calls f less often than the lazy solve with the bisection from
    # the middle that the exponential search replaced
    cases = equivalence_instances() + query_scale_instances()
    capped = skipped = calls = bisection_calls = 0
    for make, caps, r in cases:
        weights = [1.0 + e % 3 for e in range(len(caps))]
        inst = KnapsackInstance.from_raw(weights, 3.0 * r, caps)
        f, points = recording(make())
        x, trace = greedy_knapsack(f, inst, zeros(len(caps)), SolverConfig(0.1))
        ref_x, ref_steps = reference_greedy_knapsack(make(), inst, zeros(len(caps)), SolverConfig(0.1))
        assert list(x) == list(ref_x)
        assert [(s.threshold, s.element, s.step, s.gain, s.accepted) for s in trace.steps] == ref_steps
        lazy, lazy_points = recording(make())
        lazy_x, lazy_steps = reference_greedy_knapsack(lazy, inst, zeros(len(caps)), SolverConfig(0.1),
                                                       skip=True)
        assert list(lazy_x) == list(x) and lazy_steps == ref_steps
        assert points == memo_reads(lazy_points)
        capped += budget_bound_steps(inst, zeros(len(caps)), trace)
        skipped += trace.skipped
        old, old_points = recording(make())
        old_x, old_steps = reference_greedy_knapsack(old, inst, zeros(len(caps)), SolverConfig(0.1),
                                                     skip=True, search=reference_bisection)
        if old.meta["dr_submodular"]:  # on a non-DR table the two searches may differ
            assert list(old_x) == list(x) and old_steps == ref_steps
        calls += f.calls
        bisection_calls += len(memo_reads(old_points))
    assert capped > 0  # the budget left caps some steps
    assert skipped > 0
    assert calls < bisection_calls


def test_cardinality_sweep_draws_no_level_after_the_budget_is_spent(monkeypatch):
    # once a step spends the budget every later visit has no room, so the
    # sweep ends there; a solve that never fills it draws every level,
    # unless no element has room left, when it ends at its last step too
    schedules = []  # the levels drawn from each schedule, the sweep's first

    def recording_schedule(*args):
        drawn = []
        schedules.append(drawn)
        for level in threshold_schedule(*args):
            drawn.append(level)
            yield level

    monkeypatch.setattr(cardinality, "threshold_schedule", recording_schedule)
    filled = roomless = 0
    for make, caps, r in equivalence_instances() + query_scale_instances():
        cst = CardinalityConstraint(caps, r)
        for solve in (maximize_dr_cardinality, maximize_lattice_cardinality):
            schedules.clear()
            f = make()
            y, trace = solve(f, cst, SolverConfig(0.1))
            drawn = schedules[0]
            # an element has room left if it is below its cap and its top value is positive
            top = 1 if solve is maximize_dr_cardinality else r
            room_left = any(y[e] < c and f.eval(unit(len(caps), e, min(c, top))) > 0
                            for e, c in enumerate(caps))
            if total(y) == r:
                filled += 1
                assert drawn[-1] == trace.steps[-1].threshold
            elif room_left:
                assert drawn == list(threshold_schedule(drawn[0], 0.1 / r * drawn[0], 0.1))
            else:
                roomless += 1
                assert drawn[-1] == trace.steps[-1].threshold
    assert filled > 0 and roomless > 0


def equivalence_knapsack(caps, r):
    """The knapsack of the probe-order test: weights 1, 2, 3, ... over budget 3r."""
    return KnapsackInstance.from_raw([1.0 + e % 3 for e in range(len(caps))], 3.0 * r, caps)


def test_every_greedy_skips_visits_at_query_scale():
    # trace.skipped counts the visits the lazy bounds skip; the report has
    # no column for it
    solvers = {
        "dr": lambda f, caps, r: maximize_dr_cardinality(
            f, CardinalityConstraint(caps, r), SolverConfig(0.1)),
        "lattice": lambda f, caps, r: maximize_lattice_cardinality(
            f, CardinalityConstraint(caps, r), SolverConfig(0.1)),
        "knapsack": lambda f, caps, r: greedy_knapsack(
            f, equivalence_knapsack(caps, r), zeros(len(caps)), SolverConfig(0.1)),
    }
    for name, solve in solvers.items():
        skipped = [solve(make(), caps, r)[1].skipped for make, caps, r in query_scale_instances()]
        assert sum(skipped) > 0, name


def test_lazy_bounds_on_a_hand_ray():
    ray = {1: 2.0, 2: 2.5, 4: 3.0, 5: 3.2}
    # each rule's bound, read off the rule on a ray that holds every k it
    # probes.  DR: the gain at the smallest probe; after a step of 2 along
    # e, also f(e | y + 2e) = g(3) - g(2), here unprobed, and after a step
    # of 4, g(5) - g(4); the DR level rule's is over 1 - eps
    assert cardinality._bisection_rule(dict(ray), 5, 0.1, 2.5) == (0, 0.0, 2.0)
    assert cardinality._bisection_rule(dict(ray), 2, 0.1, 1.0) == (2, 2.5, 2.0)
    assert cardinality._bisection_rule(dict(ray), 5, 0.1, 0.7) == (4, 3.0, 3.2 - 3.0)
    assert cardinality._dr_level_rule(dict(ray), 5, 0.5, 5.0) == (0, 0.0, 4.0)
    # lattice: max(2/1, 2.5/2, 3/3, 3.2/5) over 1 - eps (at k_cap = 0 the
    # scan reads nothing), and no bound once e itself has stepped
    assert cardinality._level_rule(dict(ray), 0, 0.5, 1.0) == (0, 0.0, 4.0)
    assert cardinality._level_rule(dict(ray), 1, 0.5, 1.0) == (1, 2.0, None)
    # k_cap = 0: no probe, and the DR bound is inf
    for rule in (cardinality._bisection_rule, cardinality._dr_level_rule):
        empty = CountingRay([0.0, 1.0])
        assert rule(empty, 0, 0.5, 1.0) == (0, 0.0, math.inf) and len(empty) == 0


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_greedy_knapsack_stays_within_its_call_bound(eps):
    # greedy_knapsack's docstring: at most 1 + n + L n + 2 s floor(log2 m)
    # calls, s the steps taken, L <= 1 + ln(1 / (eps w_min)) / eps
    # levels, m = max_e c_e; and within the bisection's former bound
    # 1 + n + L n ceil(log2(m + 1))
    for make, caps, r in equivalence_instances() + query_scale_instances():
        inst = equivalence_knapsack(caps, r)
        f, points = recording(make())
        config = SolverConfig(eps)
        _, trace = greedy_knapsack(f, inst, zeros(len(caps)), config)
        n, eff, m = len(caps), config.effective, max(caps)
        levels = 1 + math.log(1 / (eff * min(inst.weights))) / eff
        assert 0 < len(points) <= 1 + n + levels * n * math.ceil(math.log2(m + 1))
        assert len(points) <= 1 + n + levels * n + 2 * len(trace.steps) * math.floor(math.log2(m))


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_dr_cardinality_stays_within_its_call_bound(eps):
    # maximize_dr_cardinality's docstring: at most n + L n + 2 s floor(log2 m)
    # calls, s the steps taken, L <= 1 + ln(r / eps) / eps levels,
    # m = min(max_e c_e, r)
    for make, caps, r in equivalence_instances() + query_scale_instances():
        f = make()
        config = SolverConfig(eps)
        _, trace = maximize_dr_cardinality(f, CardinalityConstraint(caps, r), config)
        n, eff, m = len(caps), config.effective, min(max(caps), r)
        levels = 1 + math.log(r / eff) / eff
        assert f.calls <= n + levels * n + 2 * len(trace.steps) * math.floor(math.log2(m))


def test_ray_reads_f_of_y_once_and_each_step_at_most_once():
    base = make_separable_concave([1.0, 2.0, 0.5], [0.5, 1.0, 0.7], [8, 8, 8])
    f, points = recording(base)
    y = np.array([2, 1, 0], dtype=np.int64)
    ray = _PointMemo(f).rays(y)(1)
    assert points == [y.tobytes()] and f.calls == 1
    y[0] = 7  # the ray keeps its own copy of y
    for k in (3, 1, 3, 5, 1, 7, 5, 0):
        point = np.array([2, 1 + k, 0], dtype=np.int64)
        assert ray[k] == base.eval(point) - base.eval(np.array([2, 1, 0]))
    # k = 0 is y itself, which the memo already holds
    want = [np.array([2, 1 + k, 0], dtype=np.int64).tobytes() for k in (3, 1, 5, 7)]
    assert points[1:] == want and f.calls == 5
    # a search on a ray that holds its probes makes no call
    first = _max_step_with_gain(ray, 7, 0.5)
    calls = f.calls
    assert _max_step_with_gain(ray, 7, 0.5) == first and f.calls == calls


def eval_error(f, x):
    """The message of the ValueError that ``f.eval(x)`` raises."""
    with pytest.raises(ValueError) as info:
        f.eval(x)
    return str(info.value)


def test_ray_probe_outside_the_box_raises_evals_error_at_no_cost():
    # fn itself accepts any point, so only the oracle's checks can reject one
    f = ValueOracle(lambda x: float(x.sum()), np.array([3, 3]))
    ray = _PointMemo(f).rays(np.array([1, 2]))(1)
    assert ray[1] == 1.0 and f.calls == 2
    for k, point in ((2, [1, 4]), (-3, [1, -1]), (50, [1, 52])):
        message = eval_error(f, np.array(point))
        with pytest.raises(ValueError) as info:
            ray[k]
        assert str(info.value) == message and k not in ray
        assert f.calls == 2
    # the entry the ray calls rejects the same points the same way
    with pytest.raises(ValueError, match=re.escape(eval_error(f, np.array([1, 4])))):
        f.eval_along(np.array([1, 4]), 1)
    assert f.calls == 2
    # a search whose largest step leaves the box stops at its first probe
    g = ValueOracle(lambda x: float(x.sum()), np.array([4]))
    with pytest.raises(ValueError, match="outside box"):
        binary_search_lattice(g, 0, 0.5, 9, 0.1)
    assert g.calls == 0


@pytest.mark.parametrize(
    "y",
    [np.array([1.0, 0.0]), np.array([1, 0, 0]), np.array([0, 4]), np.array([-1, 0]),
     np.array([0.0, 0.0])],
    ids=["float_dtype", "wrong_shape", "above_the_box", "negative", "float_zeros"],
)
def test_ray_on_a_bad_y_raises_before_any_call(y):
    # the probes of a ray on coordinate 1 check only that coordinate, and a
    # ray does not check its y, so y's ray factory must reject a y that is
    # bad elsewhere when it is made, before it reads f(y); float zeros have
    # the bytes of the int zeros, so the memo holds their f and only the
    # factory's own check rejects them
    f, points = recording(ValueOracle(lambda x: float(x.sum()), np.array([3, 3])))
    message = eval_error(f, y)
    with pytest.raises(ValueError) as info:
        _PointMemo(f).rays(y)
    assert str(info.value) == message
    assert f.calls == 0 and points == []


def logged_rays(monkeypatch) -> tuple[list, list]:
    """Patch ``_PointMemo.rays`` to log each factory's y and each ray it makes.

    Returns (factories, rays): y's bytes for each factory made, and
    (y bytes, e, ray) for each ray a factory made.
    """
    factories, rays = [], []
    real = cardinality._PointMemo.rays

    def logged(memo, y):
        key, factory = y.tobytes(), real(memo, y)
        factories.append(key)

        def ray_of(e):
            rays.append((key, e, factory(e)))
            return rays[-1][2]

        return ray_of

    monkeypatch.setattr(cardinality._PointMemo, "rays", logged)
    return factories, rays


def test_lattice_sweep_scans_each_ray_once(monkeypatch):
    # level-set candidates do not depend on the threshold, so a scan rerun
    # on a (y, e) pair's cached ray reads no point from f again: f reads no
    # point twice.  Every ray a step's factory makes is scanned; a start
    # ray, which holds f(min(c_e, r) e) from the top threshold, is scanned
    # or holds that top k alone.  On DR f no ray is scanned: the
    # exponential search finds the scan's step
    scanned_rays = []
    level_candidates = cardinality._level_candidates

    def counted(val, *args):
        scanned_rays.append(val)
        return level_candidates(val, *args)

    _, rays = logged_rays(monkeypatch)
    monkeypatch.setattr(cardinality, "_level_candidates", counted)
    rerun = 0
    for make, caps, r in equivalence_instances():
        scanned_rays.clear()
        rays.clear()
        f, points = recording(make())
        maximize_lattice_cardinality(f, CardinalityConstraint(caps, r), SolverConfig(0.1))
        start = zeros(len(caps)).tobytes()
        if f.meta["dr_submodular"]:
            assert not scanned_rays and rays
            continue
        assert rays
        scanned = {id(val) for val in scanned_rays}
        for key, e, ray in rays:
            assert id(ray) in scanned or key == start and list(ray) == [min(caps[e], r)]
        assert len(points) == len(set(points))
        rerun += len(scanned_rays) > len(scanned) > 0
    assert rerun > 0  # some scan is rerun on its cached ray


def test_lattice_sweep_on_dr_meta_only_saves_calls():
    # the DR level rule and its bound change no point and no step, and
    # calls only fall; at query scale they fall in total
    def solve(f, caps, r):
        return maximize_lattice_cardinality(f, CardinalityConstraint(caps, r), SolverConfig(0.1))

    saved = {}
    for name, cases in (("equivalence", equivalence_instances()), ("query", query_scale_instances())):
        saved[name] = 0
        for make, caps, r in cases:
            f, built = make(), make()
            if not f.meta["dr_submodular"]:
                continue
            bare = ValueOracle(built._fn, built.box)  # no meta
            y, trace = solve(f, caps, r)
            bare_y, bare_trace = solve(bare, caps, r)
            assert y.tolist() == bare_y.tolist() and trace.steps == bare_trace.steps
            assert f.calls <= bare.calls
            saved[name] += bare.calls - f.calls
    assert saved["query"] > 0


def test_lattice_sweep_gives_an_element_with_no_top_value_no_room():
    # source 1 has no edge, so f(k e_1) = 0 for every k: e_1 gets no room
    # and is never visited, so the DR level rule no longer reads its g(1)
    # on top of the g(4) the top threshold read; with DR meta or without,
    # the solve makes 5 calls: the tops f(4 e_0) and f(4 e_1), then
    # f(e_0), f(2 e_0) and f(3 e_0)
    f = make_budget_allocation([(0, 0, 0.5), (0, 1, 0.3)], [8, 8])
    bare = ValueOracle(f._fn, f.box)
    assert f.meta["dr_submodular"] and not bare.meta
    for g in (f, bare):
        y, trace = maximize_lattice_cardinality(g, CardinalityConstraint((8, 8), 4), SolverConfig(0.1))
        assert y.tolist() == [4, 0] and [(s.element, s.step) for s in trace.steps] == [(0, 1)] * 4
        assert g.calls == 5


def test_dr_sweeps_never_search_a_failed_pair_again_and_fail(monkeypatch):
    # a visit whose search fails parks its element's bound at once, so under
    # the DR search and the DR level rule a later visit of the same (y, e)
    # either clears the threshold or is skipped: no search fails twice on
    # one pair
    sweep = cardinality._sweep
    searches = failed_again = 0

    def counted_sweep(ray_of, y, room, levels, rule, *args):
        failed = set()

        def counted_rule(on, k_cap, eps, threshold):
            nonlocal searches, failed_again
            k, gain, bound = rule(on, k_cap, eps, threshold)
            pair = (y.tobytes(), on._e)
            searches += 1
            if not k:
                failed_again += pair in failed
                failed.add(pair)
            return k, gain, bound

        return sweep(ray_of, y, room, levels, counted_rule, *args)

    monkeypatch.setattr(cardinality, "_sweep", counted_sweep)
    monkeypatch.setattr(knapsack, "_sweep", counted_sweep)
    for make, caps, r in equivalence_instances() + query_scale_instances():
        if not make().meta["dr_submodular"]:
            continue
        cst = CardinalityConstraint(caps, r)
        maximize_dr_cardinality(make(), cst, SolverConfig(0.1))
        maximize_lattice_cardinality(make(), cst, SolverConfig(0.1))
        greedy_knapsack(make(), equivalence_knapsack(caps, r), zeros(len(caps)), SolverConfig(0.1))
    assert searches > 1000 and failed_again == 0


def test_every_greedy_makes_one_ray_per_point_and_element(monkeypatch):
    # the sweep keeps the ray of each (y, e) until a step changes y, and
    # every search runs on the ray it holds for its (y, e); no call count
    # shows this, since the memo absorbs repeated probes.  Every ray a
    # step's factory makes is searched.  A cardinality solve's start rays
    # hold f(top e), read for the top threshold, so a start ray whose element
    # got no visit at y = 0 holds that top k alone
    searched = []
    _, rays = logged_rays(monkeypatch)
    sweep = cardinality._sweep

    def counted_sweep(rays_at, y, room, levels, rule, *args):
        def counted_rule(on, k_cap, eps, threshold):
            searched.append((y.tobytes(), on._e, on))
            return rule(on, k_cap, eps, threshold)

        return sweep(rays_at, y, room, levels, counted_rule, *args)

    monkeypatch.setattr(cardinality, "_sweep", counted_sweep)
    monkeypatch.setattr(knapsack, "_sweep", counted_sweep)
    capped = unsearched = 0
    for make, caps, r in equivalence_instances():
        cst = CardinalityConstraint(caps, r)
        inst = equivalence_knapsack(caps, r)
        start = zeros(len(caps)).tobytes()
        for solve, top in (
            (lambda f: maximize_dr_cardinality(f, cst, SolverConfig(0.1)), lambda e: 1),
            (lambda f: maximize_lattice_cardinality(f, cst, SolverConfig(0.1)),
             lambda e: min(caps[e], r)),
            (lambda f: greedy_knapsack(f, inst, zeros(len(caps)), SolverConfig(0.1)), None),
        ):
            rays.clear()
            searched.clear()
            _, trace = solve(make())
            pairs = [(key, e) for key, e, _ in rays]
            assert len(pairs) == len(set(pairs)) > 0
            made = {(key, e): ray for key, e, ray in rays}
            assert all(made[(key, e)] is on for key, e, on in searched)
            ids = {id(on) for _, _, on in searched}
            for key, e, ray in rays:
                if id(ray) not in ids:
                    assert top is not None and key == start and list(ray) == [top(e)]
                    unsearched += 1
        capped += budget_bound_steps(inst, zeros(len(caps)), trace)  # the knapsack solve's
    assert capped > 0  # the budget left caps some knapsack steps
    assert unsearched > 0  # some start ray is read at its top only


def test_every_greedy_makes_one_ray_factory_per_iterate(monkeypatch):
    # y's factory copies, checks and reads y once for all the rays of y, and
    # the sweep makes it at the first visit after a step: at most one per
    # iterate, and none at an iterate whose visits are all skipped
    factories, rays = logged_rays(monkeypatch)
    shared = 0
    for make, caps, r in equivalence_instances():
        cst = CardinalityConstraint(caps, r)
        inst = equivalence_knapsack(caps, r)
        for solve in (
            lambda f: maximize_dr_cardinality(f, cst, SolverConfig(0.1)),
            lambda f: maximize_lattice_cardinality(f, cst, SolverConfig(0.1)),
            lambda f: greedy_knapsack(f, inst, zeros(len(caps)), SolverConfig(0.1)),
        ):
            factories.clear()
            rays.clear()
            _, trace = solve(make())
            y = zeros(len(caps))
            iterates = [y.tobytes()]
            for step in trace.steps:
                y[step.element] += step.step
                iterates.append(y.tobytes())
            assert len(factories) == len(set(factories)) > 0
            assert set(factories) <= set(iterates)
            assert {key for key, _, _ in rays} == set(factories)
            shared += len(rays) - len(factories)
    assert shared > 0  # some factory makes more than one ray


def test_lazy_skip_totals_over_the_cardinality_pins():
    # which visits the sweep skips, and so its calls, summed over 256
    # solves: both cardinality solvers at two epsilons on every
    # equivalence and query-scale instance
    solves = skipped = calls = 0
    for make, caps, r in equivalence_instances() + query_scale_instances():
        cst = CardinalityConstraint(caps, r)
        for solve in (maximize_dr_cardinality, maximize_lattice_cardinality):
            for eps in (0.1, 0.25):
                f = make()
                _, trace = solve(f, cst, SolverConfig(eps))
                solves, skipped, calls = solves + 1, skipped + trace.skipped, calls + f.calls
    assert (solves, skipped, calls) == (256, 19_568, 11_476)


def test_lazy_skip_margin_reads_the_larger_of_bar_and_abs_f():
    # Separable and DR.  Element 2 steps at the levels 1, 0.5 and 0.25
    # (eps = 1/2), so |f(y)| = 1.5 when elements 0 and 1 meet the 0.25 bar
    # with their bounds f(e | 0) from level 1.  Element 0's lies 2^-30 below
    # the bar: by more than 1e-9 * bar, by less than 1e-9 * |f(y)|.  Element
    # 1's lies 2^-33 below: by less than 1e-9 * bar.  So neither is skipped
    # there, and each probes its ray before element 2 steps again.  A margin
    # read from the bar alone, or from min(bar, |f(y)|), skips element 0
    # there (3 skips, 8 calls); no margin (a bound <= bar skips) moves the
    # steps too (5 skips, 7 calls).
    table = (np.array([0.0, 0.25 - 2.0**-30])[:, None, None]
             + np.array([0.0, 0.25 - 2.0**-33])[None, :, None]
             + np.array([0.0, 1.0, 1.5, 1.75])[None, None, :])
    f = make_lattice_non_dr(table)
    assert f.meta["dr_submodular"]
    y, trace = maximize_dr_cardinality(f, CardinalityConstraint([1, 1, 3], 5), SolverConfig(0.5))
    assert [(s.threshold, s.element, s.step) for s in trace.steps] == [
        (1.0, 2, 1), (0.5, 2, 1), (0.25, 2, 1), (0.125, 0, 1), (0.125, 1, 1)]
    assert (trace.skipped, f.calls) == (2, 9)


def test_binary_search_lattice_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k_max = int(rng.integers(0, 65))
        table = random_monotone_steps(rng, max(k_max, 1))
        theta = float(rng.uniform(0.05, 1.2))
        eps = float(rng.choice([0.5, 0.25, 0.1]))
        g = single_coordinate(lambda k: table[k], max(k_max, 1))
        ref_g = single_coordinate(lambda k: table[k], max(k_max, 1))
        got = binary_search_lattice(g, 0, theta, k_max, eps)
        assert got == reference_binary_search_lattice(ref_g, 0, theta, k_max, eps)
        assert g.calls == ref_g.calls


def test_point_memo_answers_each_point_once_across_its_paths():
    # scalar reads and ray probes share one value per point
    f = ValueOracle(lambda x: float(x.sum()), np.array([3, 3]))
    memo = cardinality._PointMemo(f)
    x, y = np.array([1, 2]), np.array([2, 2])
    assert memo.eval(x) == 3.0
    assert memo.eval(x) == 3.0
    assert f.calls == 1
    assert memo.eval(y) == 4.0
    assert f.calls == 2
    ray = memo.rays(x)(0)  # f(x) is a hit
    assert ray[1] == 1.0 and ray[2] == 2.0  # x + e_0 == y is a hit too
    assert f.calls == 3
    assert memo.eval(np.array([3, 2])) == 5.0  # x + 2 e_0, read by the ray
    assert f.calls == 3


# -- the sweep before its per-visit bookkeeping was cut --------------------------
# Literal copies of the sweep, its rays, its two DR rules and the
# cardinality set-up as they were before visits, rays, probes and set-ups
# were made cheaper: a lambda ray factory, a ray that calls dict.__init__
# and int(y[e]), a skip count kept on the trace, and no start rays: the
# tops are read by scalar evaluation alone.  The test below holds the
# solvers to them bit for bit.


class _old_Ray(dict):
    __slots__ = ("_values", "_f", "_y", "_e", "_y_e", "_base")

    def __init__(self, memo, y, e, base):
        super().__init__()
        self._values, self._f = memo._values, memo._f
        self._y, self._e, self._y_e, self._base = y, e, int(y[e]), base

    def __missing__(self, k):
        point = self._y.copy()
        point[self._e] = self._y_e + k
        key = point.tobytes()
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._f.eval_along(point, self._e)
        value = self[k] = value - self._base
        return value

    def value(self, k):
        point = self._y.copy()
        point[self._e] = self._y_e + k
        return self._values[point.tobytes()]


def _old_rays(memo, y):
    y = y.copy()
    memo._f._validate(y)
    base = memo(y)
    return lambda e: _old_Ray(memo, y, e, base)


def _old_sweep(rays_at, y, room, levels, rule, eps, scale, spent, limit):
    trace = cardinality.GreedyTrace()
    n = len(room)
    bounds = [math.inf] * n
    rays, ray_of = [None] * n, None
    f_abs = 0.0

    def k_caps():
        return [min(room_e, int((limit - spent) // s_e)) for room_e, s_e in zip(room, scale)]

    caps = k_caps()
    for threshold in levels:
        for e in range(n):
            k_cap = caps[e]
            if k_cap <= 0:
                continue
            bar = scale[e] * threshold
            if bounds[e] < bar - cardinality.SKIP_MARGIN * (bar if bar > f_abs else f_abs):
                trace.skipped += 1
                continue
            ray = rays[e]
            if ray is None:
                ray_of = ray_of or rays_at(y)
                ray = rays[e] = ray_of(e)
            k, gain, bound = rule(ray, k_cap, eps, bar)
            bounds[e] = math.inf if bound is None else min(bound, bounds[e])
            if k < 1:
                continue
            f_abs = abs(ray.value(k))
            y[e] += k
            room[e] -= k
            spent += k * scale[e]
            trace.add(threshold, e, k, gain)
            if max(caps := k_caps()) <= 0:
                return y, trace
            rays, ray_of = [None] * n, None
    return y, trace


def _old_cardinality_greedy(f, constraint, config, top, rule):
    cap = constraint.cap
    if len(cap) != f.n:
        raise ValueError("constraint dimension does not match oracle")
    if np.any(constraint.cap_vector() > f.box):
        raise ValueError("constraint cap exceeds the oracle box")
    eps = config.effective
    r = constraint.budget
    if r == 0:
        return zeros(f.n), cardinality.GreedyTrace()
    memo = _PointMemo(f)
    tops = [memo(unit(f.n, e, top(c_e, r))) if c_e >= 1 else 0.0 for e, c_e in enumerate(cap)]
    room = [c_e if t > 0 else 0 for c_e, t in zip(cap, tops)]
    d = max(tops, default=0.0)
    levels = threshold_schedule(d, (eps / r) * d, eps)
    return _old_sweep(lambda y: _old_rays(memo, y), zeros(f.n), room, levels, rule, eps,
                      [1] * f.n, 0, r)


def _old_binary_search_lattice(g, e, theta, k_max, epsilon):
    along = _old_Ray(_PointMemo(g), unit(g.n, e, 0), e, 0.0)
    return cardinality._level_rule(along, k_max, epsilon, theta)[0] or None


def test_sweeps_match_the_sweep_before_its_bookkeeping_was_cut():
    # each solver asks f the same points in the same order as the old code,
    # and returns the same y and trace, every float compared by repr (so
    # bit for bit), with the same skip count and calls; the lattice solver
    # runs with and without its DR meta, and both run on f raised off
    # f(0) = 0.0.  binary_search_lattice runs on each element of each
    # instance at two thresholds
    def run(solve, base):
        f, points = recording(base)
        y, trace = solve(f)
        return points, repr(trace), f.calls, y.tolist()

    dr, lattice = (lambda c_e, r: 1, cardinality._bisection_rule), (min, None)
    bare = lambda f: ValueOracle(f._fn, f.box)  # no meta
    # f(0) = 2^-40, within the oracle's tolerance: every gain is a difference
    raised = lambda f: ValueOracle(lambda x: f._fn(x) + 2.0**-40, f.box, meta=f.meta)
    solves = skipped = searches = 0
    for make, caps, r in equivalence_instances() + query_scale_instances():
        cst = CardinalityConstraint(caps, r)
        for eps in (0.1, 0.25, 0.5):
            config = SolverConfig(eps)
            for (top, rule), solve, view in (
                (dr, maximize_dr_cardinality, lambda f: f),
                (lattice, maximize_lattice_cardinality, lambda f: f),
                (lattice, maximize_lattice_cardinality, bare),
                (dr, maximize_dr_cardinality, raised),
                (lattice, maximize_lattice_cardinality, raised),
            ):
                f = view(make())
                if rule is None:
                    dr_meta = f.meta.get("dr_submodular")
                    rule = cardinality._dr_level_rule if dr_meta else cardinality._level_rule
                new = run(lambda g: solve(g, cst, config), f)
                old = run(lambda g: _old_cardinality_greedy(g, cst, config, top, rule), f)
                assert new == old
                solves += 1
                skipped += "skipped=0)" not in new[1]
            f = make()
            for e, c_e in enumerate(caps):
                if c_e < 1:
                    continue
                top = f.eval(unit(f.n, e, c_e))
                for theta in (top / c_e if top > 0 else 1.0, 2.0 * top if top > 0 else 0.5):
                    got = []
                    for search in (binary_search_lattice, _old_binary_search_lattice):
                        g, points = recording(f)
                        got.append((search(g, e, theta, c_e, eps), points, g.calls))
                    assert got[0] == got[1]
                    searches += 1
    assert solves > 500 and skipped > 100 and searches > 1000
