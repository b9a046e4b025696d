import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticemax import cardinality
from latticemax.bruteforce import brute_force_opt
from latticemax.cardinality import (
    CardinalityConstraint,
    SolverConfig,
    _marginal_along,
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
)
from latticemax.knapsack import BUDGET_TOL, KnapsackInstance, greedy_knapsack, maximize_knapsack

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


def test_max_step_dr_examples():
    fn = capped_modular([2.0], [1])
    f = ValueOracle(fn, np.array([5]))
    y = np.zeros(1, dtype=np.int64)
    assert _max_step_with_gain(_marginal_along(_PointMemo(f), y, 0), 0, 2.0)[0] == 0
    assert _max_step_with_gain(_marginal_along(_PointMemo(f), y, 0), 5, 2.0)[0] == 1
    assert _max_step_with_gain(_marginal_along(_PointMemo(f), y, 0), 5, 2.5)[0] == 0
    with pytest.raises(ValueError):
        _max_step_with_gain(_marginal_along(_PointMemo(f), y, 0), -1, 2.0)


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
        ray = _marginal_along(_PointMemo(f), np.array(y, dtype=np.int64), e)
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


@given(st.integers(min_value=0, max_value=40), st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=80, deadline=None)
def test_max_step_dr_prefix_property(cap, theta):
    # concave marginals: sqrt steps; compare against the scan reference
    fn = lambda x: float(math.sqrt(x[0]))
    f = ValueOracle(fn, np.array([max(cap, 1)]))
    y = np.zeros(1, dtype=np.int64)
    got = _max_step_with_gain(_marginal_along(_PointMemo(f), y, 0), cap, theta)[0]
    want = scan_max_step(lambda v: math.sqrt(v[0]), y, 0, cap, theta)
    assert got == want


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
    """An oracle equal to ``base`` that logs every point it evaluates."""
    points: list[bytes] = []

    def fn(x):
        points.append(np.asarray(x, dtype=np.int64).tobytes())
        return base.eval(x)

    f = ValueOracle(fn, base.box)
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
    for solve in solves:
        for r in (1, 3, sum(caps)):
            f, points = recording(base)
            solve(f, r)
            assert points, "the solve made no oracle call"
            assert len(points) == len(set(points)) == f.calls


# -- same results as the sweeps before the per-solve memo -----------------------
# Literal copies of the step searches and sweeps that evaluated f(y) afresh
# for every step search and built f.shifted(y) for every lattice step.


def reference_max_step_with_gain(f, y, e, k_max, threshold):
    if k_max == 0:
        return 0, 0.0
    base = f.eval(y)
    step = unit(f.n, e)
    lo, hi = 0, k_max
    gain_at_lo = 0.0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        gain = f.eval(y + mid * step) - base
        if gain >= mid * threshold:
            lo, gain_at_lo = mid, gain
        else:
            hi = mid - 1
    return lo, gain_at_lo


def reference_binary_search_lattice(g, e, theta, k_max, epsilon):
    if k_max == 0:
        return None
    step = unit(g.n, e)
    memo = {}

    def val(k):
        if k not in memo:
            memo[k] = g.eval(k * step)
        return memo[k]

    if val(k_max) <= 0:
        return None
    lo, hi = 1, k_max
    while lo < hi:
        mid = (lo + hi) // 2
        if val(mid) > 0:
            hi = mid
        else:
            lo = mid + 1
    k_min = lo
    g_min, g_max = val(k_min), val(k_max)
    for level in threshold_schedule(g_max, (1.0 - epsilon) * g_min, epsilon):
        lo, hi = k_min, k_max
        while lo < hi:
            mid = (lo + hi) // 2
            if val(mid) >= level:
                hi = mid
            else:
                lo = mid + 1
        if val(lo) >= (1.0 - epsilon) * lo * theta:
            return lo
    return None


def reference_sweep(f, constraint, config, lattice):
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
    for threshold in threshold_schedule(d, (eps / r) * d, eps):
        for e in range(f.n):
            k_cap = min(int(cap[e] - y[e]), r - total(y))
            if k_cap <= 0:
                continue
            if lattice:
                view = f.shifted(y)
                k = reference_binary_search_lattice(view, e, threshold, k_cap, eps)
                if k is None:
                    continue
                gain = view.eval(unit(f.n, e, k))
            else:
                k, gain = reference_max_step_with_gain(f, y, e, k_cap, threshold)
            if k >= 1:
                y[e] += k
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


def first_occurrences(points):
    return list(dict.fromkeys(points))


def test_sweeps_match_reference():
    # the solvers return the reference's points and traces; reading f
    # through a memo and cached rays, they evaluate the reference sweep's
    # points in the order of its first evaluation of each
    cases = equivalence_instances()
    assert len(cases) >= 50
    for make, caps, r in cases + query_scale_instances():
        cst = CardinalityConstraint(caps, r)
        for lattice, solve in ((False, maximize_dr_cardinality), (True, maximize_lattice_cardinality)):
            f, points = recording(make())
            y, trace = solve(f, cst, SolverConfig(0.1))
            ref, ref_points = recording(make())
            ref_y, ref_steps = reference_sweep(ref, cst, SolverConfig(0.1), lattice)
            assert list(y) == list(ref_y)
            got = [(s.threshold, s.element, s.step, s.gain, s.accepted) for s in trace.steps]
            assert got == ref_steps
            assert points == first_occurrences(ref_points)


def reference_greedy_knapsack(f, inst, x0, config):
    """Literal copy of greedy_knapsack before its rays, searching on f itself."""
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
    ceiling = cap.copy()
    spent = float(w @ x)
    for threshold in threshold_schedule(d, eps * d * float(w.min()), eps):
        for e in range(f.n):
            k_cap = int(ceiling[e] - x[e])
            if k_cap <= 0:
                continue
            k, gain = reference_max_step_with_gain(f, x, e, k_cap, w[e] * threshold)
            if k < 1:
                continue
            if spent + k * w[e] <= 1.0 + BUDGET_TOL:
                x[e] += k
                spent += k * w[e]
                steps.append((threshold, e, k, gain, True))
            else:
                ceiling[e] = x[e] + k - 1
                steps.append((threshold, e, k, gain, False))
    return x, steps


def test_greedy_knapsack_probes_the_reference_points_in_order():
    cases = equivalence_instances() + query_scale_instances()
    rejected = 0
    for make, caps, r in cases:
        weights = [1.0 + e % 3 for e in range(len(caps))]
        inst = KnapsackInstance.from_raw(weights, 3.0 * r, caps)
        f, points = recording(make())
        x, trace = greedy_knapsack(f, inst, zeros(len(caps)), SolverConfig(0.1))
        ref, ref_points = recording(make())
        ref_x, ref_steps = reference_greedy_knapsack(ref, inst, zeros(len(caps)), SolverConfig(0.1))
        assert points == first_occurrences(ref_points)
        assert list(x) == list(ref_x)
        assert [(s.threshold, s.element, s.step, s.gain, s.accepted) for s in trace.steps] == ref_steps
        rejected += sum(not step[4] for step in ref_steps)
    assert rejected > 0  # the cases reach the rejection branch, which keeps the rays


def equivalence_knapsack(caps, r):
    """The knapsack of the probe-order test: weights 1, 2, 3, ... over budget 3r."""
    return KnapsackInstance.from_raw([1.0 + e % 3 for e in range(len(caps))], 3.0 * r, caps)


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_greedy_knapsack_stays_within_its_call_bound(eps):
    # greedy_knapsack's docstring: at most 1 + n + L n ceil(log2(m + 1))
    # calls, L <= 1 + ln(1 / (eps w_min)) / eps levels, m = max_e c_e
    for make, caps, r in equivalence_instances() + query_scale_instances():
        inst = equivalence_knapsack(caps, r)
        f, points = recording(make())
        config = SolverConfig(eps)
        greedy_knapsack(f, inst, zeros(len(caps)), config)
        n, eff = len(caps), config.effective
        levels = 1 + math.log(1 / (eff * min(inst.weights))) / eff
        assert 0 < len(points) <= 1 + n + levels * n * math.ceil(math.log2(max(caps) + 1))


def test_ray_reads_f_of_y_once_and_each_step_at_most_once():
    base = make_separable_concave([1.0, 2.0, 0.5], [0.5, 1.0, 0.7], [8, 8, 8])
    f, points = recording(base)
    y = np.array([2, 1, 0], dtype=np.int64)
    ray = _marginal_along(_PointMemo(f), y, 1)
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
    ray = _marginal_along(_PointMemo(f), np.array([1, 2]), 1)
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
    [np.array([1.0, 0.0]), np.array([1, 0, 0]), np.array([0, 4]), np.array([-1, 0])],
    ids=["float_dtype", "wrong_shape", "above_the_box", "negative"],
)
def test_ray_on_a_bad_y_raises_before_any_call(y):
    # the probes of a ray on coordinate 1 check only that coordinate, so
    # the ray must reject a y that is bad elsewhere when it is made
    f, points = recording(ValueOracle(lambda x: float(x.sum()), np.array([3, 3])))
    message = eval_error(f, y)
    with pytest.raises(ValueError) as info:
        cardinality._Ray(_PointMemo(f), y, 1, 0.0)
    assert str(info.value) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        _marginal_along(_PointMemo(f), y, 1)
    assert f.calls == 0 and points == []


def test_lattice_sweep_scans_each_ray_once(monkeypatch):
    # level-set candidates do not depend on the threshold, so a (y, e) pair
    # runs its scan once however many levels visit it; no call count shows
    # this, since the ray absorbs repeated probes
    counts = {"rays": 0, "scans": 0}

    def counted(name, wrapped):
        def wrapper(*args):
            counts[name] += 1
            return wrapped(*args)
        return wrapper

    monkeypatch.setattr(cardinality, "_marginal_along", counted("rays", cardinality._marginal_along))
    monkeypatch.setattr(cardinality, "_level_candidates", counted("scans", cardinality._level_candidates))
    for make, caps, r in equivalence_instances():
        counts.update(rays=0, scans=0)
        maximize_lattice_cardinality(make(), CardinalityConstraint(caps, r), SolverConfig(0.1))
        assert counts["scans"] == counts["rays"] > 0


def test_every_greedy_makes_one_ray_per_point_and_element(monkeypatch):
    # the sweep keeps the ray of each (y, e) until a step changes y, and a
    # knapsack rejection keeps e's ray too; no call count shows this, since
    # the memo absorbs repeated probes
    rays = []
    marginal_along = cardinality._marginal_along

    def counted(memo, y, e):
        rays.append((y.tobytes(), e))
        return marginal_along(memo, y, e)

    monkeypatch.setattr(cardinality, "_marginal_along", counted)
    rejected = 0
    for make, caps, r in equivalence_instances():
        cst = CardinalityConstraint(caps, r)
        for solve in (
            lambda f: maximize_dr_cardinality(f, cst, SolverConfig(0.1)),
            lambda f: maximize_lattice_cardinality(f, cst, SolverConfig(0.1)),
            lambda f: greedy_knapsack(f, equivalence_knapsack(caps, r), zeros(len(caps)),
                                      SolverConfig(0.1)),
        ):
            rays.clear()
            _, trace = solve(make())
            assert len(rays) == len(set(rays)) > 0
            rejected += sum(not s.accepted for s in trace.steps)
    assert rejected > 0  # the knapsack solves reach the rejection branch


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


def test_point_memo_batch_sends_each_new_row_once():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(1, 5))
        cap = rng.integers(1, 4, size=n)
        edges = [(s, int(rng.integers(0, 3)), float(rng.uniform(0.1, 0.9))) for s in range(n)]
        f = make_budget_allocation(edges, cap)
        ref = make_budget_allocation(edges, cap)
        memo = cardinality._PointMemo(f)
        seen = set()
        for _ in range(4):
            # few distinct rows, so batches repeat rows within and across calls
            X = rng.integers(0, cap + 1, size=(int(rng.integers(1, 9)), n))
            keys = [row.tobytes() for row in X]
            new = len(set(keys) - seen)
            before = f.calls
            got = memo.eval_batch(X)
            assert f.calls - before == new
            assert got.tobytes() == ref.eval_batch(X).tobytes()
            seen.update(keys)
            before = f.calls
            assert memo.eval_batch(X).tobytes() == got.tobytes()
            assert f.calls == before  # every row a hit: no call at all


def test_point_memo_batch_rejects_an_out_of_box_row_at_no_cost():
    sent = []

    def batch(X):
        sent.append(X.tolist())
        return X.sum(axis=1)

    f = ValueOracle(lambda x: float(x.sum()), np.array([2, 2]), batch_fn=batch)
    memo = cardinality._PointMemo(f)
    memo.eval_batch(np.array([[1, 1]]))
    with pytest.raises(ValueError):
        memo.eval_batch(np.array([[1, 1], [0, 1], [3, 0]]))
    assert f.calls == 1
    # the valid new row of the rejected batch was not kept; new rows go in
    # one call, once each, in first-seen order
    got = memo.eval_batch(np.array([[2, 0], [1, 1], [0, 1], [2, 0], [0, 1]]))
    assert got.tolist() == [2, 2, 1, 2, 1]
    assert f.calls == 3
    assert sent == [[[1, 1]], [[2, 0], [0, 1]]]


def test_point_memo_keeps_scalar_and_batch_values_apart():
    # fn and batch_fn disagree on purpose: neither path may answer the other
    f = ValueOracle(lambda x: float(x.sum()), np.array([3, 3]),
                    batch_fn=lambda X: X.sum(axis=1) + 0.5)
    memo = cardinality._PointMemo(f)
    x = np.array([1, 2])
    assert memo.eval(x) == 3.0
    assert memo.eval_batch(x[None, :]).tolist() == [3.5]
    assert f.calls == 2
    y = np.array([2, 2])
    assert memo.eval_batch(y[None, :]).tolist() == [4.5]
    assert memo.eval(y) == 4.0
    assert f.calls == 4
    assert memo.eval(x) == 3.0 and memo.eval_batch(np.stack([x, y])).tolist() == [3.5, 4.5]
    assert f.calls == 4
