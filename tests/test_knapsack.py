import itertools
import math

import numpy as np
import pytest

from latticemax.bruteforce import brute_force_opt
from latticemax.cardinality import SolverConfig, threshold_schedule
from latticemax.core import ValueOracle, unit, zeros
from latticemax import knapsack
from latticemax.instances import (
    NON_DR_TABLES,
    make_budget_allocation,
    make_lattice_non_dr,
    make_separable_concave,
    random_budget_allocation,
)
from latticemax.knapsack import (
    KnapsackInstance,
    greedy_knapsack,
    increase_support,
    maximize_knapsack,
    partial_enumeration,
)


def modular(weights):
    w = np.asarray(weights, dtype=np.float64)
    return lambda x: float(np.dot(w, x))


def test_instance_validation():
    with pytest.raises(ValueError, match="element 1 must be positive"):
        KnapsackInstance((0.5, 0.0), (2, 2))
    with pytest.raises(ValueError, match="element 0 exceeds"):
        KnapsackInstance((1.2, 0.5), (2, 2))
    with pytest.raises(ValueError):
        KnapsackInstance((0.5,), (2, 2))
    inst = KnapsackInstance.from_raw([2.0, 1.0], 4.0, (3, 3))
    assert inst.weights == (0.5, 0.25)
    with pytest.raises(ValueError):
        KnapsackInstance.from_raw([1.0], 0.0, (2,))


def test_instance_rejects_nan_weight():
    with pytest.raises(ValueError, match="element 1 must be positive, got nan"):
        KnapsackInstance((0.5, math.nan), (2, 2))
    with pytest.raises(ValueError, match="element 0 must be positive, got nan"):
        KnapsackInstance.from_raw([math.nan, 1.0], 4.0, (2, 2))
    with pytest.raises(ValueError, match="element 0 exceeds the budget: inf"):
        KnapsackInstance((math.inf,), (2,))


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
def test_from_raw_rejects_a_budget_that_is_not_finite(budget):
    with pytest.raises(ValueError, match=f"budget must be finite, got {budget}"):
        KnapsackInstance.from_raw([1.0, 2.0], budget, (2, 2))


def test_instance_feasibility():
    inst = KnapsackInstance((0.5, 0.25), (2, 3))
    assert inst.is_feasible(np.array([1, 2]))
    assert not inst.is_feasible(np.array([2, 2]))  # weight 1.5
    assert not inst.is_feasible(np.array([0, 4]))  # above cap
    assert inst.fits(np.array([2, 0]))


def test_greedy_knapsack_frozen_example():
    # modular f with weights (3, 1), w = (0.5, 0.5), c = (2, 2): the greedy
    # packs element 0 fully; d = max marginal density = 3 / 0.5 = 6
    f = ValueOracle(modular([3.0, 1.0]), np.array([2, 2]))
    inst = KnapsackInstance((0.5, 0.5), (2, 2))
    x, trace = greedy_knapsack(f, inst, zeros(2), SolverConfig(0.05, 0))
    assert list(x) == [2, 0]
    assert f.eval(x) == pytest.approx(6.0)
    assert trace.steps[0].threshold == pytest.approx(6.0)
    exact = brute_force_opt(ValueOracle(modular([3.0, 1.0]), np.array([2, 2])), inst)
    assert exact.opt_value == pytest.approx(6.0)
    # later trials on element 1 fail the budget and are recorded
    assert any(not s.accepted for s in trace.steps)


def test_greedy_knapsack_rejects_infeasible_start():
    f = ValueOracle(modular([1.0, 1.0]), np.array([3, 3]))
    inst = KnapsackInstance((0.5, 0.5), (3, 3))
    with pytest.raises(ValueError):
        greedy_knapsack(f, inst, np.array([3, 0]), SolverConfig(0.1, 0))


def test_greedy_knapsack_zero_oracle():
    f = ValueOracle(lambda x: 0.0, np.array([2, 2]))
    inst = KnapsackInstance((0.5, 0.5), (2, 2))
    x, trace = greedy_knapsack(f, inst, zeros(2), SolverConfig(0.1, 0))
    assert list(x) == [0, 0] and not trace.steps


def replay_echo(f_make, inst, trace, x0, eps):
    """Check the average-gain property for steps before the first failure.

    Every accepted step up to the first budget-failed trial must have
    density within (1 - eps) of the best feasible single-unit density.
    """
    f = f_make()
    w = inst.weight_vector()
    cap = inst.cap_vector()
    x = x0.copy()
    for s in trace.steps:
        if not s.accepted:
            break
        base = f.eval(x)
        spent = float(w @ x)
        best_density = 0.0
        for el in range(inst.n):
            if x[el] >= cap[el] or spent + w[el] > 1 + 1e-9:
                continue
            gain1 = f.eval(x + unit(inst.n, el)) - base
            best_density = max(best_density, gain1 / w[el])
        density = s.gain / (s.step * w[s.element])
        assert density >= (1 - eps) * best_density - 1e-9
        x[s.element] += s.step


def test_greedy_knapsack_average_gain_property():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        caps = rng.integers(1, 4, size=n)
        coeffs = rng.uniform(0.3, 2.0, size=n)
        powers = rng.choice([0.5, 1.0], size=n)
        weights = tuple(float(w) for w in rng.choice(np.arange(0.05, 0.55, 0.05), size=n))
        make = lambda: make_separable_concave(coeffs, powers, caps)
        inst = KnapsackInstance(weights, tuple(int(c) for c in caps))
        f = make()
        x, trace = greedy_knapsack(f, inst, zeros(n), SolverConfig(0.1, 0))
        assert inst.is_feasible(x)
        replay_echo(make, inst, trace, zeros(n), 0.1)


def test_greedy_knapsack_ceiling_monotone_via_trace():
    # after a failed trial of k units at element e, x(e) can grow by at
    # most k - 1 more units in the rest of the run
    f = make_separable_concave([2.0, 1.0, 0.5], [1.0, 0.5, 1.0], [3, 3, 3])
    inst = KnapsackInstance((0.4, 0.3, 0.25), (3, 3, 3))
    x, trace = greedy_knapsack(f, inst, zeros(3), SolverConfig(0.1, 0))
    gained_after_fail: dict[int, int] = {}
    allowance: dict[int, int] = {}
    level: dict[int, int] = {}
    for s in trace.steps:
        level.setdefault(s.element, 0)
        if s.accepted:
            level[s.element] += s.step
            if s.element in allowance:
                gained_after_fail[s.element] = (
                    gained_after_fail.get(s.element, 0) + s.step
                )
                assert gained_after_fail[s.element] <= allowance[s.element]
        else:
            allowance[s.element] = min(
                allowance.get(s.element, s.step - 1), s.step - 1
            )
            gained_after_fail[s.element] = 0


def test_increase_support_frozen_levels():
    # f(k) = min(k, 4), c = 6, eps = 0.5: levels 4, 2, 1 -> k in {4, 2, 1}
    f = ValueOracle(lambda x: float(min(x[0], 4)), np.array([6]))
    inst = KnapsackInstance((0.15,), (6,))
    out = increase_support(f, inst, 0, [zeros(1)], 0.5)
    ks = sorted(int(p[0]) for p in out)
    assert ks == [1, 2, 4]


def test_increase_support_skips_zero_marginal():
    f = ValueOracle(lambda x: float(min(x[0], 1)), np.array([3, 3]))
    inst = KnapsackInstance((0.3, 0.3), (3, 3))
    # coordinate 1 never contributes: nothing is emitted for it
    assert increase_support(f, inst, 1, [zeros(2)], 0.5) == []
    # and a saturated base point contributes nothing along 0
    out = increase_support(f, inst, 0, [unit(2, 0, 3)], 0.5)
    assert out == []


def test_increase_support_respects_box():
    f = make_separable_concave([1.0], [0.5], [4])
    inst = KnapsackInstance((0.2,), (4,))
    out = increase_support(f, inst, 0, [zeros(1)], 0.3)
    assert all(1 <= int(p[0]) <= 4 for p in out)


def reference_increase_support(f, inst, e, solutions, epsilon):
    """Literal copy of increase_support before it shared the level-set scan."""
    cap = inst.cap_vector()
    out = {}
    for y in solutions:
        y = np.asarray(y, dtype=np.int64)
        k_cap = int(cap[e] - y[e])
        if k_cap <= 0:
            continue
        view = f.shifted(y)
        step = unit(f.n, e)
        memo = {}

        def val(k):
            if k not in memo:
                memo[k] = view.eval(k * step)
            return memo[k]

        if val(k_cap) <= 0:
            continue
        lo, hi = 1, k_cap
        while lo < hi:
            mid = (lo + hi) // 2
            if val(mid) > 0:
                hi = mid
            else:
                lo = mid + 1
        k_min = lo
        for level in threshold_schedule(val(k_cap), (1 - epsilon) * val(k_min), epsilon):
            lo, hi = k_min, k_cap
            while lo < hi:
                mid = (lo + hi) // 2
                if val(mid) >= level:
                    hi = mid
                else:
                    lo = mid + 1
            point = y + lo * step
            out.setdefault(tuple(point), point)
    return list(out.values())


def test_increase_support_matches_reference():
    rng = np.random.default_rng(17)
    for _ in range(60):
        shape = tuple(int(v) for v in rng.integers(2, 40, size=2))
        inc = rng.uniform(0.0, 1.0, size=shape) * (rng.random(shape) < 0.6)
        inc[0, 0] = 0.0
        table = inc.cumsum(axis=0).cumsum(axis=1)  # monotone, f(0) = 0
        box = np.array(shape) - 1
        make = lambda: ValueOracle(lambda x: float(table[int(x[0]), int(x[1])]), box)
        inst = KnapsackInstance((0.5, 0.5), tuple(int(b) for b in box))
        starts = [zeros(2)] + [rng.integers(0, box + 1) for _ in range(3)]
        e = int(rng.integers(2))
        eps = float(rng.choice([0.5, 0.25, 0.1]))
        f, ref_f = make(), make()
        got = increase_support(f, inst, e, starts, eps)
        want = reference_increase_support(ref_f, inst, e, starts, eps)
        assert [p.tolist() for p in got] == [p.tolist() for p in want]
        assert f.calls == ref_f.calls


def test_partial_enumeration_single_coordinate():
    f = ValueOracle(lambda x: float(min(x[0], 4)), np.array([6]))
    inst = KnapsackInstance((0.15,), (6,))
    out = partial_enumeration(f, inst, 0.5)
    points = sorted(tuple(p) for p in out)
    assert (0,) in points
    assert set(points) == {(0,), (1,), (2,), (4,)}


def test_partial_enumeration_invariants():
    f = make_separable_concave([1.0, 2.0, 0.5, 0.8], [0.5, 1.0, 0.5, 1.0], [2, 2, 2, 2])
    inst = KnapsackInstance((0.3, 0.45, 0.2, 0.5), (2, 2, 2, 2))
    out = partial_enumeration(f, inst, 0.25)
    tuples = [tuple(p) for p in out]
    assert len(set(tuples)) == len(tuples)
    assert (0, 0, 0, 0) in tuples
    for p in out:
        assert inst.fits(p)
        assert np.count_nonzero(p) <= 3
        assert np.all(p <= inst.cap_vector())


def reference_partial_enumeration(f, inst, epsilon):
    """Literal copy of partial_enumeration before it extended each prefix once."""
    n = inst.n
    collected = {}
    max_len = min(3, n)
    for length in range(max_len + 1):
        for combo in itertools.product(range(n), repeat=length):
            batch = [zeros(n)]
            for e in combo:
                batch = increase_support(f, inst, e, batch, epsilon)
            for point in batch:
                if inst.fits(point):
                    collected.setdefault(tuple(point), point)
    return list(collected.values())


def reference_maximize_knapsack(f, inst, config):
    """Literal copy of maximize_knapsack before the solve shared one memo."""
    best, best_value = None, 0.0
    for x0 in reference_partial_enumeration(f, inst, config.effective):
        x, trace = greedy_knapsack(f, inst, x0, config)
        value = f.eval(x)
        if best is None or value > best_value:
            best, best_value = (x, trace), value
    return best


# (oracle, weights, eps, best point, oracle calls of one solve, oracle calls
# of the reference solve, which runs greedy_knapsack and increase_support
# standalone and so pins their own counts)
KNAPSACK_CASES = [
    (lambda: ValueOracle(modular([3.0, 1.0]), np.array([2, 2])), (0.5, 0.5), 0.1, [2, 0], 9, 72),
    (
        lambda: make_separable_concave([1.0, 1.4, 0.7], [0.5, 1.0, 0.3], [3, 3, 4]),
        (0.35, 0.3, 0.15), 0.1, [0, 3, 0], 70, 1524,
    ),
    (
        lambda: random_budget_allocation(3, 4, 3, 3),
        (0.3, 0.25, 0.4, 0.2), 0.2, [0, 1, 1, 1], 31, 817,
    ),
]


def test_maximize_knapsack_returns_best_and_counts_calls():
    for make, weights, eps, want_x, want_calls, reference_calls in KNAPSACK_CASES:
        f = make()
        inst = KnapsackInstance(weights, tuple(int(c) for c in f.box))
        config = SolverConfig(eps, 0)
        before = f.calls
        x, trace = maximize_knapsack(f, inst, config)
        assert f.calls - before == want_calls
        assert list(x) == want_x
        ref = make()
        ref_x, ref_trace = reference_maximize_knapsack(ref, inst, config)
        assert ref.calls == reference_calls
        assert list(ref_x) == want_x and ref_trace == trace
        # the trace is the greedy run from the first start whose completion
        # has the top value
        g = make()
        runs = [greedy_knapsack(g, inst, x0, config) for x0 in partial_enumeration(g, inst, eps)]
        values = [g.eval(y) for y, _ in runs]
        win_x, win_trace = runs[values.index(max(values))]
        assert list(win_x) == want_x and trace == win_trace
        assert g.eval(win_x) == pytest.approx(f.eval(x))


def random_knapsack_cases(count, seed):
    """(make, inst, eps) triples: n <= 3, caps <= 4, DR and non-DR oracles.

    Every fourth case is a certified non-DR table, and every fourth a
    monotone table with integer values, whose many equal values make
    completions tie.
    """
    rng = np.random.default_rng(seed)
    grid = np.arange(0.1, 1.0 + 1e-9, 0.1)
    tables = [NON_DR_TABLES[name] for name in sorted(NON_DR_TABLES)]
    for i in range(count):
        kind = i % 4
        if kind == 0:
            table = tables[(i // 4) % len(tables)]
            make = lambda table=table: make_lattice_non_dr(table)
        elif kind == 1:
            n = int(rng.integers(1, 4))
            cap = rng.integers(1, 5, size=n)
            coeffs, powers = rng.uniform(0.3, 2.0, size=n), rng.choice([0.3, 0.5, 1.0], size=n)
            make = lambda c=coeffs, p=powers, cap=cap: make_separable_concave(c, p, cap)
        elif kind == 2:
            make = lambda s=int(rng.integers(1000)): random_budget_allocation(s, 3, 3, 4)
        else:
            shape = tuple(int(v) for v in rng.integers(2, 6, size=int(rng.integers(1, 4))))
            steps = rng.integers(0, 2, size=shape)
            steps.flat[0] = 0
            table = steps.astype(np.float64)
            for axis in range(table.ndim):
                table = table.cumsum(axis=axis)
            make = lambda t=table: ValueOracle(lambda x: float(t[tuple(x.tolist())]), np.array(t.shape) - 1)
        box = make().box
        weights = tuple(float(w) for w in rng.choice(grid, size=box.shape[0]))
        eps = float(rng.choice([0.5, 0.25, 0.1]))
        yield make, KnapsackInstance(weights, tuple(int(c) for c in box)), eps


def test_maximize_knapsack_matches_reference():
    # the shared memo and prefix reuse change only the call count: starts
    # (order and values), the returned point and its trace are the old ones
    cases = list(random_knapsack_cases(64, 41))
    tie = lambda: ValueOracle(lambda x: float(min(x[0] + x[1], 1)), np.array([1, 1]))
    cases.append((tie, KnapsackInstance((0.5, 0.5), (1, 1)), 0.25))
    for make, inst, eps in cases:
        config = SolverConfig(eps, 0)
        f, ref = make(), make()
        starts = partial_enumeration(f, inst, eps)
        want_starts = reference_partial_enumeration(ref, inst, eps)
        assert [p.tolist() for p in starts] == [p.tolist() for p in want_starts]
        assert f.calls <= ref.calls
        f, ref = make(), make()
        x, trace = maximize_knapsack(f, inst, config)
        want_x, want_trace = reference_maximize_knapsack(ref, inst, config)
        assert x.tolist() == want_x.tolist()
        assert trace == want_trace
        assert f.calls <= ref.calls


def test_partial_enumeration_extends_only_fitting_points(monkeypatch):
    # an extension only adds weight, so an over-budget point can never lead
    # to a start; the starts stay those of the reference enumeration
    real = knapsack.increase_support
    extended = []

    def recording(f, inst, e, solutions, epsilon):
        extended.extend((inst, tuple(y)) for y in solutions)
        return real(f, inst, e, solutions, epsilon)

    monkeypatch.setattr(knapsack, "increase_support", recording)
    for make, inst, eps in random_knapsack_cases(32, 47):
        starts = partial_enumeration(make(), inst, eps)
        want = reference_partial_enumeration(make(), inst, eps)
        assert [p.tolist() for p in starts] == [p.tolist() for p in want]
    assert extended
    assert all(inst.fits(np.array(y)) for inst, y in extended)


def test_maximize_knapsack_skips_over_budget_prefixes():
    # a budget-allocation knapsack whose enumeration used to extend 174
    # over-budget points: 64 calls then, 38 now, with the same best point
    edges = [(0, 1, 0.1084), (0, 2, 0.182), (1, 2, 0.3736), (1, 1, 0.6472),
             (2, 1, 0.6021), (2, 0, 0.1576)]
    inst = KnapsackInstance.from_raw((1.6406, 2.4458, 1.1282), 3.4944, (3, 3, 3))
    for eps in (0.2, 0.1):
        f = make_budget_allocation(edges, [3, 3, 3])
        x, trace = maximize_knapsack(f, inst, SolverConfig(eps, 0))
        assert f.calls == 38
        ref = make_budget_allocation(edges, [3, 3, 3])
        want_x, want_trace = reference_maximize_knapsack(ref, inst, SolverConfig(eps, 0))
        assert x.tolist() == want_x.tolist() == [0, 0, 3]
        assert trace == want_trace


def test_maximize_knapsack_calls_at_most_the_box_size():
    cases = list(random_knapsack_cases(16, 43))
    for s in range(3):
        make = lambda s=s: random_budget_allocation(s, 4, 3, 3)
        inst = KnapsackInstance((0.3, 0.25, 0.4, 0.2), tuple(int(c) for c in make().box))
        cases.append((make, inst, 0.1))
    for make, inst, eps in cases:
        f = make()
        before = f.calls
        maximize_knapsack(f, inst, SolverConfig(eps, 0))
        assert 0 < f.calls - before <= math.prod(c + 1 for c in inst.cap)


def test_maximize_knapsack_tie_keeps_enumeration_order():
    # f saturates at one unit total: (1,0) and (0,1) tie at value 1, and the
    # earliest greedy completion wins
    f = ValueOracle(lambda x: float(min(x[0] + x[1], 1)), np.array([1, 1]))
    inst = KnapsackInstance((0.5, 0.5), (1, 1))
    x, _ = maximize_knapsack(f, inst, SolverConfig(0.25, 0))
    assert f.eval(x) == pytest.approx(1.0)
    assert list(x) == [1, 0]


def test_maximize_knapsack_beats_every_start():
    make = lambda: make_separable_concave([1.0, 1.4], [0.5, 1.0], [3, 3])
    inst = KnapsackInstance((0.35, 0.3), (3, 3))
    starts = partial_enumeration(make(), inst, 0.1)
    best_start = max(make().eval(p) for p in starts)
    x, _ = maximize_knapsack(make(), inst, SolverConfig(0.1, 0))
    assert make().eval(x) >= best_start - 1e-9


def test_maximize_knapsack_ratio_random_instances():
    bound = 1 - 1 / math.e - 0.5
    rng = np.random.default_rng(23)
    grid = np.arange(0.05, 1.0 + 1e-9, 0.05)
    for trial in range(15):
        n = int(rng.integers(2, 4))
        caps = tuple(int(c) for c in rng.integers(1, 4, size=n))
        coeffs = rng.uniform(0.3, 2.0, size=n)
        powers = rng.choice([0.3, 0.5, 1.0], size=n)
        weights = tuple(float(rng.choice(grid)) for _ in range(n))
        make = lambda: make_separable_concave(coeffs, powers, caps)
        inst = KnapsackInstance(weights, caps)
        x, _ = maximize_knapsack(make(), inst, SolverConfig(0.1, trial))
        assert inst.is_feasible(x)
        exact = brute_force_opt(make(), inst)
        assert make().eval(x) >= bound * exact.opt_value - 1e-9
