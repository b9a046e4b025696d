import itertools

import numpy as np
import pytest

from latticemax.bruteforce import MAX_POINTS, ExactResult, _cardinality_count, brute_force_opt
from latticemax.cardinality import CardinalityConstraint
from latticemax.core import CapacityError, ValueOracle, zeros
from latticemax.instances import (
    make_separable_concave,
    partition_polymatroid,
    random_budget_allocation,
    random_separable_concave,
    uniform_polymatroid,
)
from latticemax.knapsack import BUDGET_TOL, KnapsackInstance
from latticemax.polymatroid import PolymatroidOracle


def modular(weights):
    w = np.asarray(weights, dtype=np.float64)
    return lambda x: float(np.dot(w, x))


def reference_opt(f, box, feasible):
    """Plain product-grid scan, no pruning; the slow second opinion."""
    best, arg = -1.0, None
    for x in itertools.product(*(range(int(b) + 1) for b in box)):
        v = np.array(x)
        if not feasible(v):
            continue
        val = f.eval(v)
        if val > best:
            best, arg = val, x
    return best, arg


def test_zero_oracle():
    f = ValueOracle(lambda x: 0.0, np.array([2, 2]))
    res = brute_force_opt(f, CardinalityConstraint((2, 2), 3))
    assert res.opt_value == 0.0
    assert res.argmax == (0, 0)


def test_modular_cardinality_closed_form():
    # descending weights: pack the budget into the heaviest coordinates
    f = ValueOracle(modular([5.0, 3.0, 1.0]), np.array([2, 2, 2]))
    res = brute_force_opt(f, CardinalityConstraint((2, 2, 2), 3))
    assert res.opt_value == pytest.approx(13.0)
    assert res.argmax == (2, 1, 0)


def test_cardinality_enumeration_count():
    f = ValueOracle(lambda x: 0.0, np.array([2, 2, 2]))
    res = brute_force_opt(f, CardinalityConstraint((2, 2, 2), 2))
    # x <= (2,2,2), sum <= 2: C(2+3-1,2)+C(1+3-1,1)+1 = 6+3+1
    assert res.points_enumerated == 10


def test_knapsack_example():
    f = ValueOracle(modular([3.0, 1.0]), np.array([2, 2]))
    res = brute_force_opt(f, KnapsackInstance((0.5, 0.5), (2, 2)))
    assert res.opt_value == pytest.approx(6.0)
    assert res.argmax == (2, 0)


def test_knapsack_matches_reference():
    f = make_separable_concave([1.0, 2.0, 0.4], [0.5, 1.0, 0.5], [3, 2, 3])
    inst = KnapsackInstance((0.3, 0.45, 0.15), (3, 2, 3))
    res = brute_force_opt(f, inst)
    ref_val, ref_arg = reference_opt(
        make_separable_concave([1.0, 2.0, 0.4], [0.5, 1.0, 0.5], [3, 2, 3]),
        [3, 2, 3],
        inst.is_feasible,
    )
    assert res.opt_value == pytest.approx(ref_val)
    assert res.argmax == ref_arg


def test_cardinality_matches_reference():
    f = make_separable_concave([0.5, 1.5, 1.0], [1.0, 0.5, 0.5], [2, 3, 2])
    cons = CardinalityConstraint((2, 3, 2), 4)
    res = brute_force_opt(f, cons)
    ref_val, ref_arg = reference_opt(
        make_separable_concave([0.5, 1.5, 1.0], [1.0, 0.5, 0.5], [2, 3, 2]),
        [2, 3, 2],
        cons.is_feasible,
    )
    assert res.opt_value == pytest.approx(ref_val)
    assert res.argmax == ref_arg


def test_polymatroid_matches_reference():
    f = make_separable_concave([1.0, 0.8, 1.2], [0.5, 0.5, 1.0], [3, 3, 3])
    P = uniform_polymatroid(3, 2, 4)
    res = brute_force_opt(f, P)
    ref_val, ref_arg = reference_opt(
        make_separable_concave([1.0, 0.8, 1.2], [0.5, 0.5, 1.0], [3, 3, 3]),
        [3, 3, 3],
        lambda v: P.member(v.astype(np.float64)),
    )
    assert res.opt_value == pytest.approx(ref_val)
    assert res.argmax == ref_arg


def test_polymatroid_partition_mode():
    f = ValueOracle(modular([1.0, 1.0, 4.0]), np.array([3, 3, 3]))
    P = partition_polymatroid([[0, 1], [2]], [2, 1])
    res = brute_force_opt(f, P)
    assert res.argmax == (2, 2, 1)
    assert res.opt_value == pytest.approx(8.0)


def test_tie_breaks_lexicographically():
    # every singleton has value 1: the smallest argmax is (0,...,0,1) ordered
    # lexicographically, i.e. (0, 1) loses to... (0, 1) vs (1, 0): lex order
    # compares coordinate 0 first, so (0, 1) is smaller
    f = ValueOracle(lambda x: float(min(x.sum(), 1)), np.array([2, 2]))
    res = brute_force_opt(f, CardinalityConstraint((2, 2), 2))
    assert res.opt_value == pytest.approx(1.0)
    assert res.argmax == (0, 1)


def test_capacity_guard():
    f = ValueOracle(lambda x: 0.0, np.full(12, 9))
    with pytest.raises(CapacityError):
        brute_force_opt(f, KnapsackInstance((0.01,) * 12, (9,) * 12), max_points=1000)
    with pytest.raises(CapacityError):
        brute_force_opt(f, CardinalityConstraint((9,) * 12, 40), max_points=1000)


def test_unsupported_constraint_type():
    f = ValueOracle(lambda x: 0.0, np.array([1]))
    with pytest.raises(TypeError):
        brute_force_opt(f, object())



# Literal copy of brute_force_opt before the single enumerator: three
# depth-first closures, one per constraint type.  The reference test below
# holds the library to it bit for bit.
def reference_brute_force_opt(f, constraint, max_points=MAX_POINTS):
    n = f.n
    if isinstance(constraint, CardinalityConstraint):
        cap = np.minimum(constraint.cap_vector(), f.box)
        estimate = _cardinality_count(cap, constraint.budget)
        mode = "cardinality"
    elif isinstance(constraint, KnapsackInstance):
        cap = np.minimum(constraint.cap_vector(), f.box)
        estimate = int(np.prod(cap + 1.0))
        mode = "knapsack"
    elif isinstance(constraint, PolymatroidOracle):
        cap = np.minimum(f.box, constraint.rank_total)
        estimate = int(np.prod(cap + 1.0))
        mode = "polymatroid"
    else:
        raise TypeError(f"unsupported constraint type {type(constraint).__name__}")
    if estimate > max_points:
        raise CapacityError(
            f"estimated feasible region of {estimate} points exceeds cap {max_points}"
        )

    best_value = -np.inf
    best_point = None
    enumerated = 0
    point = zeros(n)

    if mode == "cardinality":
        budget = constraint.budget

        def recurse(e, remaining):
            nonlocal best_value, best_point, enumerated
            if e == n:
                enumerated += 1
                value = f.eval(point)
                if value > best_value:
                    best_value, best_point = value, point.copy()
                return
            for k in range(min(int(cap[e]), remaining) + 1):
                point[e] = k
                recurse(e + 1, remaining - k)
            point[e] = 0

        recurse(0, budget)
    elif mode == "knapsack":
        w = constraint.weight_vector()

        def recurse(e, spent):
            nonlocal best_value, best_point, enumerated
            if e == n:
                enumerated += 1
                value = f.eval(point)
                if value > best_value:
                    best_value, best_point = value, point.copy()
                return
            for k in range(int(cap[e]) + 1):
                cost = spent + k * w[e]
                if cost > 1.0 + BUDGET_TOL:
                    break
                point[e] = k
                recurse(e + 1, cost)
            point[e] = 0

        recurse(0, 0.0)
    else:

        def recurse(e):
            nonlocal best_value, best_point, enumerated
            if e == n:
                enumerated += 1
                value = f.eval(point)
                if value > best_value:
                    best_value, best_point = value, point.copy()
                return
            for k in range(int(cap[e]) + 1):
                point[e] = k
                if not constraint.member(point.astype(np.float64)):
                    break  # prefix infeasible, larger k only worse
                recurse(e + 1)
            point[e] = 0

        recurse(0)

    if best_point is None:
        raise RuntimeError("no feasible point enumerated")
    return ExactResult(float(best_value), tuple(int(v) for v in best_point), enumerated)


def random_oracle(rng):
    """A fresh-oracle factory: random separable concave, coverage or monotone table."""
    n = int(rng.integers(1, 5))
    seed = int(rng.integers(1 << 30))
    kind, targets = int(rng.integers(3)), int(rng.integers(1, 4))
    if kind == 0:
        return lambda: random_separable_concave(seed, n, 4)
    if kind == 1:
        return lambda: random_budget_allocation(seed, n, targets, 4)
    box = rng.integers(0, 4, size=n)
    steps = rng.uniform(0.0, 1.0, size=tuple(int(c) + 1 for c in box))
    steps[steps < 0.3] = 0.0  # flat stretches make ties
    steps[(0,) * n] = 0.0
    table = steps
    for axis in range(n):
        table = np.cumsum(table, axis=axis)
    return lambda: ValueOracle(lambda x: float(table[tuple(int(v) for v in x)]), box)


def random_constraint(rng, kind, box):
    """A fresh-constraint factory of ``kind`` over the oracle's box."""
    n = box.shape[0]
    if kind == "cardinality":
        cap = tuple(int(c) for c in rng.integers(0, box + 1))
        budget = int(rng.integers(0, sum(cap) + 2))
        return lambda: CardinalityConstraint(cap, budget)
    if kind == "knapsack":
        # grid weights put left-to-right sums right at the budget
        grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.45, 0.7]
        weights = tuple(
            float(rng.choice(grid)) if rng.random() < 0.6 else float(rng.uniform(0.05, 0.8))
            for _ in range(n)
        )
        cap = tuple(int(c) for c in box)
        return lambda: KnapsackInstance(weights, cap)
    per, total_rank = int(rng.integers(0, 4)), int(rng.integers(0, 7))
    if rng.random() < 0.5:
        return lambda: uniform_polymatroid(n, per, total_rank)
    labels = rng.integers(0, 2, size=n)
    parts = [[e for e in range(n) if labels[e] == p] for p in (0, 1)]
    caps = [c for p, c in zip(parts, rng.integers(0, 4, size=2)) if p]
    parts = [p for p in parts if p]
    return lambda: partition_polymatroid(parts, caps, n)


@pytest.mark.parametrize("kind", ["cardinality", "knapsack", "polymatroid"])
def test_brute_force_matches_reference(kind):
    rng = np.random.default_rng({"cardinality": 41, "knapsack": 42, "polymatroid": 43}[kind])
    cases = [(random_oracle(rng), None) for _ in range(60)]
    if kind == "knapsack":
        # 3 * 0.1 + 3 * 0.2 + 0.1 sums to 1.0000000000000002 left to right:
        # inside the tolerance, so the point (3, 3, 1) is feasible
        cases.append(
            (
                lambda: ValueOracle(lambda x: float(x.sum()), np.array([3, 3, 1])),
                lambda: KnapsackInstance((0.1, 0.2, 0.1), (3, 3, 1)),
            )
        )
    for make_f, make_c in cases:
        make_c = make_c or random_constraint(rng, kind, make_f().box)
        f, c = make_f(), make_c()
        g, d = make_f(), make_c()
        got = brute_force_opt(f, c)
        want = reference_brute_force_opt(g, d)
        assert got.opt_value.hex() == want.opt_value.hex()
        assert got.argmax == want.argmax
        assert got.points_enumerated == want.points_enumerated
        assert f.calls == g.calls
        if kind == "polymatroid":
            assert c.member_calls == d.member_calls
