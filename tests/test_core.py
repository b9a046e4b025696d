import itertools
import warnings

import numpy as np
import pytest

from latticemax.core import (
    CHECK_TOLERANCE,
    PROPERTY_KINDS,
    CapacityError,
    PropertyReport,
    ValueOracle,
    Witness,
    as_lattice_point,
    check_property_exhaustive,
    lattice_points,
    total,
    unit,
    zeros,
)
from latticemax.instances import NON_DR_TABLES, make_lattice_non_dr


def capped_modular(weights, caps):
    """f(x) = sum_e w_e * min(x(e), k_e): monotone DR-submodular."""
    w = np.asarray(weights, dtype=np.float64)
    k = np.asarray(caps, dtype=np.int64)

    def fn(x):
        return float(np.dot(w, np.minimum(x, k)))

    return fn


def test_as_lattice_point_accepts_integral_floats():
    out = as_lattice_point(np.array([1.0, 2.0, 0.0]))
    assert out.dtype == np.int64
    assert list(out) == [1, 2, 0]


def test_as_lattice_point_rejects_bad_input():
    with pytest.raises(ValueError):
        as_lattice_point(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        as_lattice_point(np.array([-1, 0]))
    with pytest.raises(ValueError):
        as_lattice_point(np.array([1, 2]), n=3)
    with pytest.raises(ValueError):
        as_lattice_point(np.array([[1, 2]]))


def test_helpers():
    assert list(zeros(3)) == [0, 0, 0]
    assert list(unit(3, 1, 4)) == [0, 4, 0]
    assert total(np.array([1, 2, 3])) == 6
    pts = list(lattice_points(np.array([1, 2])))
    assert len(pts) == 6
    assert list(pts[0]) == [0, 0]
    assert list(pts[-1]) == [1, 2]


def test_oracle_validates_normalization():
    with pytest.raises(ValueError):
        ValueOracle(lambda x: 1.0, np.array([2, 2]))


def test_oracle_rejects_out_of_box():
    f = ValueOracle(lambda x: float(sum(x)), np.array([2, 2]))
    with pytest.raises(ValueError):
        f.eval(np.array([3, 0]))
    with pytest.raises(ValueError):
        f.eval(np.array([1, -1]))
    with pytest.raises(ValueError):
        f.eval(np.array([1]))


def test_oracle_counts_calls():
    f = ValueOracle(lambda x: float(sum(x)), np.array([3, 3]))
    assert f.calls == 0
    f.eval(np.array([1, 1]))
    assert f.calls == 1
    f.eval_batch(np.array([[0, 0], [1, 2], [3, 3]]))
    assert f.calls == 4


def test_shifted_view_is_marginal_and_shares_counter():
    # f(x) = 2 min(x_a, 1) + min(x_b, 3) on box (2, 3)
    f = ValueOracle(capped_modular([2.0, 1.0], [1, 3]), np.array([2, 3]))
    g = f.shifted(np.array([1, 1]))  # costs one call for the base value
    assert f.calls == 1
    assert list(g.box) == [1, 2]
    # g(z) = f(z + (1,1)) - f(1,1); f(1,1) = 3, f(2,3) = 5
    assert g.eval(np.array([0, 0])) == 0.0
    assert g.eval(np.array([1, 2])) == pytest.approx(2.0)
    assert f.calls == 3


def test_shifted_view_values():
    f = ValueOracle(capped_modular([2.0, 1.0], [1, 3]), np.array([2, 3]))
    g = f.shifted(np.array([1, 1]))
    # f(1,1) = 3, f(2,3) = 2+3 = 5, so g(1,2) = 2
    assert g.eval(np.array([1, 2])) == pytest.approx(2.0)
    assert g.eval_batch(np.array([[0, 0], [0, 1], [1, 0]])) == pytest.approx([0.0, 1.0, 0.0])


def test_oracle_box_is_read_only():
    box = np.array([2, 3, 1])
    f = ValueOracle(capped_modular([1.0, 1.0, 1.0], [2, 3, 1]), box)
    box[0] = 0  # the oracle owns a copy
    assert f.box.tolist() == [2, 3, 1]
    with pytest.raises(ValueError):
        f.box[0] = 5
    assert f.eval(np.array([2, 3, 1])) == 6.0
    g = f.shifted(np.array([1, 2, 0]))
    assert g.box.tolist() == [1, 1, 1]
    assert g.box.dtype == np.int64
    with pytest.raises(ValueError):
        g.box[1] = 3
    with pytest.raises(ValueError, match=r"outside box \[1, 1, 1\]"):
        g.eval(np.array([0, 2, 0]))


# ValueOracle._validate and as_lattice_point as they were written before
# they tested dtype kinds and compared in plain Python; the reference for
# the tests below.
def _old_validate(box, x):
    if x.shape != box.shape:
        raise ValueError(f"expected shape {box.shape}, got {x.shape}")
    if not np.issubdtype(x.dtype, np.integer):
        raise ValueError("oracle arguments must be integer vectors")
    if np.any(x < 0) or np.any(x > box):
        raise ValueError(f"point {x.tolist()} outside box {box.tolist()}")


def _old_as_lattice_point(x, n=None):
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"lattice point must be 1-dimensional, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise ValueError("lattice point must have integer entries")
    arr = arr.astype(np.int64, copy=True)
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected dimension {n}, got {arr.shape[0]}")
    if np.any(arr < 0):
        raise ValueError("lattice point entries must be non-negative")
    return arr


def _outcome(call, *args):
    """The ValueError message ``call`` raises, or its result."""
    try:
        return call(*args)
    except ValueError as err:
        return f"ValueError: {err}"


BAD_POINTS = [
    np.array([1.0, 0.0, 1.0]),
    np.array([1.5, 0.0, 1.0]),
    np.array([True, False, True]),
    np.array([1, 2, 1], dtype=object),
    np.array(1),
    np.array([[1, 2, 1]]),
    np.array([1, 2]),
    np.array([1, 2, 1, 0]),
    np.array([-1, 0, 0]),
    np.array([0, 4, 0]),
    np.array([0, 0, 2], dtype=np.int8),
    np.array([3, 0, 0], dtype=np.uint64),
    np.array([2, 3, 1], dtype=np.uint64),
    np.array([2, 3, 1], dtype=np.int32),
    np.array([-1.0, 0.0, 0.0]),
    np.array([np.nan, 0.0, 0.0]),
    np.array([], dtype=np.int64),
]


def test_oracle_validation_matches_the_old_code():
    box = np.array([2, 3, 1])
    f = ValueOracle(lambda x: 0.0, box)
    rng = np.random.default_rng(7)
    random_points = list(rng.integers(-1, 5, size=(2000, 3)))
    for x in BAD_POINTS + random_points:
        before = f.calls
        got = _outcome(f.eval, x)
        want = _outcome(_old_validate, box, x)
        if want is None:
            assert got == 0.0 and f.calls == before + 1
        else:
            assert got == want and f.calls == before
    # rejected now, passed to fn before: timedelta64 is an integer subtype
    # to numpy, but not a lattice point
    assert _outcome(_old_validate, box, np.array([1, 0, 0], dtype="m8[s]")) is None
    with pytest.raises(ValueError, match="must be integer vectors"):
        f.eval(np.array([1, 0, 0], dtype="m8[s]"))


def test_as_lattice_point_matches_the_old_code():
    rng = np.random.default_rng(8)
    random_points = [rng.integers(-2, 6, size=int(rng.integers(0, 5))) for _ in range(500)]
    random_points += [p.astype(np.float64) / 2 for p in random_points[:200]]
    for x in BAD_POINTS + random_points:
        for n in (None, 3):
            got = _outcome(as_lattice_point, x, n)
            want = _outcome(_old_as_lattice_point, x, n)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.dtype == np.int64 and got.tolist() == want.tolist()
                assert got is not x


@pytest.mark.parametrize(
    "x, message",
    [
        (np.array([np.inf, 1.0]), "must be finite"),
        (np.array([-np.inf, 1.0]), "must be finite"),
        (np.array([1e19, 1.0]), "must fit in int64"),
        (np.array([2.0**63, 1.0]), "must fit in int64"),
        (np.array([-1e19, 1.0]), "must fit in int64"),
        (np.array([2**63, 1], dtype=np.uint64), "must fit in int64"),
    ],
)
def test_as_lattice_point_rejects_entries_that_int64_cannot_hold(x, message):
    # the int64 cast used to wrap these (with a RuntimeWarning for floats)
    # and then report them as negative
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            as_lattice_point(x)
        with pytest.raises(ValueError, match=message):
            ValueOracle(lambda z: 0.0, x)
    # the largest entries that fit still pass
    assert as_lattice_point(np.array([2**63 - 1], dtype=np.uint64)).tolist() == [2**63 - 1]
    assert as_lattice_point(np.array([2.0**62])).tolist() == [2**62]


def test_check_property_exhaustive_dr_pass():
    f = ValueOracle(capped_modular([1.0, 2.0], [2, 1]), np.array([3, 3]))
    for kind in ("monotone", "dr_submodular", "lattice_submodular"):
        report = check_property_exhaustive(f, kind)
        assert report.passed, f"{kind}: {report.violations[:2]}"
        assert report.trials > 0


def test_check_property_exhaustive_dr_fail_with_witness():
    # f(x) = x_a * x_b is supermodular: marginals grow, DR must fail
    f = ValueOracle(lambda x: float(x[0] * x[1]), np.array([3, 3]))
    report = check_property_exhaustive(f, "dr_submodular")
    assert not report.passed
    w = report.violations[0]
    # the witness must actually violate the inequality it reports
    assert w.lhs < w.rhs - 1e-12


def test_check_property_exhaustive_lattice_fail():
    # f(x) = min(x_a + x_b, 1)^2 is fine; use max(0, x_a + x_b - 1) squared
    # to break lattice submodularity via convexity in the sum.
    f = ValueOracle(lambda x: float(max(0, x[0] + x[1] - 1)) ** 2, np.array([2, 2]))
    report = check_property_exhaustive(f, "lattice_submodular")
    assert not report.passed


def test_check_property_exhaustive_capacity_guard():
    f = ValueOracle(lambda x: float(sum(x)), np.array([200] * 6))
    with pytest.raises(CapacityError):
        check_property_exhaustive(f, "dr_submodular")


def test_check_property_exhaustive_evaluates_each_point_once():
    # 3 x 3 box: 9 lattice points
    f = make_lattice_non_dr(NON_DR_TABLES["convex_ladder_2d"])
    assert f.calls <= 27  # three certifying checks
    for kind in sorted(PROPERTY_KINDS):
        before = f.calls
        report = check_property_exhaustive(f, kind)
        assert report.trials > 9
        assert f.calls - before <= 9, kind


def test_check_property_rejects_unknown_kind():
    f = ValueOracle(lambda x: float(sum(x)), np.array([2]))
    with pytest.raises(ValueError):
        check_property_exhaustive(f, "convex")


# A literal copy of the exhaustive property checker before the shared
# inequality evaluator: one witness tuple at a time through _check_one,
# with a byte-keyed point cache.
def reference_iterate_box(box):
    box = as_lattice_point(box)
    for idx in itertools.product(*(range(int(b) + 1) for b in box)):
        yield np.array(idx, dtype=np.int64)


def reference_check_one(f, kind, x, y, e, k, cache):
    def ev(p):
        key = p.tobytes()
        if key not in cache:
            cache[key] = f.eval(p)
        return cache[key]

    if kind == "monotone":
        lhs, rhs = ev(y), ev(x)
        ok = lhs >= rhs - CHECK_TOLERANCE
        if ok:
            return None
        return Witness(tuple(x), tuple(y), None, None, lhs, rhs)
    if kind == "lattice_submodular":
        jn, mt = np.maximum(x, y), np.minimum(x, y)
        lhs = ev(x) + ev(y)
        rhs = ev(jn) + ev(mt)
        if lhs >= rhs - CHECK_TOLERANCE:
            return None
        return Witness(tuple(x), tuple(y), None, None, lhs, rhs)
    if kind == "dr_submodular":
        step = unit(f.n, e)
        lhs = ev(x + step) - ev(x)
        rhs = ev(y + step) - ev(y)
        if lhs >= rhs - CHECK_TOLERANCE:
            return None
        return Witness(tuple(x), tuple(y), e, 1, lhs, rhs)
    raise ValueError(f"unknown property kind {kind!r}")


def reference_check_property_exhaustive(f, kind):
    box = f.box
    n = f.n
    cache = {}
    report = PropertyReport(kind, 0)

    if kind == "lattice_submodular":
        points = list(reference_iterate_box(box))
        for x in points:
            for y in points:
                report.trials += 1
                w = reference_check_one(f, kind, x, y, None, None, cache)
                if w is not None:
                    report.violations.append(w)
        return report

    for y in reference_iterate_box(box):
        for x_idx in itertools.product(*(range(int(v) + 1) for v in y)):
            x = np.array(x_idx, dtype=np.int64)
            if kind == "monotone":
                report.trials += 1
                w = reference_check_one(f, kind, x, y, None, None, cache)
                if w is not None:
                    report.violations.append(w)
            else:  # dr_submodular
                for e in range(n):
                    if y[e] >= box[e]:
                        continue
                    report.trials += 1
                    w = reference_check_one(f, kind, x, y, e, 1, cache)
                    if w is not None:
                        report.violations.append(w)
    return report


def table_oracle(table):
    table = np.asarray(table, dtype=np.float64)
    return lambda: ValueOracle(
        lambda x: float(table[tuple(int(v) for v in x)]),
        np.array(table.shape, dtype=np.int64) - 1,
        batch_fn=lambda X: table[tuple(X.T)],
    )


def random_table(rng, monotone=True):
    n = int(rng.integers(1, 4))
    shape = tuple(int(s) for s in rng.integers(1, 5, size=n))
    steps = rng.uniform(0.0, 1.0, size=shape)
    steps[steps < 0.25] = 0.0  # ties: inequalities that hold with equality
    steps[(0,) * n] = 0.0
    if not monotone:
        steps -= 0.6 * (steps > 0)
    table = steps
    for axis in range(n):
        table = np.cumsum(table, axis=axis)
    return table


def same_report(got, want):
    assert got.property_name == want.property_name
    assert got.trials == want.trials
    assert len(got.violations) == len(want.violations)
    for a, b in zip(got.violations, want.violations):
        assert a.x == b.x and a.y == b.y
        assert (a.element, a.step) == (b.element, b.step)
        assert a.lhs.hex() == b.lhs.hex() and a.rhs.hex() == b.rhs.hex()


def exhaustive_cases():
    cases = [table_oracle(t) for t in NON_DR_TABLES.values()]
    rng = np.random.default_rng(71)
    cases += [table_oracle(random_table(rng, monotone=i % 3 != 2)) for i in range(30)]
    cases.append(lambda: ValueOracle(lambda x: float(x[0] * x[1]), np.array([3, 2])))
    cases.append(table_oracle(np.zeros((1, 1))))  # a box with no room to step
    return cases


@pytest.mark.parametrize("kind", sorted(PROPERTY_KINDS))
def test_check_property_exhaustive_matches_reference(kind):
    violated = 0
    for make in exhaustive_cases():
        f, g = make(), make()
        got = check_property_exhaustive(f, kind)
        want = reference_check_property_exhaustive(g, kind)
        same_report(got, want)
        assert f.calls == g.calls
        violated += not want.passed
    assert violated > 0  # the comparison covers violation lists
