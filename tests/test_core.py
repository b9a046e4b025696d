import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticemax.core import (
    PROPERTY_KINDS,
    CapacityError,
    ValueOracle,
    as_lattice_point,
    check_property,
    check_property_exhaustive,
    iterate_box,
    join_meet,
    marginal,
    multiset_diff,
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
    pts = list(iterate_box(np.array([1, 2])))
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


def test_marginal_values():
    f = ValueOracle(capped_modular([2.0, 1.0], [1, 3]), np.array([2, 3]))
    assert marginal(f, unit(2, 0), zeros(2)) == pytest.approx(2.0)
    assert marginal(f, unit(2, 0), unit(2, 0)) == pytest.approx(0.0)
    assert marginal(f, unit(2, 1, 2), np.array([1, 1])) == pytest.approx(2.0)
    calls_before = f.calls
    assert marginal(f, zeros(2), np.array([1, 1])) == 0.0
    assert f.calls == calls_before  # zero step costs zero evaluations


def test_join_meet_and_diff():
    x = np.array([2, 0, 1])
    y = np.array([1, 3, 1])
    join, meet = join_meet(x, y)
    assert list(join) == [2, 3, 1]
    assert list(meet) == [1, 0, 1]
    assert list(multiset_diff(x, y)) == [1, 0, 0]
    assert list(multiset_diff(y, x)) == [0, 3, 0]


def test_check_property_exhaustive_dr_pass():
    f = ValueOracle(capped_modular([1.0, 2.0], [2, 1]), np.array([3, 3]))
    for kind in ("monotone", "dr_submodular", "lattice_submodular", "weak_dr"):
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


def test_check_property_sampled_matches_exhaustive_verdict():
    good = ValueOracle(capped_modular([1.0, 1.0], [2, 2]), np.array([4, 4]))
    assert check_property(good, "dr_submodular", trials=300, seed=0).passed
    bad = ValueOracle(lambda x: float(x[0] * x[1]), np.array([4, 4]))
    assert not check_property(bad, "dr_submodular", trials=300, seed=0).passed


def test_check_property_rejects_unknown_kind():
    f = ValueOracle(lambda x: float(sum(x)), np.array([2]))
    with pytest.raises(ValueError):
        check_property(f, "convex", trials=10, seed=0)


box_points = st.integers(min_value=0, max_value=5)


@st.composite
def point_pairs(draw, n=3):
    x = draw(st.lists(box_points, min_size=n, max_size=n))
    y = draw(st.lists(box_points, min_size=n, max_size=n))
    return np.array(x, dtype=np.int64), np.array(y, dtype=np.int64)


@given(point_pairs())
@settings(max_examples=200, deadline=None)
def test_join_meet_identity(pair):
    x, y = pair
    join, meet = join_meet(x, y)
    assert np.all(join >= x) and np.all(join >= y)
    assert np.all(meet <= x) and np.all(meet <= y)
    # x + y = join + meet coordinate-wise
    assert np.array_equal(x + y, join + meet)


@given(point_pairs())
@settings(max_examples=200, deadline=None)
def test_multiset_diff_identity(pair):
    x, y = pair
    d = multiset_diff(x, y)
    assert np.all(d >= 0)
    join, _ = join_meet(x, y)
    assert np.array_equal(y + d, join)


@given(point_pairs(), st.lists(box_points, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_marginal_additivity_on_integer_table(pair, delta):
    # f modular with integer weights: marginals are exact, f(x+d|x) = f(x+d) - f(x)
    w = np.array([3.0, 1.0, 2.0])
    f = ValueOracle(lambda x: float(np.dot(w, x)), np.array([20, 20, 20]))
    x, y = pair
    d = np.array(delta, dtype=np.int64)
    assert marginal(f, d, x) == pytest.approx(float(np.dot(w, d)))
