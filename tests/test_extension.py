import itertools
import math

import numpy as np
import pytest

from latticemax.core import MAX_ENUMERATION_N, CapacityError, ValueOracle
from latticemax.extension import (
    _cell_corners,
    _marginal_estimate,
    extension_exact,
    sample_rounding,
    split_point,
)
from latticemax.instances import make_budget_allocation, make_separable_concave


def reference_extension(fn, x):
    """Independent recursive evaluation of E[f(z)], z_i in {floor, ceil}."""
    x = np.asarray(x, dtype=np.float64)
    frac_idx = [i for i in range(len(x)) if abs(x[i] - round(x[i])) > 1e-9]
    if not frac_idx:
        return fn(np.round(x).astype(np.int64))
    i = frac_idx[0]
    lo, hi = x.copy(), x.copy()
    lo[i], hi[i] = math.floor(x[i]), math.ceil(x[i])
    p = x[i] - math.floor(x[i])
    return (1 - p) * reference_extension(fn, lo) + p * reference_extension(fn, hi)


def capped(fn_caps):
    w, k = fn_caps
    return lambda x: float(np.dot(w, np.minimum(x, k)))


def test_split_point_snaps_and_validates():
    f = ValueOracle(lambda x: float(sum(x)), np.array([3, 3]))
    base, frac = split_point(f, np.array([1.0 + 1e-12, 2.5]))
    assert list(base) == [1, 2]
    assert frac == pytest.approx([0.0, 0.5])
    with pytest.raises(ValueError):
        split_point(f, np.array([3.5, 0.0]))
    with pytest.raises(ValueError):
        split_point(f, np.array([-0.5, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fractional_entry_points_reject_non_finite_points(bad):
    # a NaN entry used to be cast to an int64 floor with numpy's "invalid
    # value" warning and then reported as a point outside the box
    f = ValueOracle(lambda x: float(sum(x)), np.array([2, 2]))
    x = [bad, 0.0]
    for call in (
        lambda: split_point(f, x),
        lambda: extension_exact(f, x),
        lambda: sample_rounding(f, x, 4, np.random.default_rng(0)),
        lambda: _marginal_estimate(f, np.array([1, 0]), x),
    ):
        with pytest.raises(ValueError, match="point entries must be finite"):
            call()
    assert f.calls == 0


def test_extension_exact_integral_equals_f():
    f = make_separable_concave([1.0, 2.0], [0.5, 1.0], [3, 2])
    for pt in itertools.product(range(4), range(3)):
        x = np.array(pt, dtype=np.float64)
        assert extension_exact(f, x) == pytest.approx(f.eval(np.array(pt)))


def test_extension_exact_single_coordinate_example():
    # f(k) = min(k, 2): F(1.5) = 0.5 f(1) + 0.5 f(2) = 1.5
    f = ValueOracle(lambda x: float(min(x[0], 2)), np.array([4]))
    assert extension_exact(f, np.array([1.5])) == pytest.approx(1.5)
    assert extension_exact(f, np.array([2.5])) == pytest.approx(2.0)


def test_extension_exact_modular_is_identity():
    w = np.array([1.5, 0.5, 2.0])
    f = ValueOracle(lambda x: float(np.dot(w, x)), np.array([4, 4, 4]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0, 4, size=3)
        assert extension_exact(f, x) == pytest.approx(float(np.dot(w, x)))


def test_extension_exact_matches_reference_recursion():
    # coupled non-modular oracle: coverage-style
    f = make_budget_allocation(
        [(0, 0, 0.5), (1, 0, 0.3), (1, 1, 0.6), (2, 1, 0.4)], [3, 3, 3]
    )
    fn = lambda z: f.eval_batch(z.reshape(1, -1))[0]
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.uniform(0, 3, size=3)
        assert extension_exact(f, x) == pytest.approx(reference_extension(fn, x), abs=1e-12)


def test_extension_exact_multilinear_on_binary_box():
    # on {0,1}^n the extension is the classical multilinear extension
    rng = np.random.default_rng(5)
    n = 6
    w = rng.uniform(0.1, 1.0, size=n)
    pair = (2, 4)
    fn = lambda z: float(np.dot(w, np.minimum(z, 1)) + 0.5 * min(z[pair[0]], z[pair[1]], 1))
    f = ValueOracle(fn, np.ones(n, dtype=np.int64))

    def multilinear(xx):
        total = 0.0
        for bits in itertools.product((0, 1), repeat=n):
            s = np.array(bits)
            p = np.prod(np.where(s == 1, xx, 1 - xx))
            total += p * fn(s)
        return total

    for _ in range(5):
        x = rng.uniform(0, 1, size=n)
        assert extension_exact(f, x) == pytest.approx(multilinear(x), abs=1e-10)


def test_extension_exact_capacity_guard():
    n = 22
    f = ValueOracle(lambda x: float(sum(x)), np.ones(n, dtype=np.int64))
    with pytest.raises(CapacityError):
        extension_exact(f, np.full(n, 0.5))
    # the marginal sums over the same cell and stops at the same cap
    with pytest.raises(CapacityError):
        _marginal_estimate(f, np.zeros(n, dtype=np.int64), np.full(n, 0.5))
    assert f.calls == 0


def test_extension_monotone_and_midpoint_concave():
    f = make_separable_concave([1.0, 1.0, 0.7], [0.5, 0.7, 1.0], [3, 3, 3])
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(0, 3, size=3)
        d = rng.uniform(0, 1, size=3)
        t = rng.uniform(0, 1)
        hi = np.minimum(x + 2 * d, 3.0)
        d = (hi - x) / 2.0
        f0 = extension_exact(f, x)
        f1 = extension_exact(f, x + d)
        f2 = extension_exact(f, x + 2 * d)
        assert f1 >= f0 - 1e-9 and f2 >= f1 - 1e-9  # monotone
        assert 2 * f1 >= f0 + f2 - 1e-9  # concave along d >= 0


def test_extension_marginal_estimate_coupled_sampling():
    f = make_separable_concave([1.0, 1.0], [1.0, 1.0], [4, 4])
    x = np.array([1.5, 0.25])
    delta = np.array([1, 0], dtype=np.int64)
    est = _marginal_estimate(f, delta, x)
    # modular f: marginal of +1 unit is exactly 1 at every cell corner
    assert est == pytest.approx(1.0)


def random_monotone_table(rng, box):
    """Table oracle on [0, box], monotone: cumulative sums of non-negative steps."""
    steps = rng.uniform(0.0, 1.0, size=tuple(int(c) + 1 for c in box))
    steps[(0,) * len(box)] = 0.0
    table = steps
    for axis in range(len(box)):
        table = np.cumsum(table, axis=axis)
    return ValueOracle(
        lambda x: float(table[tuple(int(v) for v in x)]),
        np.asarray(box, dtype=np.int64),
    )


def random_cell_point(rng, room):
    """A point in [0, room] whose coordinates are fractional or integral at random."""
    x = rng.uniform(0.0, room)
    integral = rng.random(room.shape[0]) < 0.3
    x[integral] = rng.integers(0, room[integral] + 1)
    return x


def test_marginal_estimate_is_exact_when_the_cell_is_small():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        box = rng.integers(1, 4, size=n)
        f = random_monotone_table(rng, box)
        delta = np.array([rng.integers(0, c + 1) for c in box], dtype=np.int64)
        x = random_cell_point(rng, (box - delta).astype(np.float64))
        m = int(np.count_nonzero(np.abs(x - np.round(x)) > 1e-9))
        want = extension_exact(f, x + delta) - extension_exact(f, x)
        before = f.calls
        a = _marginal_estimate(f, delta, x)
        assert f.calls - before == 2 * 2**m
        b = _marginal_estimate(f, delta, x)
        assert a == b  # exact: the same sum on every call
        assert a == pytest.approx(want, abs=1e-12)


def _old_subset_weights(frac_vals):
    m = frac_vals.shape[0]
    masks = np.zeros((1, 0), dtype=np.int64)
    weights = np.ones(1, dtype=np.float64)
    for i in range(m):
        p = frac_vals[i]
        masks = np.vstack(
            [
                np.hstack([masks, np.zeros((masks.shape[0], 1), dtype=np.int64)]),
                np.hstack([masks, np.ones((masks.shape[0], 1), dtype=np.int64)]),
            ]
        )
        weights = np.concatenate([weights * (1.0 - p), weights * p])
    return masks, weights


def _old_extension_exact(f, x):
    base, frac = split_point(f, x)
    idx = np.flatnonzero(frac > 0)
    if idx.size == 0:
        return f.eval(base)
    if idx.size > MAX_ENUMERATION_N:
        raise CapacityError("too many fractional coordinates")
    masks, weights = _old_subset_weights(frac[idx])
    points = np.repeat(base[None, :], masks.shape[0], axis=0)
    points[:, idx] += masks
    values = f.eval_batch(points)
    return float(np.dot(values, weights))


def test_cell_expansion_matches_the_old_code_bit_for_bit():
    rng = np.random.default_rng(23)
    f = make_budget_allocation(
        [(0, 0, 0.5), (1, 0, 0.3), (1, 1, 0.6), (2, 1, 0.4), (3, 0, 0.2)], [3, 3, 3, 3]
    )
    for _ in range(50):
        x = random_cell_point(rng, f.box.astype(np.float64))
        assert extension_exact(f, x) == _old_extension_exact(f, x)


def test_cell_corners_match_the_doubling_loop_bit_for_bit():
    # the bit-matrix corners and their product weights equal, bit for bit,
    # those the doubling loop built, also at fractions such as 1/3 and the
    # float just below it
    rng = np.random.default_rng(29)
    odd = np.array([1 / 3, 0.33333333333333326, 2 / 3, 0.1, 1e-9, 1 - 1e-9])
    for _ in range(300):
        n = int(rng.integers(1, 14))
        idx = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        frac = np.zeros(n)
        frac[idx] = np.where(rng.random(idx.size) < 0.5, rng.random(idx.size),
                             rng.choice(odd, idx.size))
        base = rng.integers(0, 4, size=n)
        points, weights = _cell_corners(base, frac, idx)
        masks, old_weights = _old_subset_weights(frac[idx])
        old_points = np.repeat(base[None, :], masks.shape[0], axis=0)
        old_points[:, idx] += masks
        assert points.dtype == old_points.dtype and np.array_equal(points, old_points)
        assert weights.tobytes() == old_weights.tobytes()


def test_sample_rounding_matches_marginals():
    f = ValueOracle(lambda x: float(sum(x)), np.array([3, 3]))
    rng = np.random.default_rng(0)
    draws = sample_rounding(f, np.array([1.25, 2.0]), 4000, rng)
    assert draws.shape == (4000, 2)
    assert set(np.unique(draws[:, 0])) <= {1, 2}
    assert np.all(draws[:, 1] == 2)
    assert abs(draws[:, 0].mean() - 1.25) < 0.05


def grad_plus_reference(fn, x, e):
    """Forward difference fully inside one cell (F is linear per coordinate)."""
    h = 1e-4
    x0 = np.asarray(x, dtype=np.float64)
    x1 = x0.copy()
    x1[e] += h
    return (reference_extension(fn, x1) - reference_extension(fn, x0)) / h


def face_slope(f, x, e, face):
    """F(x with x_e = face + 1) - F(x with x_e = face).

    F is linear in x_e inside a unit cell, so this is its slope along e in
    the cell [face, face + 1]: the right partial at x for face = floor(x_e),
    the left one for face = ceil(x_e) - 1.
    """
    lo, hi = np.array(x, dtype=np.float64), np.array(x, dtype=np.float64)
    lo[e], hi[e] = face, face + 1
    return extension_exact(f, hi) - extension_exact(f, lo)


def test_extension_partials_match_reference():
    f = make_budget_allocation([(0, 0, 0.5), (1, 0, 0.4), (1, 1, 0.25)], [3, 3])
    fn = lambda z: f.eval_batch(z.reshape(1, -1))[0]
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(0.1, 2.9, size=2)
        e = int(rng.integers(0, 2))
        got = face_slope(f, x, e, math.floor(x[e]))
        want = grad_plus_reference(fn, x, e)
        assert got == pytest.approx(want, rel=1e-6)


def test_extension_partial_gradient_ordering_at_lattice_planes():
    f = make_separable_concave([1.0, 1.3], [0.5, 0.7], [3, 3])
    rng = np.random.default_rng(11)
    for _ in range(40):
        x = rng.uniform(0, 3, size=2)
        e = int(rng.integers(0, 2))
        x[e] = float(rng.integers(1, 3))  # integral coordinate in [1, c-1]
        minus = face_slope(f, x, e, x[e] - 1)
        plus = face_slope(f, x, e, x[e])
        assert minus >= plus - 1e-9


def test_central_difference_matches_partial_off_plane():
    f = make_separable_concave([1.0, 0.8], [0.5, 1.0], [3, 3])
    fn = lambda z: f.eval_batch(z.reshape(1, -1))[0]
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.uniform(0.2, 2.8, size=2)
        for e in range(2):
            if abs(x[e] - round(x[e])) < 0.05:
                continue
            h = 0.01
            central = (
                reference_extension(fn, x + h * np.eye(2)[e])
                - reference_extension(fn, x - h * np.eye(2)[e])
            ) / (2 * h)
            assert face_slope(f, x, e, math.floor(x[e])) == pytest.approx(central, rel=1e-6)
