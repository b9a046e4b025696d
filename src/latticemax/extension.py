"""Continuous extension of lattice functions by independent rounding.

For fractional x in [0, c], let D(x) round each coordinate i down to
floor(x(i)) with probability 1 - frac(x(i)) and up to floor(x(i)) + 1
otherwise, independently.  The extension is F(x) = E[f(z)], z ~ D(x):

    F(x) = sum_{S subset of fractional coords} f(floor(x) + e_S)
           * prod_{i in S} frac(x(i)) * prod_{i not in S} (1 - frac(x(i))).

On set functions (c = 1) this is the classical multilinear extension.  For
monotone DR-submodular f, F is monotone and concave along non-negative
directions, and within each unit cell it is multilinear, hence linear in
every single coordinate.

F and its marginals are computed exactly, as weighted sums over the 2^m
corners of the unit cell around x (m fractional coordinates), so m is
capped at ``MAX_ENUMERATION_N``.
"""

from __future__ import annotations

import numpy as np

from .core import MAX_ENUMERATION_N, CapacityError, ValueOracle, as_fractional_point, subset_masks

# Coordinates within this distance of an integer are treated as integral,
# guarding against drift from repeated fractional updates.
SNAP_TOLERANCE = 1e-9


def _snap(x: np.ndarray) -> np.ndarray:
    """x with every coordinate within SNAP_TOLERANCE of an integer rounded to it."""
    return np.where(np.abs(x - np.round(x)) <= SNAP_TOLERANCE, np.round(x), x)


def split_point(f: ValueOracle, x) -> tuple[np.ndarray, np.ndarray]:
    """Split x into (floor, fractional) parts, snapping near-integers."""
    x = as_fractional_point(x, f.n)
    snapped = _snap(x)
    if np.any(snapped < 0) or np.any(snapped > f.box + SNAP_TOLERANCE):
        raise ValueError(f"point {x.tolist()} outside box {f.box.tolist()}")
    snapped = np.minimum(snapped, f.box.astype(np.float64))
    base = np.floor(snapped).astype(np.int64)
    frac = snapped - base
    return base, frac


def _cell_corners(
    base: np.ndarray, frac: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the unit cell above ``base`` spanned by coordinates ``idx``.

    Returns (points, weights): points is a (2^m, n) integer matrix holding
    base + e_S for every subset S of idx (m = len(idx)), weights the D(x)
    probabilities prod_{i in S} frac(i) * prod_{i in idx - S} (1 - frac(i)).
    """
    masks = subset_masks(idx.size)
    p = frac[idx]
    weights = np.prod(np.where(masks == 1, p, 1.0 - p), axis=1)
    points = np.repeat(base[None, :], masks.shape[0], axis=0)
    points[:, idx] += masks
    return points, weights


def _fractional_coords(frac: np.ndarray) -> np.ndarray:
    """Indices of the fractional coordinates; CapacityError past the cap."""
    idx = np.flatnonzero(frac > 0)
    if idx.size > MAX_ENUMERATION_N:
        raise CapacityError(
            f"{idx.size} fractional coordinates exceed the exact-expansion cap "
            f"({MAX_ENUMERATION_N})"
        )
    return idx


def extension_exact(f: ValueOracle, x) -> float:
    """F(x) by exact expansion over the fractional coordinates.

    Costs at most 2^m oracle calls for m fractional coordinates, in one
    ``eval_batch`` call; through a memo (``cardinality._PointMemo``) a
    repeated corner costs none.  m is capped at ``MAX_ENUMERATION_N``
    (CapacityError beyond, before any call).
    """
    base, frac = split_point(f, x)
    idx = _fractional_coords(frac)
    if idx.size == 0:
        return f.eval(base)
    points, weights = _cell_corners(base, frac, idx)
    values = f.eval_batch(points)
    return float(np.dot(values, weights))


def sample_rounding(f: ValueOracle, x, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` integer points from D(x) as a (count, n) matrix."""
    base, frac = split_point(f, x)
    draws = rng.random((count, f.n)) < frac[None, :]
    return base[None, :] + draws.astype(np.int64)


def _marginal_estimate(f: ValueOracle, delta: np.ndarray, x) -> float:
    """F(delta | x) = E[f(z + delta) - f(z)] over z ~ D(x), summed exactly.

    With m fractional coordinates in x, the sum runs over the 2^m corners
    of x's unit cell, weighted by their D(x) probabilities, and costs at
    most 2 * 2^m oracle calls in two ``eval_batch`` calls; through a memo a
    repeated point costs none.  Each coupled term
    f(z + delta) - f(z) lies in [0, f(delta)] for monotone DR-submodular f.
    m is capped as in ``extension_exact``.  No solver calls it; it stays as
    the sum that the tests' reference direction search
    (``_old_binary_search_polymatroid``) bisects on.
    """
    base, frac = split_point(f, x)
    points, weights = _cell_corners(base, frac, _fractional_coords(frac))
    vals = f.eval_batch(points + delta[None, :]) - f.eval_batch(points)
    return float(np.dot(vals, weights))
