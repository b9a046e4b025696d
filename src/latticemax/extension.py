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

import math

import numpy as np

from .core import MAX_ENUMERATION_N, CapacityError, ValueOracle, as_fractional_point

# Coordinates within this distance of an integer are treated as integral,
# guarding against drift from repeated fractional updates.
SNAP_TOLERANCE = 1e-9


def _snap(v: float) -> float:
    """v, or the integer nearest it (as a float) if within SNAP_TOLERANCE."""
    r = round(v)
    return float(r) if abs(v - r) <= SNAP_TOLERANCE else v


def split_point(f: ValueOracle, x) -> tuple[np.ndarray, np.ndarray]:
    """Split x into (floor, fractional) parts, snapping near-integers.

    Entry by entry on Python floats: a snapped entry above its box entry
    by more than SNAP_TOLERANCE raises ValueError, and one within it is cut
    to the box.  The parts come back as an int64 and a float64 vector.
    """
    x = as_fractional_point(x, f.n)
    base, frac = [], []
    for v, c in zip(x.tolist(), f.box.tolist()):
        v = _snap(v)
        if v > c:
            if v > c + SNAP_TOLERANCE:
                raise ValueError(f"point {x.tolist()} outside box {f.box.tolist()}")
            v = float(c)
        b = math.floor(v)
        base.append(b)
        frac.append(v - b)
    return np.array(base, dtype=np.int64), np.array(frac, dtype=np.float64)


def _cell_corners(base: np.ndarray, frac: np.ndarray, idx) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the unit cell above ``base`` spanned by coordinates ``idx``.

    Returns (points, weights): points is a (2^m, n) integer matrix holding
    base + e_S for every subset S of idx (m = len(idx)), idx[j] in the S of
    row r when bit j of r is set; weights the D(x) probabilities
    prod_{i in S} frac(i) * prod_{i in idx - S} (1 - frac(i)), multiplied
    left to right along idx.  Both lists double once per element of idx.
    """
    p = frac.tolist()
    rows, weights = [base.tolist()], [1.0]
    for i in idx:
        q = p[i]
        weights = [w * (1.0 - q) for w in weights] + [w * q for w in weights]
        rows += [row[:i] + [row[i] + 1] + row[i + 1:] for row in rows]
    return np.array(rows, dtype=np.int64), np.array(weights, dtype=np.float64)


def _fractional_coords(frac: np.ndarray) -> list[int]:
    """Indices of the fractional coordinates; CapacityError past the cap."""
    idx = [i for i, v in enumerate(frac.tolist()) if v > 0]
    if len(idx) > MAX_ENUMERATION_N:
        raise CapacityError(
            f"{len(idx)} fractional coordinates exceed the exact-expansion cap "
            f"({MAX_ENUMERATION_N})"
        )
    return idx


def extension_exact(f: ValueOracle, x) -> float:
    """F(x) by exact expansion over the fractional coordinates.

    Costs 2^m oracle calls for m fractional coordinates, in one
    ``eval_batch`` call.  The solvers read F through their point memo
    instead (``polymatroid._ExtensionRay``).  m is capped at
    ``MAX_ENUMERATION_N`` (CapacityError beyond, before any call).
    """
    base, frac = split_point(f, x)
    idx = _fractional_coords(frac)
    if not idx:
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
    most 2 * 2^m oracle calls in two ``eval_batch`` calls.  Each coupled term
    f(z + delta) - f(z) lies in [0, f(delta)] for monotone DR-submodular f.
    m is capped as in ``extension_exact``.  No solver calls it; it stays as
    the sum that the tests' reference direction search
    (``_old_binary_search_polymatroid``) bisects on.
    """
    base, frac = split_point(f, x)
    points, weights = _cell_corners(base, frac, _fractional_coords(frac))
    vals = f.eval_batch(points + delta[None, :]) - f.eval_batch(points)
    return float(np.dot(vals, weights))
