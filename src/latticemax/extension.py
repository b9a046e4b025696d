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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, ValueOracle, as_fractional_point

# Coordinates within this distance of an integer are treated as integral,
# guarding against drift from repeated fractional updates.
SNAP_TOLERANCE = 1e-9

MAX_EXACT_FRACTIONAL = 20


@dataclass(frozen=True)
class EstimatorParams:
    """Accuracy knobs for the sampled extension.

    With m = samples(k_max) draws, a single estimate of a mean of values in
    [0, M] lands within (alpha * mean + beta * M) on both sides except with
    probability about delta / k_max, by the multiplicative-additive
    Chernoff bound exp(-m * alpha * beta / 3).
    """

    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")

    def samples(self, k_max: int) -> int:
        arg = 2.0 * max(k_max, 2) / self.delta
        return int(math.ceil(3.0 * math.log(arg) / (self.alpha * self.beta)))


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
    masks = np.zeros((1, 0), dtype=np.int64)
    weights = np.ones(1, dtype=np.float64)
    for p in frac[idx]:
        masks = np.vstack(
            [
                np.hstack([masks, np.zeros((masks.shape[0], 1), dtype=np.int64)]),
                np.hstack([masks, np.ones((masks.shape[0], 1), dtype=np.int64)]),
            ]
        )
        weights = np.concatenate([weights * (1.0 - p), weights * p])
    points = np.repeat(base[None, :], masks.shape[0], axis=0)
    points[:, idx] += masks
    return points, weights


def extension_exact(f: ValueOracle, x) -> float:
    """F(x) by exact expansion over the fractional coordinates.

    Costs 2^m oracle calls for m fractional coordinates; m is capped at
    ``MAX_EXACT_FRACTIONAL`` (CapacityError beyond, use the estimator).
    """
    base, frac = split_point(f, x)
    idx = np.flatnonzero(frac > 0)
    if idx.size == 0:
        return f.eval(base)
    if idx.size > MAX_EXACT_FRACTIONAL:
        raise CapacityError(
            f"{idx.size} fractional coordinates exceed the exact-expansion cap "
            f"({MAX_EXACT_FRACTIONAL}); use extension_estimate"
        )
    points, weights = _cell_corners(base, frac, idx)
    values = f.eval_batch(points)
    return float(np.dot(values, weights))


def sample_rounding(f: ValueOracle, x, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` integer points from D(x) as a (count, n) matrix."""
    base, frac = split_point(f, x)
    draws = rng.random((count, f.n)) < frac[None, :]
    return base[None, :] + draws.astype(np.int64)


def extension_estimate(f: ValueOracle, x, sample_count: int, seed: int) -> float:
    """Monte Carlo estimate of F(x): the mean of f over D(x) samples.

    Deterministic for a fixed seed.  Integral x short-circuits to a single
    exact evaluation.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    base, frac = split_point(f, x)
    if not np.any(frac > 0):
        return f.eval(base)
    rng = np.random.default_rng(seed)
    points = sample_rounding(f, x, sample_count, rng)
    return float(f.eval_batch(points).mean())


def _marginal_estimate(
    f: ValueOracle, delta: np.ndarray, x, sample_count: int, rng: np.random.Generator
) -> float:
    """E[f(delta | z)] over z ~ D(x): exact when the cell is small, else sampled.

    With m fractional coordinates in x, the exact sum over the 2^m corners
    of x's unit cell, weighted by their D(x) probabilities, is taken when
    2^m <= sample_count; it draws nothing from ``rng``.  Otherwise the mean
    over ``sample_count`` coupled draws is returned.  Either way the cost is
    2 * min(2^m, sample_count) oracle calls in two ``eval_batch`` calls.

    Coupling the two evaluations per draw matches the concentration
    argument: each sample f(z + delta) - f(z) lies in [0, f(delta)] for
    monotone DR-submodular f.  The exact sum is its zero-variance case.
    """
    base, frac = split_point(f, x)
    idx = np.flatnonzero(frac > 0)
    if 2**idx.size <= sample_count:
        points, weights = _cell_corners(base, frac, idx)
    else:
        points, weights = sample_rounding(f, x, sample_count, rng), None
    vals = f.eval_batch(points + delta[None, :]) - f.eval_batch(points)
    return float(vals.mean() if weights is None else np.dot(vals, weights))
