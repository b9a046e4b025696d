"""Ground-set vectors, evaluation oracles, and an exhaustive property checker.

Solutions are non-negative integer vectors over a ground set of n elements
(indices 0..n-1), represented as numpy int64 arrays.  Objectives are black
boxes wrapped in :class:`ValueOracle`: an evaluation function on the box
[0, c], normalized so f(0) = 0, with a thread-safe call counter.

The checker tests every witness tuple on the box, so it is for small
boxes only.  It decides whether an oracle is monotone, submodular on the
lattice (f(x) + f(y) >= f(x v y) + f(x ^ y)), or diminishing-returns
submodular (unit marginals non-increasing in the base point).
DR-submodularity implies lattice submodularity.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

# Absolute tolerance shared by all inequality checkers.
CHECK_TOLERANCE = 1e-9

PROPERTY_KINDS: frozenset[str] = frozenset({"dr_submodular", "lattice_submodular", "monotone"})

# Largest m for which an exact routine enumerates 2^m subsets: the
# fractional coordinates of an extension point, or a polymatroid's ground
# set for rank tables and pipage rounding.
MAX_ENUMERATION_N = 20


class CapacityError(RuntimeError):
    """Raised when an exact routine would exceed its enumeration budget."""


def as_lattice_point(x, n: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a non-negative int64 vector."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"lattice point must be 1-dimensional, got shape {arr.shape}")
    # range checks come before the cast, which would wrap an entry that
    # int64 cannot hold (and warn on a float one)
    if arr.dtype.kind == "f" and (arr == np.floor(arr)).all():
        if not np.isfinite(arr).all():
            raise ValueError("lattice point entries must be finite")
        if ((arr >= 2.0**63) | (arr < -(2.0**63))).any():
            raise ValueError("lattice point entries must fit in int64")
    elif arr.dtype.kind == "u":
        if (arr >= 2**63).any():
            raise ValueError("lattice point entries must fit in int64")
    elif arr.dtype.kind != "i":
        raise ValueError("lattice point must have integer entries")
    arr = arr.astype(np.int64, copy=True)
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected dimension {n}, got {arr.shape[0]}")
    if (arr < 0).any():
        raise ValueError("lattice point entries must be non-negative")
    return arr


def as_fractional_point(x, n: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a non-negative float64 vector."""
    arr = np.asarray(x, dtype=np.float64).copy()
    if arr.ndim != 1:
        raise ValueError(f"point must be 1-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected dimension {n}, got {arr.shape[0]}")
    if np.any(arr < 0):
        raise ValueError("point entries must be non-negative")
    return arr


def zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


def unit(n: int, e: int, k: int = 1) -> np.ndarray:
    """The vector k * e_e in Z^n."""
    if not 0 <= e < n:
        raise ValueError(f"element {e} out of range for ground set of size {n}")
    v = np.zeros(n, dtype=np.int64)
    v[e] = k
    return v


def total(x: np.ndarray) -> int:
    """x(E), the sum of all entries."""
    return int(np.asarray(x).sum())


def subset_masks(m: int) -> np.ndarray:
    """The (2^m, m) 0/1 int64 matrix whose row i holds the bits of i, lowest first."""
    return (np.arange(1 << m, dtype=np.int64)[:, None] >> np.arange(m)) & 1


def lattice_points(cap, admits=None) -> Iterator[np.ndarray]:
    """Yield every lattice point 0 <= x <= cap in lexicographic order.

    With ``admits``, the enumerator asks ``admits(x, e)`` right after
    setting ``x[e]`` (coordinates after e are 0 at that moment, and x[e] = 0
    is asked too).  On the first False it stops raising coordinate e under
    the current prefix.  This prunes exactly the inadmissible points when
    the admitted set is downward closed.  Each yielded point is a fresh
    int64 array.
    """
    cap = as_lattice_point(cap).tolist()
    n = len(cap)
    x = zeros(n)
    e = 0
    while True:
        if e < n and (admits is None or admits(x, e)):
            e += 1
            continue
        if e == n:
            yield x.copy()
        else:
            x[e] = 0
        e -= 1
        while e >= 0 and x[e] == cap[e]:
            x[e] = 0
            e -= 1
        if e < 0:
            return
        x[e] += 1


class CallCounter:
    """Thread-safe evaluation counter shared across oracle views."""

    __slots__ = ("_n", "_lock")

    def __init__(self):
        self._n = 0
        self._lock = threading.Lock()

    def add(self, k: int = 1) -> None:
        with self._lock:
            self._n += k

    @property
    def count(self) -> int:
        return self._n


class ValueOracle:
    """Black-box access to f: [0, c] -> R+ with f(0) = 0.

    Args:
        fn: evaluation function taking an int64 vector and returning a float.
        box: per-coordinate cap c (non-negative integers).
        batch_fn: optional vectorized evaluation taking an (m, n) matrix and
            returning m values; ``eval_batch`` uses it (property-check tables,
            extension cell sums).
        meta: free-form metadata attached by instance constructors.
        counter: shared call counter; views pass their parent's counter so
            the total evaluation count is preserved.

    Every ``eval`` / ``eval_batch`` checks each point before it is counted
    or evaluated: the argument must have shape (n,) (``eval``) or (m, n)
    (``eval_batch``), an integer dtype (signed or unsigned; bool, float and
    object arrays are rejected), and every entry must lie in [0, box].
    ``eval_along`` is the entry for a point on a ray y + k e whose y has
    passed that check: it checks only entry e.  A failed check raises
    ValueError and costs no call.  Each accepted call increments the
    counter by the number of points evaluated, under a lock, so concurrent
    use is safe as long as ``fn`` itself is pure.

    ``box`` is a read-only int64 array owned by the oracle; views made by
    :meth:`shifted` own read-only boxes of their own.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], float],
        box,
        batch_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        meta: Mapping | None = None,
        counter: CallCounter | None = None,
    ):
        self._fn = fn
        self._batch_fn = batch_fn
        self.box = as_lattice_point(box)
        self.box.flags.writeable = False
        # the box as Python ints: _validate compares each point in one pass
        self._cap = self.box.tolist()
        self.meta = dict(meta) if meta else {}
        self._counter = counter if counter is not None else CallCounter()
        z = float(fn(zeros(self.n)))
        if abs(z) > CHECK_TOLERANCE:
            raise ValueError(f"oracle must satisfy f(0) = 0, got f(0) = {z}")

    @property
    def n(self) -> int:
        return int(self.box.shape[0])

    @property
    def calls(self) -> int:
        return self._counter.count

    def _validate(self, x: np.ndarray) -> None:
        if x.shape != self.box.shape:
            raise ValueError(f"expected shape {self.box.shape}, got {x.shape}")
        if x.dtype.kind not in "iu":
            raise ValueError("oracle arguments must be integer vectors")
        for v, c in zip(x.tolist(), self._cap):
            if v < 0 or v > c:
                raise ValueError(f"point {x.tolist()} outside box {self._cap}")

    def eval(self, x) -> float:
        x = np.asarray(x)
        self._validate(x)
        self._counter.add(1)
        return float(self._fn(x))

    def eval_along(self, x: np.ndarray, e: int) -> float:
        """f(x) for an x that differs only in entry e from a point that passed ``_validate``.

        Only x[e] is checked against [0, box_e]; an out-of-box x raises
        ``eval``'s ValueError and costs no call.  The caller vouches for
        the rest of x, as :class:`cardinality._Ray` does for its probes.
        """
        v = int(x[e])
        if v < 0 or v > self._cap[e]:
            raise ValueError(f"point {x.tolist()} outside box {self._cap}")
        self._counter.add(1)
        return float(self._fn(x))

    def eval_batch(self, X) -> np.ndarray:
        """Evaluate m points given as an (m, n) matrix; counts m calls."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected an (m, {self.n}) matrix, got shape {X.shape}")
        if X.dtype.kind not in "iu":
            raise ValueError("oracle arguments must be integer matrices")
        if np.any(X < 0) or np.any(X > self.box[None, :]):
            raise ValueError("batch contains points outside the box")
        self._counter.add(int(X.shape[0]))
        if self._batch_fn is not None:
            out = np.asarray(self._batch_fn(X), dtype=np.float64)
            if out.shape != (X.shape[0],):
                raise RuntimeError("batch evaluation returned wrong shape")
            return out
        return np.array([float(self._fn(row)) for row in X], dtype=np.float64)

    def shifted(self, y) -> "ValueOracle":
        """The marginal view g(x) = f(x + y) - f(y) on the box c - y.

        The view shares this oracle's call counter; creating it costs one
        evaluation (for f(y)) and each view evaluation costs one more.
        """
        y = as_lattice_point(y, self.n)
        self._validate(y)
        base = self.eval(y)
        fn = lambda x: float(self._fn(x + y)) - base
        batch = None
        if self._batch_fn is not None:
            batch = lambda X: np.asarray(self._batch_fn(X + y[None, :])) - base
        return ValueOracle(fn, self.box - y, batch_fn=batch, counter=self._counter)


@dataclass(frozen=True)
class Witness:
    """A counterexample tuple recorded by a property check.

    ``lhs`` and ``rhs`` are the two sides of the violated inequality
    (the property requires lhs >= rhs up to tolerance).
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    element: int | None
    step: int | None
    lhs: float
    rhs: float


@dataclass
class PropertyReport:
    """Outcome of a property check over a set of witness tuples."""

    property_name: str
    trials: int
    violations: list[Witness] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _violations(kind: str, value, x, y, e) -> list[Witness]:
    """The witness rows (x[i], y[i], e[i]) that violate ``kind``.

    ``x`` and ``y`` are (m, n) point matrices; ``e`` is the element array
    that only the dr_submodular kind reads (its step is always one unit).
    ``value`` maps an (m, n) point matrix to its m values.  Each inequality
    reads lhs >= rhs, up to CHECK_TOLERANCE.
    """
    stepped = kind == "dr_submodular"
    if kind == "monotone":
        lhs, rhs = value(y), value(x)
    elif kind == "lattice_submodular":
        lhs = value(x) + value(y)
        rhs = value(np.maximum(x, y)) + value(np.minimum(x, y))
    else:
        rows = np.arange(x.shape[0])

        def bump(p):  # p + e_e
            out = p.copy()
            out[rows, e] += 1
            return out

        lhs = value(bump(x)) - value(x)
        rhs = value(bump(y)) - value(y)
    return [
        Witness(
            tuple(x[i]),
            tuple(y[i]),
            int(e[i]) if stepped else None,
            1 if stepped else None,
            float(lhs[i]),
            float(rhs[i]),
        )
        for i in np.flatnonzero(~(lhs >= rhs - CHECK_TOLERANCE))
    ]


def _count_dominated_pairs(box: np.ndarray) -> int:
    # number of pairs x <= y in the box: product of per-coordinate
    # triangular counts (c+1)(c+2)/2
    count = 1
    for c in box:
        count *= (int(c) + 1) * (int(c) + 2) // 2
    return count


def check_property_exhaustive(
    f: ValueOracle, kind: str, max_witnesses: int = 2_000_000
) -> PropertyReport:
    """Check every witness tuple on the full box.

    Witnesses come in the order of nested loops: x then y over the box for
    the lattice check; otherwise y over the box, x over [0, y], then (for
    dr_submodular) each e with y_e below the cap.
    Raises CapacityError, before any oracle call, when the tuple count
    exceeds ``max_witnesses``.  Otherwise f is read once, as a table over
    the box with one ``eval_batch`` (one call per lattice point), and the
    witnesses of each y are checked as one batch of rows.  A dr_submodular
    check of an all-zero box has no witness and makes no call.
    """
    if kind not in PROPERTY_KINDS:
        raise ValueError(f"unknown property kind {kind!r}")
    box = f.box
    n = f.n
    n_points = int(np.prod(box + 1))
    if kind == "lattice_submodular":
        if n_points * n_points > max_witnesses:
            raise CapacityError("box too large for exhaustive lattice check")
    else:
        pairs = _count_dominated_pairs(box)
        scale = n if kind == "dr_submodular" else 1
        if pairs * scale > max_witnesses:
            raise CapacityError("box too large for exhaustive check")
    if kind == "dr_submodular" and not box.any():
        return PropertyReport(kind, 0)  # no coordinate has room for a step

    points = np.array(list(lattice_points(box)), dtype=np.int64).reshape(n_points, n)
    table = f.eval_batch(points)
    # row-major strides: a point's row in ``points`` is its dot with these
    strides = np.array([np.prod(box[i + 1 :] + 1) for i in range(n)], dtype=np.int64)
    value = lambda p: table[p @ strides]
    report = PropertyReport(kind, 0)

    def record(x, y, e=None):
        report.trials += x.shape[0]
        report.violations += _violations(kind, value, x, y, e)

    if kind == "lattice_submodular":
        for x in points:
            record(x[None].repeat(n_points, 0), points)
        return report
    for y in points:
        below = points[(points <= y).all(axis=1)]
        if kind == "monotone":
            record(below, y[None].repeat(len(below), 0))
            continue
        room = np.flatnonzero(y < box)
        # one row per (x, e), x-major
        x = below.repeat(len(room), 0)
        record(x, y[None].repeat(len(x), 0), np.tile(room, len(below)))
    return report
