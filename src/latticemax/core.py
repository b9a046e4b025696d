"""Ground-set vectors, evaluation oracles, and an exhaustive property checker.

Solutions are non-negative integer vectors over a ground set of n elements
(indices 0..n-1), represented as numpy int64 arrays.  Objectives are black
boxes wrapped in :class:`ValueOracle`: an evaluation function on the box
[0, c], normalized so f(0) = 0, with a thread-safe call counter.

The checker decides every witness tuple on the box, so it is for small
boxes only.  It decides whether an oracle is monotone, submodular on the
lattice (f(x) + f(y) >= f(x v y) + f(x ^ y)), or diminishing-returns
submodular (unit marginals non-increasing in the base point).
DR-submodularity implies lattice submodularity.  It reads f once, as a
table over the box, decides each kind with whole-array passes over that
table (prefix extrema; batched pairs for the lattice kind), and reads the
witness rows of only the points that hold a violation straight off the
table.  The table certifier ``instances.make_lattice_non_dr`` shares
those passes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

# Absolute tolerance shared by all inequality checkers.
CHECK_TOLERANCE = 1e-9

# Most witness tuples ``check_property_exhaustive`` will check.
MAX_WITNESSES = 2_000_000

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
    """Validate ``x`` and return a copy of it as a non-negative float64 vector.

    The copy's least and greatest entries (each taken with 0.0) decide
    both checks: a NaN or an infinite entry makes one of them non-finite,
    and a negative entry makes the least one negative.
    """
    arr = np.array(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"point must be 1-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected dimension {n}, got {arr.shape[0]}")
    lo = arr.min(initial=0.0)
    if not (math.isfinite(lo) and math.isfinite(arr.max(initial=0.0))):
        raise ValueError("point entries must be finite")
    if lo < 0:
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
        # acquire/release in try/finally: as safe as ``with``, and cheaper per call
        self._lock.acquire()
        try:
            self._n += k
        finally:
            self._lock.release()

    @property
    def count(self) -> int:
        return self._n


class ValueOracle:
    """Black-box access to f: [0, c] -> R+ with f(0) = 0.

    Args:
        fn: evaluation function taking an int64 vector and returning a float;
            ``eval``, ``eval_along`` and ``eval_batch`` (row by row) all call
            it, so each point has one value.
        box: per-coordinate cap c (non-negative integers).
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
    :meth:`shifted` own read-only boxes of their own.  The constructor
    evaluates fn(0) once to check f(0) = 0 and keeps the float (``_f0``);
    that evaluation is not counted.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], float],
        box,
        meta: Mapping | None = None,
        counter: CallCounter | None = None,
    ):
        self._fn = fn
        self.box = as_lattice_point(box)
        self.box.flags.writeable = False
        self.n = len(self.box)  # the box is read-only, so n never changes
        # the box as Python ints: _validate compares each point in one pass
        self._cap = self.box.tolist()
        self.meta = dict(meta) if meta else {}
        self._counter = counter if counter is not None else CallCounter()
        z = float(fn(zeros(self.n)))
        if not abs(z) <= CHECK_TOLERANCE:  # NaN fails too
            raise ValueError(f"oracle must satisfy f(0) = 0, got f(0) = {z}")
        # the float ``eval`` returns at 0, read by the check above; a solve's
        # point memo starts out holding it
        self._f0 = z

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
        v = x.item(e)
        if v < 0 or v > self._cap[e]:
            raise ValueError(f"point {x.tolist()} outside box {self._cap}")
        self._counter.add(1)
        return float(self._fn(x))

    def eval_batch(self, X) -> np.ndarray:
        """Evaluate m points given as an (m, n) matrix; counts m calls.

        Each row goes through ``fn``, so it gets the float ``eval`` returns.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected an (m, {self.n}) matrix, got shape {X.shape}")
        if X.dtype.kind not in "iu":
            raise ValueError("oracle arguments must be integer matrices")
        if np.any(X < 0) or np.any(X > self.box[None, :]):
            raise ValueError("batch contains points outside the box")
        self._counter.add(int(X.shape[0]))
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
        return ValueOracle(fn, self.box - y, counter=self._counter)


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


# (x, y) pairs per batch of the lattice flags, whatever the box
_PAIR_BATCH = 1 << 16


def _trials(box, kind: str) -> int:
    """The number of witness tuples ``kind`` has on the box (exact Python ints)."""
    sizes = [int(c) + 1 for c in box]
    if kind == "lattice_submodular":
        return math.prod(sizes) ** 2
    # pairs x_i <= y_i on a coordinate of s points: s(s + 1)/2, or s(s - 1)/2
    # along the e of a dr step, which needs y_e < c_e
    pairs = [s * (s + 1) // 2 for s in sizes]
    if kind == "monotone":
        return math.prod(pairs)
    return sum(
        math.prod(pairs[:e] + [s * (s - 1) // 2] + pairs[e + 1 :]) for e, s in enumerate(sizes)
    )


def _check_capacity(box, kind: str) -> None:
    """Raise CapacityError when a check of ``kind`` would exceed ``MAX_WITNESSES``.

    A dr_submodular check is charged n tuples per dominated pair x <= y.
    """
    if kind == "lattice_submodular":
        if _trials(box, kind) > MAX_WITNESSES:
            raise CapacityError("box too large for exhaustive lattice check")
        return
    tuples = _trials(box, "monotone") * (len(box) if kind == "dr_submodular" else 1)
    if tuples > MAX_WITNESSES:
        raise CapacityError("box too large for exhaustive check")


def _prefix(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the box [0, y] below every y of ``a``: one accumulate per axis."""
    for axis in range(a.ndim):
        a = ufunc.accumulate(a, axis=axis)
    return a


@np.errstate(invalid="ignore")  # inf - inf is NaN, failing its test silently, as in Python
def _flags(table: np.ndarray, kind: str) -> np.ndarray:
    """Flag the points of ``table`` at which some witness tuple of ``kind`` fails.

    ``table`` holds f over the whole box (shape c + 1); the flags come back
    flat, in row-major (``lattice_points``) order.  A monotone or
    dr_submodular flag marks a y with a violating x <= y (for dr_submodular,
    along some e with y_e < c_e); a lattice_submodular flag marks an x with a
    violating y.  Each flag is exact in floats:

    - monotone: y fails against some x <= y iff it fails against the prefix
      maximum M(y) = max_{x <= y} f(x), since x -> f(x) - tol rounds
      monotonically; ``np.maximum`` carries a NaN, as the tuple check fails it.
    - dr_submodular: with D_e = ``np.diff(table, axis=e)`` (the float
      f(x + e_e) - f(x) of every tuple), (y, e) fails iff the prefix minimum
      of D_e at y fails against D_e(y).
    - lattice_submodular: every pair, in batches of x rows that hold about
      ``_PAIR_BATCH`` pairs each.
    """
    if kind == "monotone":
        bad = ~(table >= _prefix(np.maximum, table) - CHECK_TOLERANCE)
    elif kind == "dr_submodular":
        bad = np.zeros(table.shape, dtype=bool)
        for e in range(table.ndim):
            gain = np.diff(table, axis=e)
            bad[(slice(None),) * e + (slice(-1),)] |= ~(
                _prefix(np.minimum, gain) >= gain - CHECK_TOLERANCE
            )
    else:
        values = table.ravel()
        points = np.indices(table.shape).reshape(table.ndim, values.size)
        strides = [math.prod(table.shape[i + 1 :]) for i in range(table.ndim)]
        step = max(1, _PAIR_BATCH // values.size)
        bad = np.empty(values.size, dtype=bool)
        for lo in range(0, values.size, step):
            join = meet = 0
            for axis, stride in zip(points, strides):
                a = axis[lo : lo + step, None]
                join = join + np.maximum(a, axis) * stride
                meet = meet + np.minimum(a, axis) * stride
            lhs = values[lo : lo + step, None] + values
            bad[lo : lo + step] = ~(lhs >= values[join] + values[meet] - CHECK_TOLERANCE).all(1)
    return bad.ravel()


@np.errstate(invalid="ignore")  # as in _flags
def _witnesses(table: np.ndarray, kind: str, at) -> list[Witness]:
    """The witnesses of ``kind`` at the flagged points ``at`` (ascending flat indices).

    Each point's rows are read straight off ``table``, in the order
    ``check_property_exhaustive`` states: for a lattice x, every y, with
    f(x v y) and f(x ^ y) read through sparse index grids; for a monotone
    y, the sub-box [0, y]; for a dr_submodular y, the unit gains
    (``np.diff``) over [0, y] of each e with y_e below the cap, stacked last
    so that rows run x-major, then e.  ``np.argwhere`` lists a point's
    failing rows in row-major order, with Python-int coordinates.
    """
    if len(at) == 0:
        return []
    if kind == "dr_submodular":  # the only kind that subtracts table entries
        gains = [np.diff(table, axis=e) for e in range(table.ndim)]
    grid = np.indices(table.shape, sparse=True)  # one broadcastable index per axis
    found: list[Witness] = []
    for i in at:
        p = tuple(int(v) for v in np.unravel_index(i, table.shape))
        below = tuple(slice(v + 1) for v in p)
        if kind == "lattice_submodular":
            lhs = table[p] + table
            join = tuple(np.maximum(g, v) for g, v in zip(grid, p))
            meet = tuple(np.minimum(g, v) for g, v in zip(grid, p))
            rhs = table[join] + table[meet]
        elif kind == "monotone":
            lhs, rhs = table[p], table[below]
        else:
            room = [e for e, v in enumerate(p) if v < table.shape[e] - 1]
            lhs = np.stack([gains[e][below] for e in room], axis=-1)
            rhs = np.array([gains[e][p] for e in room])
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        bad = ~(lhs >= rhs - CHECK_TOLERANCE)
        rows = zip(np.argwhere(bad).tolist(), lhs[bad].tolist(), rhs[bad].tolist())
        if kind == "lattice_submodular":
            found += [Witness(p, tuple(y), None, None, l, r) for y, l, r in rows]
        elif kind == "monotone":
            found += [Witness(tuple(x), p, None, None, l, r) for x, l, r in rows]
        else:
            found += [Witness(tuple(x[:-1]), p, room[x[-1]], 1, l, r) for x, l, r in rows]
    return found


def check_property_exhaustive(f: ValueOracle, kind: str) -> PropertyReport:
    """Check every witness tuple on the full box.

    Witnesses come in the order of nested loops: x then y over the box for
    the lattice check; otherwise y over the box, x over [0, y], then (for
    dr_submodular) each e with y_e below the cap.  ``trials`` counts the
    tuples.
    Raises CapacityError, before any oracle call, when the tuple count
    exceeds ``MAX_WITNESSES``.  Otherwise f is read once, as a table over
    the box with one ``eval_batch`` (one call per lattice point); a
    dr_submodular check of an all-zero box has no witness and makes no call.
    Whole-array passes over the table (:func:`_flags`) then flag the points
    that hold a violation, and :func:`_witnesses` reads only those points'
    rows off the table, so a check that passes builds none.  Memory is a
    few copies of the table, plus one batch of pairs for the lattice check.
    """
    if kind not in PROPERTY_KINDS:
        raise ValueError(f"unknown property kind {kind!r}")
    _check_capacity(f.box, kind)
    if kind == "dr_submodular" and not f.box.any():
        return PropertyReport(kind, 0)  # no coordinate has room for a step
    shape = tuple(c + 1 for c in f.box.tolist())
    # one contiguous row per point, in row-major (``lattice_points``) order
    table = f.eval_batch(np.indices(shape).reshape(f.n, math.prod(shape)).T.copy()).reshape(shape)
    at = np.flatnonzero(_flags(table, kind))
    return PropertyReport(kind, _trials(f.box, kind), _witnesses(table, kind, at))
