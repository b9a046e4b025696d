"""Ground-set vectors, evaluation oracles, and submodularity checkers.

Solutions are non-negative integer vectors over a ground set of n elements
(indices 0..n-1), represented as numpy int64 arrays.  Objectives are black
boxes wrapped in :class:`ValueOracle`: an evaluation function on the box
[0, c], normalized so f(0) = 0, with a thread-safe call counter.

The checkers in this module test, either on random witnesses or
exhaustively, whether an oracle is monotone, submodular on the lattice
(f(x) + f(y) >= f(x v y) + f(x ^ y)), weakly diminishing-returns
(f(x v k e_i) - f(x) >= f(y v k e_i) - f(y) for x <= y), or
diminishing-returns submodular (unit marginals non-increasing in the base
point).  DR-submodularity implies the other three for monotone f.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal, Mapping

import numpy as np

# Absolute tolerance shared by all inequality checkers.
CHECK_TOLERANCE = 1e-9

PropertyKind = Literal["dr_submodular", "lattice_submodular", "monotone", "weak_dr"]

PROPERTY_KINDS: frozenset[str] = frozenset(
    {"dr_submodular", "lattice_submodular", "monotone", "weak_dr"}
)


class CapacityError(RuntimeError):
    """Raised when an exact routine would exceed its enumeration budget."""


def as_lattice_point(x, n: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a non-negative int64 vector."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"lattice point must be 1-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and (arr == np.floor(arr)).all():
            arr = arr.astype(np.int64)
        else:
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
            returning m values; used by sampling-based routines.
        meta: free-form metadata attached by instance constructors.
        counter: shared call counter; views pass their parent's counter so
            the total evaluation count is preserved.

    Every ``eval`` / ``eval_batch`` checks each point before it is counted
    or evaluated: the argument must have shape (n,) (``eval``) or (m, n)
    (``eval_batch``), an integer dtype (signed or unsigned; bool, float and
    object arrays are rejected), and every entry must lie in [0, box].  A
    failed check raises ValueError and costs no call.  Each accepted call
    increments the counter by the number of points evaluated, under a
    lock, so concurrent use is safe as long as ``fn`` itself is pure.

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


def _violations(kind: str, value, x, y, e, k) -> list[Witness]:
    """The witness rows (x[i], y[i], e[i], k[i]) that violate ``kind``.

    ``x`` and ``y`` are (m, n) point matrices; ``e`` and ``k`` are the
    element and step arrays that only the two diminishing-returns kinds
    read.  ``value`` maps an (m, n) point matrix to its m values.  Each
    inequality reads lhs >= rhs, up to CHECK_TOLERANCE.
    """
    stepped = kind in ("dr_submodular", "weak_dr")
    if kind == "monotone":
        lhs, rhs = value(y), value(x)
    elif kind == "lattice_submodular":
        lhs = value(x) + value(y)
        rhs = value(np.maximum(x, y)) + value(np.minimum(x, y))
    else:
        rows = np.arange(x.shape[0])

        def bump(p):
            # dr_submodular: p + k e_e;  weak_dr: p v k e_e
            out = p.copy()
            at = p[rows, e]
            out[rows, e] = at + k if kind == "dr_submodular" else np.maximum(at, k)
            return out

        lhs = value(bump(x)) - value(x)
        rhs = value(bump(y)) - value(y)
    return [
        Witness(
            tuple(x[i]),
            tuple(y[i]),
            int(e[i]) if stepped else None,
            int(k[i]) if stepped else None,
            float(lhs[i]),
            float(rhs[i]),
        )
        for i in np.flatnonzero(~(lhs >= rhs - CHECK_TOLERANCE))
    ]


def check_property(f: ValueOracle, kind: str, trials: int, seed: int) -> PropertyReport:
    """Randomized property check on ``trials`` sampled witness tuples.

    Witnesses are drawn by sampling y uniformly from the box and x uniformly
    from [0, y], which covers the x <= y precondition of the monotone and
    diminishing-returns definitions; the lattice check samples x and y
    independently from the box since comparable pairs satisfy it trivially.
    A dr_submodular draw whose y has no room to step is skipped but still
    counts as a trial.  Each witness point costs one ``f.eval`` (2 per
    tuple for monotone, 4 otherwise).  Deterministic for a fixed seed.
    """
    if kind not in PROPERTY_KINDS:
        raise ValueError(f"unknown property kind {kind!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    box = f.box
    xs, ys, es, ks = [], [], [], []
    for _ in range(trials):
        if kind == "lattice_submodular":
            x = rng.integers(0, box + 1, dtype=np.int64)
            y = rng.integers(0, box + 1, dtype=np.int64)
        else:
            y = rng.integers(0, box + 1, dtype=np.int64)
            x = rng.integers(0, y + 1, dtype=np.int64)
            if kind == "dr_submodular":
                room = np.flatnonzero(y < box)
                if room.size == 0:
                    continue
                es.append(int(room[rng.integers(room.size)]))
                ks.append(1)
            elif kind == "weak_dr":
                e = int(rng.integers(f.n))
                es.append(e)
                ks.append(int(rng.integers(0, box[e] + 1)))
        xs.append(x)
        ys.append(y)
    shape = (len(xs), f.n)
    violations = _violations(
        kind,
        lambda points: np.array([f.eval(p) for p in points], dtype=np.float64),
        np.array(xs, dtype=np.int64).reshape(shape),
        np.array(ys, dtype=np.int64).reshape(shape),
        np.array(es, dtype=np.int64),
        np.array(ks, dtype=np.int64),
    )
    return PropertyReport(kind, trials, violations)


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
    the lattice check; otherwise y over the box, x over [0, y], then e, then
    k (k = 1 for dr_submodular, which skips any e with y_e at the cap).
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
        scale = {"monotone": 1, "dr_submodular": n, "weak_dr": n * (int(box.max()) + 1)}[kind]
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

    def record(x, y, e=None, k=None):
        report.trials += x.shape[0]
        report.violations += _violations(kind, value, x, y, e, k)

    if kind == "lattice_submodular":
        for x in points:
            record(x[None].repeat(n_points, 0), points)
        return report
    if kind == "weak_dr":
        steps = [(e, k) for e in range(n) for k in range(int(box[e]) + 1)]
    for y in points:
        below = points[(points <= y).all(axis=1)]
        if kind == "monotone":
            record(below, y[None].repeat(len(below), 0))
            continue
        if kind == "dr_submodular":
            steps = [(e, 1) for e in range(n) if y[e] < box[e]]
        # one row per (x, step), x-major
        step_rows = np.array(steps, dtype=np.int64).reshape(len(steps), 2)
        x = below.repeat(len(steps), 0)
        e, k = step_rows[None].repeat(len(below), 0).reshape(-1, 2).T
        record(x, y[None].repeat(len(x), 0), e, k)
    return report
