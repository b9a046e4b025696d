"""Oracle and constraint families with known structure.

Each constructor returns a :class:`ValueOracle` whose property class
(DR-submodular, or only lattice-submodular) is advertised in ``meta`` and
can be certified exhaustively on small boxes.  Construction is pure: equal
parameters produce oracles that agree on every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MAX_ENUMERATION_N, ValueOracle, check_property_exhaustive, subset_masks
from .polymatroid import PolymatroidOracle


def make_separable_concave(coeffs, powers, cap) -> ValueOracle:
    """f(x) = sum_e a_e * min(x(e), c(e))^{p_e}, with finite a >= 0 and p in (0, 1].

    Monotone and DR-submodular (separable with concave pieces).  The scalar
    evaluation skips each e with x(e) = 0: its term a_e * 0^{p_e} is +0.0,
    and a sum started at 0.0 is unchanged by adding +0.0, so skipping it
    leaves every value the same bit for bit.
    """
    a = np.asarray(coeffs, dtype=np.float64)
    p = np.asarray(powers, dtype=np.float64)
    c = np.asarray(cap, dtype=np.int64)
    if not (a.shape == p.shape == c.shape) or a.ndim != 1:
        raise ValueError("coeffs, powers, and cap must be 1-d and equally sized")
    if np.any(a < 0):
        raise ValueError("coefficients must be non-negative")
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    if not ((p > 0) & (p <= 1)).all():  # negated so that a NaN power fails it
        raise ValueError("powers must lie in (0, 1]")
    coeff = a.tolist()
    power = p.tolist()
    capl = c.tolist()

    def fn(x):
        tot = 0.0
        for ai, pi, ci, xi in zip(coeff, power, capl, x.tolist()):
            if xi:  # a zero would add a_e * 0 ** p_e == +0.0
                tot += ai * min(xi, ci) ** pi
        return tot

    def batch(X):
        Z = np.minimum(X, c[None, :]).astype(np.float64)
        out = np.zeros(X.shape[0])
        for i in range(len(coeff)):
            col = Z[:, i]
            if power[i] == 1.0:
                v = col
            elif power[i] == 0.5:
                v = np.sqrt(col)
            else:
                v = col ** power[i]
            out += coeff[i] * v
        return out

    meta = {"family": "separable_concave", "dr_submodular": True}
    return ValueOracle(fn, c, batch_fn=batch, meta=meta)


def make_budget_allocation(edges, cap) -> ValueOracle:
    """Expected target coverage of a bipartite influence instance.

    ``edges`` is a list of (source, target, probability) triples with each
    probability in (0, 1); a source assigned x(s) units activates each
    incident target independently with probability 1 - (1 - q_st)^{x(s)}, and

        f(x) = sum_t (1 - prod_{s} (1 - q_st)^{x(s)}).

    Monotone and DR-submodular.  Marginals are accumulated per target, so
    one evaluation costs O(#edges).  The scalar evaluation skips each
    source with x(s) = 0: its factor (1 - q)^0 is 1.0, so skipping it
    leaves every value the same bit for bit.
    """
    c = np.asarray(cap, dtype=np.int64)
    n = c.shape[0]
    by_target: dict[int, list[tuple[int, float]]] = {}
    for edge in edges:
        try:
            s, t, q = edge
        except (TypeError, ValueError):
            raise ValueError(
                f"edge {edge!r} is not a (source, target, probability) triple"
            ) from None
        s, t, q = int(s), int(t), float(q)
        if not 0 <= s < n:
            raise ValueError(f"edge source {s} out of range")
        if not 0 < q < 1:
            raise ValueError(f"edge probability must lie in (0, 1), got {q}")
        by_target.setdefault(t, []).append((s, 1.0 - q))
    # per target, its (source, 1 - q) pairs as Python ints and floats
    pairs = [lst for _, lst in sorted(by_target.items())]
    groups = [
        (np.array([s for s, _ in lst]), np.array([om for _, om in lst]))
        for lst in pairs
    ]

    def fn(x):
        x = x.tolist()
        tot = 0.0
        for lst in pairs:
            prod = 1.0
            for s, om in lst:
                k = x[s]
                if k:  # a zero would multiply prod by om ** 0 == 1.0
                    prod *= om ** k
            tot += 1.0 - prod
        return tot

    def batch(X):
        out = np.zeros(X.shape[0])
        for srcs, omq in groups:
            out += 1.0 - np.prod(omq[None, :] ** X[:, srcs], axis=1)
        return out

    meta = {"family": "budget_allocation", "dr_submodular": True, "targets": len(groups)}
    return ValueOracle(fn, c, batch_fn=batch, meta=meta)


def make_lattice_non_dr(table) -> ValueOracle:
    """Table-lookup oracle certified monotone and lattice-submodular.

    The table is an n-dimensional array over the full box (shape c + 1).
    Construction fails with a witness if monotonicity or lattice
    submodularity is violated.  Whether the table also fails the
    diminishing-returns check is recorded in ``meta['strictly_non_dr']``;
    DR tables are accepted but flagged.  Every call certifies the table
    anew with three exhaustive checks (one ``eval_batch`` over the box
    each) on an oracle of its own, so the returned oracle starts at 0
    calls; the harness builds each instance once per run and shares it.
    """
    arr = np.asarray(table, dtype=np.float64)
    if arr.ndim < 1:
        raise ValueError("table must have at least one dimension")
    if np.any(arr < 0):
        raise ValueError("table values must be non-negative")
    box = np.array(arr.shape, dtype=np.int64) - 1

    def fn(x):
        return float(arr[tuple(int(v) for v in x)])

    def batch(X):
        return arr[tuple(X.T)]

    checked = ValueOracle(fn, box, batch_fn=batch)
    for kind in ("monotone", "lattice_submodular"):
        report = check_property_exhaustive(checked, kind)
        if not report.passed:
            w = report.violations[0]
            raise ValueError(
                f"table violates {kind}: x={w.x}, y={w.y}, lhs={w.lhs}, rhs={w.rhs}"
            )
    dr = check_property_exhaustive(checked, "dr_submodular").passed
    meta = {"family": "lattice_table", "dr_submodular": dr, "strictly_non_dr": not dr}
    return ValueOracle(fn, box, batch_fn=batch, meta=meta)


def _separable_convex_table(g, n: int) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    grids = np.meshgrid(*([g] * n), indexing="ij")
    return sum(grids)


def _coupled_kink_table() -> np.ndarray:
    g = np.array([0.0, 1.0, 3.0, 6.0])
    i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    return 2.0 * np.minimum(i + j, 2) + g[i] + g[j]


# Monotone lattice-submodular tables that fail the DR check; certified by
# make_lattice_non_dr at load time in the test suite.
NON_DR_TABLES: dict[str, np.ndarray] = {
    "convex_ladder_2d": _separable_convex_table([0.0, 1.0, 3.0], 2),
    "convex_ladder_3d": _separable_convex_table([0.0, 1.0, 3.0], 3),
    "steep_tail_2d": _separable_convex_table([0.0, 1.0, 2.0, 4.0, 7.0], 2),
    "coupled_kink_2d": _coupled_kink_table(),
}


def uniform_polymatroid(n: int, per_element: int, total: int) -> PolymatroidOracle:
    """rho(S) = min(per_element * |S|, total)."""
    if per_element < 0 or total < 0:
        raise ValueError("uniform polymatroid parameters must be non-negative")

    def member(x):
        return bool(x.max(initial=0.0) <= per_element + 1e-9 and x.sum() <= total + 1e-9)

    def rank(S):
        return min(per_element * len(S), total)

    return PolymatroidOracle(n, member, rank, name=f"uniform({per_element},{total})")


def partition_polymatroid(parts, caps, n: int | None = None) -> PolymatroidOracle:
    """Per-element integer caps assigned by part: rho(S) = sum_{e in S} cap(part(e))."""
    parts = [sorted(int(e) for e in part) for part in parts]
    caps = [int(c) for c in caps]
    if len(parts) != len(caps):
        raise ValueError("parts and caps must have equal length")
    if any(c < 0 for c in caps):
        raise ValueError("caps must be non-negative")
    covered = [e for part in parts for e in part]
    if n is None:
        n = max(covered) + 1 if covered else 0
    if sorted(covered) != list(range(n)):
        raise ValueError("parts must partition the ground set 0..n-1")
    cap_by_element = np.zeros(n, dtype=np.int64)
    for part, c in zip(parts, caps):
        for e in part:
            cap_by_element[e] = c

    def member(x):
        return bool(np.all(x <= cap_by_element + 1e-9))

    def rank(S):
        return int(sum(cap_by_element[e] for e in S))

    return PolymatroidOracle(n, member, rank, name="partition")


def table_polymatroid(n: int, rank_table) -> PolymatroidOracle:
    """Arbitrary polymatroid from an explicit rank table.

    ``rank_table`` maps subsets (frozensets or sorted tuples) to integer
    ranks, or is a list indexed by subset bitmask.  Rank axioms
    (normalization, monotonicity, submodularity) are validated exhaustively
    on construction; membership tests every subset constraint, so n is
    capped at MAX_ENUMERATION_N.
    """
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"rank-table polymatroids support at most n={MAX_ENUMERATION_N}")
    size = 1 << n
    rho = np.zeros(size, dtype=np.int64)
    if isinstance(rank_table, (list, tuple, np.ndarray)):
        if len(rank_table) != size:
            raise ValueError(f"rank table must have {size} entries")
        rho[:] = np.asarray(rank_table, dtype=np.int64)
    else:
        for key, value in rank_table.items():
            mask = 0
            for e in key:
                mask |= 1 << int(e)
            rho[mask] = int(value)
    if rho[0] != 0:
        raise ValueError("rank of the empty set must be 0")
    if np.any(rho < 0):
        raise ValueError("ranks must be non-negative")
    for mask in range(size):
        for e in range(n):
            if mask >> e & 1:
                continue
            up = mask | 1 << e
            if rho[up] < rho[mask]:
                raise ValueError(f"rank not monotone at subset mask {mask}, element {e}")
            # local submodularity: adding g cannot raise the marginal of e
            for g in range(n):
                if g == e or mask >> g & 1:
                    continue
                with_g = mask | 1 << g
                if rho[with_g | 1 << e] - rho[with_g] > rho[up] - rho[mask] :
                    raise ValueError(
                        f"rank not submodular at subset mask {mask}, elements {e},{g}"
                    )

    masks = subset_masks(n).astype(np.float64)
    rho_f = rho.astype(np.float64)

    def member(x):
        return bool(np.all(masks @ x <= rho_f + 1e-9))

    def rank(S):
        mask = 0
        for e in S:
            mask |= 1 << int(e)
        return int(rho[mask])

    return PolymatroidOracle(n, member, rank, name="rank_table")


# config schema entries (kind, item kind, required); see harness.load_config
INTEGER = ("integer", None, True)
NUMBER = ("number", None, True)
INTEGERS = ("list", "integer", True)
NUMBERS = ("list", "number", True)

# polymatroid family -> the schema of the params ``make_polymatroid`` reads
POLYMATROID_PARAMS = {
    "uniform": {"n": INTEGER, "per_element": NUMBER, "total": NUMBER},
    "partition": {
        "parts": ("list", "integers", True), "caps": INTEGERS, "n": ("integer", None, False),
    },
    "rank_table": {"n": INTEGER, "table": INTEGERS},
}


def make_polymatroid(family: str, **params) -> PolymatroidOracle:
    """Dispatch constructor used by configuration files."""
    if family == "uniform":
        return uniform_polymatroid(params["n"], params["per_element"], params["total"])
    if family == "partition":
        return partition_polymatroid(params["parts"], params["caps"], params.get("n"))
    if family == "rank_table":
        return table_polymatroid(params["n"], params["table"])
    raise ValueError(f"unknown polymatroid family {family!r}")


def random_separable_concave(seed: int, n: int, cap_high: int) -> ValueOracle:
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.5, 2.0, size=n)
    powers = rng.choice([0.3, 0.5, 0.7, 1.0], size=n)
    cap = rng.integers(1, cap_high + 1, size=n)
    return make_separable_concave(coeffs, powers, cap)


def random_budget_allocation(seed: int, n_sources: int, n_targets: int, cap_high: int) -> ValueOracle:
    rng = np.random.default_rng(seed)
    edges = []
    for s in range(n_sources):
        for t in range(n_targets):
            if rng.random() < 0.7:
                edges.append((s, t, float(rng.uniform(0.1, 0.9))))
    if not edges:
        edges.append((0, 0, float(rng.uniform(0.1, 0.9))))
    cap = rng.integers(1, cap_high + 1, size=n_sources)
    return make_budget_allocation(edges, cap)


# oracle family -> the schema of the params ``InstanceSpec.build`` reads
ORACLE_PARAMS = {
    "separable_concave": {"coeffs": NUMBERS, "powers": NUMBERS, "cap": INTEGERS},
    "budget_allocation": {"edges": ("list", "edge", True), "cap": INTEGERS},
    "lattice_table": {"table": (("table", NON_DR_TABLES), None, True)},
    "random_separable_concave": {"n": INTEGER, "cap_high": INTEGER},
    "random_budget_allocation": {"sources": INTEGER, "targets": INTEGER, "cap_high": INTEGER},
}


@dataclass
class InstanceSpec:
    """Serializable description that fully determines an oracle."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def build(self) -> ValueOracle:
        p = self.params
        if self.family == "separable_concave":
            return make_separable_concave(p["coeffs"], p["powers"], p["cap"])
        if self.family == "budget_allocation":
            return make_budget_allocation(p["edges"], p["cap"])
        if self.family == "lattice_table":
            table = p["table"]
            return make_lattice_non_dr(NON_DR_TABLES[table] if isinstance(table, str) else table)
        if self.family == "random_separable_concave":
            return random_separable_concave(self.seed, p["n"], p["cap_high"])
        if self.family == "random_budget_allocation":
            return random_budget_allocation(
                self.seed, p["sources"], p["targets"], p["cap_high"]
            )
        raise ValueError(f"unknown instance family {self.family!r}")

    def to_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params), "seed": self.seed}

    @classmethod
    def from_dict(cls, data: dict) -> "InstanceSpec":
        return cls(
            family=data["family"],
            params=dict(data.get("params", {})),
            seed=int(data.get("seed", 0)),
        )
