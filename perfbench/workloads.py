"""The benchmark's three workloads: inputs, one timed unit each, output checks.

Every workload turns a seed into a fixed list of units.  Set-up (input
generation and oracle/constraint construction) happens in ``make_units``;
``Unit.run`` is the timed part and calls only public library functions;
``Unit.check`` re-derives the answer's quality and validity outside timing
on freshly built oracles and constraints.

The structure of each list (sizes, families, solvers, order) is fixed; the
seed only draws the numeric parameters.  That keeps the work per run alike
across seeds, so run-to-run spread reflects the program, not the draw.

* ``greedy``: threshold greedy under cardinality at the scale of
  ``scripts/query_scaling.py``; the scalar oracle path does the work.
* ``continuous``: continuous greedy plus pipage rounding over small
  polymatroids; batched evaluation and membership search do the work.
* ``certify``: generated YAML sweeps through the harness with brute force
  on; harness, brute force, table certification and knapsack share it.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np
import yaml

from latticemax import bruteforce, cardinality, harness, instances, knapsack, polymatroid
from latticemax.instances import InstanceSpec

TOL = 1e-9
POWERS = (0.3, 0.5, 0.7, 1.0)

GREEDY_NS = (4, 8, 16)
GREEDY_CAPS = (16, 64, 256, 1024)
GREEDY_EPS = 0.1
GREEDY_REPEATS = 3
GREEDY_TARGETS = 4
# query-bound envelope of scripts/query_scaling.py
ENVELOPE_C = 8.0

CONTINUOUS_NS = (2, 3)
CONTINUOUS_FAMILIES = ("uniform", "partition", "rank_table")
CONTINUOUS_EPS = 1 / 3
CONTINUOUS_REPEATS = 9

CERTIFY_SWEEPS = 32
# Lattice table per sweep index.  Certifying the two 25- and 27-point tables
# costs about twice the two small ones; an even split would put the median
# sweep between two clusters, so the small tables come up twice as often.
CERTIFY_TABLES = (
    "convex_ladder_2d", "coupled_kink_2d", "steep_tail_2d",
    "convex_ladder_2d", "coupled_kink_2d", "convex_ladder_3d",
)
CERTIFY_EPSILONS = (0.2, 0.1)
# both round to the solver's effective epsilon 1/2
CERTIFY_POLY_EPSILONS = (0.6, 0.5)
CERTIFY_SEEDS = (0, 1)


@dataclass
class Outcome:
    """What one execution of a unit produced, as the program reported it."""

    solution: object
    oracle_calls: int
    membership_calls: int
    detail: object = None


@dataclass
class Verdict:
    """Checked quality of a unit's output; ``error`` non-empty means failed."""

    value: float
    ratio: float | None
    error: str = ""


def _value_mismatch(reported: float, fresh: float) -> bool:
    return abs(reported - fresh) > TOL * max(1.0, abs(fresh))


def _ratio(value: float, opt: float) -> tuple[float, str]:
    ratio = value / opt if opt > TOL else 1.0
    error = f"value {value} exceeds the optimum {opt}" if ratio > 1 + TOL else ""
    return ratio, error


# -- greedy ----------------------------------------------------------------


def separable_concave_opt(coeffs, powers, cap, budget: int) -> float:
    """Exact optimum of sum_e a_e x_e^p_e under x <= cap, x(E) <= budget.

    Each coordinate's unit increments are non-increasing, so taking the
    ``budget`` largest increments over all coordinates is optimal.  No
    oracle calls: the value is computed from the parameters.
    """
    increments = []
    for e, (a, p, c) in enumerate(zip(coeffs, powers, cap)):
        for k in range(1, min(int(c), budget) + 1):
            increments.append((a * (k**p - (k - 1) ** p), e))
    increments.sort(key=lambda item: item[0], reverse=True)
    counts = [0] * len(coeffs)
    for _, e in increments[:budget]:
        counts[e] += 1
    return sum(a * k**p for a, p, k in zip(coeffs, powers, counts))


def _powers(rng, n: int) -> list[float]:
    """Exponents cycling through POWERS, shuffled: every draw has the same mix."""
    return [float(v) for v in rng.permutation([POWERS[e % len(POWERS)] for e in range(n)])]


def query_envelope(n: int, cap: int, budget: int, eps: float) -> float:
    return ENVELOPE_C * (n / eps) * math.log2(cap + 1) * math.log((budget + 1) / eps)


class GreedyUnit:
    def __init__(self, solver: str, spec: InstanceSpec, cap: int, budget: int, opt):
        self.solver = solver
        self.spec = spec
        self.cap = cap
        self.budget = budget
        self.opt = opt
        self.oracle = spec.build()
        self.constraint = cardinality.CardinalityConstraint((cap,) * self.oracle.n, budget)
        self.config = cardinality.SolverConfig(GREEDY_EPS, 0)

    def run(self) -> Outcome:
        f = self.oracle
        solve = (
            cardinality.maximize_dr_cardinality
            if self.solver == "dr"
            else cardinality.maximize_lattice_cardinality
        )
        before = f.calls
        y, _ = solve(f, self.constraint, self.config)
        return Outcome(tuple(int(v) for v in y), f.calls - before, 0)

    def check(self, out: Outcome) -> Verdict:
        y = np.array(out.solution, dtype=np.int64)
        n = self.oracle.n
        value = self.oracle.eval(y)
        fresh = self.spec.build().eval(y)
        ratio, error = (None, "") if self.opt is None else _ratio(fresh, self.opt)
        if not cardinality.CardinalityConstraint((self.cap,) * n, self.budget).is_feasible(y):
            error = f"infeasible solution {out.solution}"
        elif _value_mismatch(value, fresh):
            error = f"value {value} differs from fresh evaluation {fresh}"
        elif self.solver == "dr":
            envelope = query_envelope(n, self.cap, self.budget, self.config.effective)
            if out.oracle_calls > envelope:
                error = f"{out.oracle_calls} oracle calls exceed the envelope {envelope:.1f}"
        return Verdict(fresh, ratio, error)


def greedy_units(seed: int) -> list[GreedyUnit]:
    rng = np.random.default_rng([seed, 1])
    units = []
    for _ in range(GREEDY_REPEATS):
        for n in GREEDY_NS:
            for cap in GREEDY_CAPS:
                budget = 2 * n
                coeffs = [float(v) for v in rng.uniform(0.5, 2.0, size=n)]
                powers = _powers(rng, n)
                concave = InstanceSpec(
                    "separable_concave", {"coeffs": coeffs, "powers": powers, "cap": [cap] * n}
                )
                opt = separable_concave_opt(coeffs, powers, [cap] * n, budget)
                edges = [
                    [s, int(t), float(rng.uniform(0.05, 0.3))]
                    for s in range(n)
                    for t in rng.choice(GREEDY_TARGETS, size=2, replace=False)
                ]
                coverage = InstanceSpec("budget_allocation", {"edges": edges, "cap": [cap] * n})
                for spec, spec_opt in ((concave, opt), (coverage, None)):
                    for solver in ("dr", "lattice"):
                        units.append(GreedyUnit(solver, spec, cap, budget, spec_opt))
    return units


# -- continuous ------------------------------------------------------------


def _coverage_rank_table(rng, n: int) -> list[int]:
    """Weighted coverage rank: a monotone submodular integer rank function."""
    universe = 4
    weights = rng.integers(1, 3, size=universe)
    covers = [
        set(rng.choice(universe, size=int(rng.integers(1, 3)), replace=False).tolist())
        for _ in range(n)
    ]
    table = []
    for mask in range(1 << n):
        covered = set()
        for e in range(n):
            if mask >> e & 1:
                covered |= covers[e]
        table.append(int(sum(weights[i] for i in covered)))
    return table


# partition layouts per n; [[0, 1], [2]] is where the direction search stalls
PARTITION_LAYOUTS = {2: ([[0], [1]], [[0, 1]]), 3: ([[0, 1], [2]], [[0], [1, 2]], [[0], [1], [2]])}


def _polymatroid_params(rng, family: str, n: int, index: int) -> dict:
    if family == "uniform":
        return {"n": n, "per_element": int(rng.integers(1, 3)), "total": int(rng.integers(2, 2 * n))}
    if family == "partition":
        layouts = PARTITION_LAYOUTS[n]
        parts = layouts[index % len(layouts)]
        return {"parts": parts, "caps": [int(v) for v in rng.integers(1, 3, size=len(parts))]}
    return {"n": n, "table": _coverage_rank_table(rng, n)}


class ContinuousUnit:
    def __init__(self, spec: InstanceSpec, family: str, params: dict, solver_seed: int):
        self.spec = spec
        self.family = family
        self.params = params
        self.oracle = spec.build()
        self.constraint = instances.make_polymatroid(family, **params)
        self.config = cardinality.SolverConfig(CONTINUOUS_EPS, solver_seed)

    def run(self) -> Outcome:
        f, P = self.oracle, self.constraint
        calls, members = f.calls, P.member_calls
        x, _ = polymatroid.maximize_polymatroid(f, P, self.config)
        return Outcome(
            tuple(int(v) for v in x), f.calls - calls, P.member_calls - members
        )

    def check(self, out: Outcome) -> Verdict:
        x = np.array(out.solution, dtype=np.int64)
        value = self.oracle.eval(x)
        fresh_f = self.spec.build()
        fresh = fresh_f.eval(x)
        P = instances.make_polymatroid(self.family, **self.params)
        exact = bruteforce.brute_force_opt(fresh_f, P)
        ratio, error = _ratio(fresh, exact.opt_value)
        if not P.member(x.astype(np.float64)):
            error = f"solution {out.solution} is outside the polymatroid"
        elif _value_mismatch(value, fresh):
            error = f"value {value} differs from fresh evaluation {fresh}"
        return Verdict(fresh, ratio, error)


def continuous_units(seed: int) -> list[ContinuousUnit]:
    rng = np.random.default_rng([seed, 2])
    units = []
    for r in range(CONTINUOUS_REPEATS):
        for n in CONTINUOUS_NS:
            for f, family in enumerate(CONTINUOUS_FAMILIES):
                for o, objective in enumerate(("separable_concave", "budget_allocation")):
                    # caps, polymatroid and edge layout fix the solver's work;
                    # they are the same for every seed, which draws the values
                    shape = np.random.default_rng([r, n, f, o])
                    cap = [int(v) for v in shape.integers(2, 4, size=n)]
                    if objective == "separable_concave":
                        params = {
                            "coeffs": [float(v) for v in rng.uniform(0.5, 2.0, size=n)],
                            "powers": _powers(rng, n),
                            "cap": cap,
                        }
                    else:
                        edges = [
                            [s, int(t), float(rng.uniform(0.1, 0.6))]
                            for s in range(n)
                            for t in shape.choice(3, size=2, replace=False)
                        ]
                        params = {"edges": edges, "cap": cap}
                    spec = InstanceSpec(objective, params)
                    poly = _polymatroid_params(shape, family, n, r)
                    units.append(ContinuousUnit(spec, family, poly, int(rng.integers(1000))))
    return units


# -- certify ---------------------------------------------------------------


def _rounded(values, digits: int = 4) -> list[float]:
    return [round(float(v), digits) for v in values]


def certify_config(rng, index: int) -> dict:
    """A four-instance sweep.

    Sizes, constraints and the edge layout come from the sweep index alone,
    so every seed does alike work; ``rng`` (the seed) draws objective values.
    """
    shape = np.random.default_rng([index, 3])
    n = 4 + (index // len(CERTIFY_TABLES)) % 2
    table = CERTIFY_TABLES[index % len(CERTIFY_TABLES)]
    table_cap = [int(s) - 1 for s in instances.NON_DR_TABLES[table].shape]
    edges = [
        [s, int(t), round(float(rng.uniform(0.1, 0.7)), 4)]
        for s in range(3)
        for t in shape.choice(3, size=2, replace=False)
    ]
    instance_list = [
        {
            "id": "dr_card",
            "oracle": {
                "family": "separable_concave",
                "params": {
                    "coeffs": _rounded(rng.uniform(0.5, 2.0, size=n)),
                    "powers": _powers(rng, n),
                    "cap": [5] * n,
                },
            },
            "constraint": {"kind": "cardinality", "cap": [5] * n, "budget": int(shape.integers(3, 8))},
        },
        {
            "id": "non_dr_table",
            "oracle": {"family": "lattice_table", "params": {"table": table}},
            "constraint": {"kind": "cardinality", "cap": table_cap, "budget": int(shape.integers(2, 5))},
        },
        {
            "id": "coverage_knapsack",
            "oracle": {"family": "budget_allocation", "params": {"edges": edges, "cap": [3] * 3}},
            "constraint": {
                "kind": "knapsack",
                "weights": _rounded(shape.uniform(1.0, 3.0, size=3)),
                "budget": round(float(shape.uniform(3.0, 6.0)), 4),
                "cap": [3] * 3,
            },
        },
        {
            "id": "uniform_poly",
            "oracle": {
                "family": "separable_concave",
                "params": {
                    "coeffs": _rounded(rng.uniform(0.5, 2.0, size=3)),
                    "powers": _powers(rng, 3),
                    "cap": [3] * 3,
                },
            },
            "constraint": {
                "kind": "polymatroid",
                "family": "uniform",
                "params": {
                    "n": 3,
                    "per_element": int(shape.integers(1, 3)),
                    "total": int(shape.integers(2, 5)),
                },
            },
        },
    ]
    experiments = [
        {"instances": [iid], "algorithms": [algo], "epsilons": list(eps), "seeds": list(CERTIFY_SEEDS)}
        for iid, algo, eps in (
            ("dr_card", "cardinality_dr", CERTIFY_EPSILONS),
            ("non_dr_table", "cardinality_lattice", CERTIFY_EPSILONS),
            ("coverage_knapsack", "knapsack", CERTIFY_EPSILONS),
            ("uniform_poly", "polymatroid", CERTIFY_POLY_EPSILONS),
        )
    ]
    return {"instances": instance_list, "experiments": experiments}


def _build_constraint(raw: dict):
    kind = raw["kind"]
    if kind == "cardinality":
        return cardinality.CardinalityConstraint(tuple(raw["cap"]), int(raw["budget"]))
    if kind == "knapsack":
        return knapsack.KnapsackInstance.from_raw(raw["weights"], raw["budget"], tuple(raw["cap"]))
    return instances.make_polymatroid(raw["family"], **raw["params"])


def _feasible(constraint, oracle, x: np.ndarray) -> bool:
    if isinstance(constraint, polymatroid.PolymatroidOracle):
        return bool(np.all(x <= oracle.box)) and constraint.member(x.astype(np.float64))
    return constraint.is_feasible(x)


class MembershipLog:
    """Counts membership calls of every polymatroid built while installed.

    The harness builds its constraints internally, so the certify workload
    finds them by wrapping ``PolymatroidOracle.__init__``.
    """

    def __init__(self):
        self.built: list = []
        self._original = None

    def install(self) -> None:
        cls = polymatroid.PolymatroidOracle
        original = self._original = cls.__init__
        built = self.built

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            built.append(obj)

        cls.__init__ = init

    def uninstall(self) -> None:
        if self._original is not None:
            polymatroid.PolymatroidOracle.__init__ = self._original
            self._original = None

    def take(self) -> int:
        total = sum(P.member_calls for P in self.built)
        self.built.clear()
        return total


class CertifyUnit:
    def __init__(self, config: dict, workdir: str, membership: MembershipLog):
        self.config = config
        self.workdir = workdir
        self.membership = membership

    def run(self) -> Outcome:
        os.makedirs(self.workdir, exist_ok=True)
        path = os.path.join(self.workdir, "config.yaml")
        out_dir = os.path.join(self.workdir, "out")
        with open(path, "w") as handle:
            yaml.safe_dump(self.config, handle, sort_keys=False)
        self.membership.take()
        code = harness.run_harness(harness.load_config(path), out_dir, bruteforce=True)
        with open(os.path.join(out_dir, "report.csv")) as handle:
            report = handle.read()
        with open(os.path.join(out_dir, "summary.txt")) as handle:
            summary = handle.read()
        rows = list(csv.DictReader(report.splitlines()))
        calls = sum(int(row["oracle_calls"]) for row in rows)
        return Outcome(report, calls, self.membership.take(), (code, summary, rows))

    def check(self, out: Outcome) -> Verdict:
        code, summary, rows = out.detail
        if code != 0:
            return Verdict(0.0, None, f"sweep exited with {code}")
        if "errors: 0\n" not in summary:
            return Verdict(0.0, None, "sweep reported " + summary.splitlines()[1])
        raw = {entry["id"]: entry for entry in self.config["instances"]}
        oracles = {iid: InstanceSpec.from_dict(e["oracle"]).build() for iid, e in raw.items()}
        total, ratios, errors = 0.0, [], []
        if len(rows) != 16:
            errors.append(f"expected 16 report rows, got {len(rows)}")
        for row in rows:
            iid = row["instance_id"]
            x = np.array([int(v) for v in row["solution"].split(";")], dtype=np.int64)
            fresh = oracles[iid].eval(x)
            total += fresh
            if not _feasible(_build_constraint(raw[iid]["constraint"]), oracles[iid], x):
                errors.append(f"row {iid} solution {row['solution']} is infeasible")
            if _value_mismatch(float(row["value"]), fresh):
                errors.append(f"row {iid} value {row['value']} differs from {fresh}")
            if not row["ratio"]:
                errors.append(f"row {iid} has no certified ratio")
                continue
            ratio, over = _ratio(fresh, float(row["opt_value"]))
            ratios.append(ratio)
            errors.append(over)
        errors = [e for e in errors if e]
        return Verdict(total, min(ratios, default=None), errors[0] if errors else "")


def certify_units(seed: int, workdir: str) -> list[CertifyUnit]:
    rng = np.random.default_rng([seed, 3])
    membership = MembershipLog()
    membership.install()
    return [
        CertifyUnit(certify_config(rng, i), workdir, membership) for i in range(CERTIFY_SWEEPS)
    ]


def cleanup_certify(units: list[CertifyUnit]) -> None:
    if units:
        units[0].membership.uninstall()
        shutil.rmtree(units[0].workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(units[0].workdir))
        except OSError:  # another run's directory is still there
            pass


WORKLOADS = ("greedy", "continuous", "certify")


def make_units(workload: str, seed: int, workdir: str) -> list:
    if workload == "greedy":
        return greedy_units(seed)
    if workload == "continuous":
        return continuous_units(seed)
    if workload == "certify":
        return certify_units(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
