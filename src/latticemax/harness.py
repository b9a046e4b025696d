"""Experiment harness: config-driven sweeps with optional exact baselines.

A YAML config names oracles, constraints, and an experiment grid
(algorithm x epsilon x seed), each section checked against one table of
the config schema.  Each distinct solve runs once per run on an oracle
with a fresh call counter, and a cell's ``oracle_calls`` is the count of
calls its solve made: the calls that building the oracle makes (a lattice
table certifies itself, once per run) and the re-evaluation of the
returned point fall outside the count.  Every solver
returns a pair whose first item is the solution; the harness keeps that
point and builds the cell's ``SolverReport`` record itself.  Outputs
(report.csv, summary.txt) are byte-identical across runs of the same config
unless timing collection is enabled.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import yaml

from .bruteforce import ExactResult, brute_force_opt
from .cardinality import (
    CardinalityConstraint,
    SolverConfig,
    effective_epsilon,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
)
from .core import CapacityError, ValueOracle
from .instances import (
    INTEGER,
    INTEGERS,
    NUMBER,
    NUMBERS,
    ORACLE_PARAMS,
    POLYMATROID_PARAMS,
    InstanceSpec,
    make_polymatroid,
)
from .knapsack import KnapsackInstance, maximize_knapsack
from .polymatroid import maximize_polymatroid

RATIO_TOL = 1e-9

# algorithm name -> the constraint kind it solves
ALGORITHMS = {
    "cardinality_dr": "cardinality",
    "cardinality_lattice": "cardinality",
    "knapsack": "knapsack",
    "polymatroid": "polymatroid",
}

# the algorithms whose solver reads SolverConfig.seed; every other solve is
# fixed by its instance and effective epsilon, whatever the cell's seed
_SEEDED = frozenset({"polymatroid"})

# assertion kind -> the report column it bounds
ASSERTION_KINDS = {"min_ratio": "ratio", "min_value": "value", "max_oracle_calls": "oracle_calls"}

# kind -> (its name in messages, its test); a bool is never an integer or a number
KINDS = {
    "list": ("a list", lambda v: isinstance(v, list)),
    "mapping": ("a mapping", lambda v: isinstance(v, dict)),
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "edge": (
        "a [source, target, probability] triple",
        lambda v: isinstance(v, list)
        and len(v) == 3
        and all(map(_is, v, ("integer", "integer", "number"))),
    ),
    "integers": (
        "a list of integers",
        lambda v: isinstance(v, list) and all(_is(i, "integer") for i in v),
    ),
    # a non-empty list of numbers, or of lists of one length whose items,
    # joined, are a table again: a rectangular array of any depth
    "table": (
        "rectangular non-empty nested lists of numbers",
        lambda v: isinstance(v, list)
        and bool(v)
        and (
            all(_is(i, "number") for i in v)
            or all(isinstance(i, list) for i in v)
            and len(set(map(len, v))) == 1
            and _is([j for i in v for j in i], "table")
        ),
    ),
}

# The config schema: one table per section, key -> (kind, item kind,
# required).  A kind is a name in KINDS, a set of allowed values (a family
# or kind table stands for its keys) or a tuple of kinds any of which will
# do; None allows any value.  Each oracle and polymatroid family's params
# table is in instances.py.
MAPPING = ("mapping", None, True)
PARAMS = ("mapping", None, False)
CONFIG = {
    "instances": ("list", "mapping", True),
    "experiments": ("list", "mapping", False),
    "assertions": ("list", "mapping", False),
}
INSTANCE = {"id": (None, None, True), "oracle": MAPPING, "constraint": MAPPING}
ORACLE = {"family": (ORACLE_PARAMS, None, True), "params": PARAMS, "seed": ("integer", None, False)}
# constraint kind -> its keys besides ``kind``
CONSTRAINTS = {
    "cardinality": {"cap": INTEGERS, "budget": INTEGER},
    "knapsack": {"weights": NUMBERS, "budget": NUMBER, "cap": INTEGERS},
    "polymatroid": {"family": (POLYMATROID_PARAMS, None, True), "params": PARAMS},
}
EXPERIMENT = {
    "instances": (("list", {"all"}), None, True),
    "algorithms": ("list", ALGORITHMS, True),
    "epsilons": NUMBERS,
    "seeds": ("list", "integer", False),
}
ASSERTION = {"kind": (ASSERTION_KINDS, None, True), "value": NUMBER, "applies_to": PARAMS}
SCOPE = {"instance": (None, None, False), "algorithm": (ALGORITHMS, None, False)}

CSV_COLUMNS = [
    "instance_id",
    "algorithm",
    "epsilon",
    "seed",
    "value",
    "opt_value",
    "ratio",
    "oracle_calls",
    "wall_time_ms",
    "solution",
]


class ConfigError(Exception):
    """Raised for malformed configuration files."""


@dataclass
class SolverReport:
    """One solver run on one instance: a row of report.csv.

    ``ratio`` is only present when a brute-force optimum is available and
    positive.  ``wall_time_ms`` stays 0 unless the harness runs with
    timings, so reports are byte-identical across runs by default.
    """

    instance_id: str
    algorithm: str
    epsilon: float
    seed: int
    solution: tuple[int, ...]
    value: float
    oracle_calls: int
    wall_time_ms: int = 0
    opt_value: float | None = None
    ratio: float | None = None
    error: str = ""

    def csv_row(self) -> list[str]:
        def fmt(v) -> str:
            return "" if v is None else repr(float(v))

        return [
            self.instance_id,
            self.algorithm,
            repr(float(self.epsilon)),
            str(self.seed),
            fmt(self.value),
            fmt(self.opt_value),
            fmt(self.ratio),
            str(self.oracle_calls),
            str(self.wall_time_ms),
            ";".join(str(v) for v in self.solution),
        ]


@dataclass
class InstanceEntry:
    instance_id: str
    oracle_spec: InstanceSpec
    constraint_kind: str
    constraint_params: dict

    def build_constraint(self):
        """The entry's constraint; ``load_config`` has checked its kind and keys."""
        p = self.constraint_params
        if self.constraint_kind == "cardinality":
            return CardinalityConstraint(tuple(p["cap"]), int(p["budget"]))
        if self.constraint_kind == "knapsack":
            return KnapsackInstance.from_raw(p["weights"], p["budget"], tuple(p["cap"]))
        return make_polymatroid(p["family"], **p.get("params", {}))


@dataclass(frozen=True)
class Cell:
    instance_id: str
    algorithm: str
    epsilon: float
    seed: int


@dataclass
class Assertion:
    kind: str
    value: float
    instance: str | None = None
    algorithm: str | None = None

    def applies(self, row: SolverReport) -> bool:
        if self.instance is not None and row.instance_id != self.instance:
            return False
        if self.algorithm is not None and row.algorithm != self.algorithm:
            return False
        return True

    def check(self, rows: list[SolverReport]) -> tuple[bool, str]:
        scoped = [r for r in rows if self.applies(r)]
        label = self.kind
        if self.instance is not None:
            label += f" instance={self.instance}"
        if self.algorithm is not None:
            label += f" algorithm={self.algorithm}"
        if not scoped:
            return False, f"FAIL {label}: no matching rows"
        if any(r.error for r in scoped):
            return False, f"FAIL {label}: {sum(1 for r in scoped if r.error)} rows errored"
        values = [getattr(r, ASSERTION_KINDS[self.kind]) for r in scoped]
        if None in values:
            return False, f"FAIL {label}: missing exact baseline (ratio unavailable)"
        if self.kind == "max_oracle_calls":
            worst = max(values)
            ok = worst <= self.value + RATIO_TOL
            bound, seen = f"<= {int(self.value)}", f"max={worst}"
        else:
            worst = min(values)
            ok = worst >= self.value - RATIO_TOL
            bound, seen = f">= {self.value}", f"min={worst:.6f}"
        return ok, f"{'PASS' if ok else 'FAIL'} {label} {bound} (rows={len(scoped)}, {seen})"


@dataclass
class HarnessConfig:
    instances: dict[str, InstanceEntry]
    cells: list[Cell]
    assertions: list[Assertion] = field(default_factory=list)


def _is(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_is(value, k) for k in kind)
    if isinstance(kind, str):
        return KINDS[kind][1](value)
    return isinstance(value, str) and value in kind


def _name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_name, kind))
    if isinstance(kind, str):
        return KINDS[kind][0]
    return "one of " + ", ".join(map(repr, sorted(kind)))


def _check(mapping: dict, table: dict, context: str) -> dict:
    """Return ``mapping`` once it fits ``table``; else raise a ConfigError naming the key.

    Each key of the table is checked in order for presence, then for its
    kind and, in a list, its item kind; a key the table lacks is checked last.
    """
    for key, (kind, item_kind, required) in table.items():
        if key not in mapping:
            if required:
                raise ConfigError(f"missing key {key!r} in {context}")
            continue
        value = mapping[key]
        if kind is not None and not _is(value, kind):
            raise ConfigError(f"{key!r} in {context} must be {_name(kind)}, got {value!r}")
        for item in value if item_kind is not None and isinstance(value, list) else ():
            if not _is(item, item_kind):
                raise ConfigError(
                    f"each item of {key!r} in {context} must be {_name(item_kind)}, got {item!r}"
                )
    unknown = sorted(str(key) for key in mapping if key not in table)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context}")
    return mapping


def _seed(seed: int, what: str) -> int:
    """``seed`` if it is non-negative, as numpy's generators need; else a ConfigError."""
    if seed < 0:
        raise ConfigError(f"{what} must be non-negative, got {seed}")
    return seed


def load_config(path: str) -> HarnessConfig:
    """Parse and validate a harness config into its instances, cells and assertions.

    Parses with PyYAML's libyaml-backed ``CSafeLoader`` when PyYAML was
    built with it, and with the pure-Python ``SafeLoader`` otherwise; both
    give the same config.  ``_check`` walks each section against its schema
    table; the checks a table cannot state follow: duplicate instance ids,
    unknown instance references, an algorithm run on another constraint
    kind, an epsilon outside (0, 1) and a negative seed.  Each failure,
    invalid YAML (with its line and column) and a missing or unreadable
    file raise ConfigError.  Oracles are not built here.
    """
    try:
        with open(path) as handle:
            data = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.reason}")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"invalid YAML{where}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check(data, CONFIG, "config")

    instances: dict[str, InstanceEntry] = {}
    for raw in data["instances"]:
        where = f"instance {str(raw['id'])!r}" if "id" in raw else "instance entry"
        _check(raw, INSTANCE, where)
        instance_id = str(raw["id"])
        if instance_id in instances:
            raise ConfigError(f"duplicate instance id {instance_id!r}")
        oracle = _check(raw["oracle"], ORACLE, f"{where} oracle")
        _seed(oracle.get("seed", 0), f"'seed' in {where} oracle")
        _check(oracle.get("params", {}), ORACLE_PARAMS[oracle["family"]], f"{where} oracle params")
        constraint, kind = raw["constraint"], raw["constraint"].get("kind")
        table = {"kind": (CONSTRAINTS, None, True), **CONSTRAINTS.get(str(kind), {})}
        _check(constraint, table, f"{where} constraint")
        if kind == "polymatroid":
            table = POLYMATROID_PARAMS[constraint["family"]]
            _check(constraint.get("params", {}), table, f"{where} constraint params")
        params = {k: v for k, v in constraint.items() if k != "kind"}
        spec = InstanceSpec.from_dict(oracle)
        instances[instance_id] = InstanceEntry(instance_id, spec, kind, params)

    cells: list[Cell] = []
    for raw in data.get("experiments", []):
        _check(raw, EXPERIMENT, "experiment entry")
        seeds = [_seed(seed, "each item of 'seeds' in experiment entry")
                 for seed in raw.get("seeds", [0])]
        for instance_id in list(instances) if raw["instances"] == "all" else raw["instances"]:
            if not isinstance(instance_id, str) or instance_id not in instances:
                raise ConfigError(f"experiment references unknown instance {instance_id!r}")
            for algorithm in raw["algorithms"]:
                expected = ALGORITHMS[algorithm]
                actual = instances[instance_id].constraint_kind
                if actual != expected:
                    raise ConfigError(
                        f"algorithm {algorithm!r} requires a {expected} constraint,"
                        f" but instance {instance_id!r} declares {actual!r}"
                    )
                for epsilon in map(float, raw["epsilons"]):
                    try:
                        effective_epsilon(epsilon)
                    except ValueError as exc:
                        raise ConfigError(str(exc)) from None
                    for seed in seeds:
                        cells.append(Cell(instance_id, algorithm, epsilon, seed))

    assertions = []
    for raw in data.get("assertions", []):
        _check(raw, ASSERTION, "assertion entry")
        scope = _check(raw.get("applies_to", {}), SCOPE, "applies_to")
        kind, value = raw["kind"], float(raw["value"])
        assertions.append(Assertion(kind, value, scope.get("instance"), scope.get("algorithm")))
    return HarnessConfig(instances=instances, cells=cells, assertions=assertions)


def _solve(oracle, constraint, algorithm: str, config: SolverConfig):
    # looked up per call, not at import, so that a solver swapped in the
    # module namespace (a tracing wrapper) is the one that runs
    solvers = {
        "cardinality_dr": maximize_dr_cardinality,
        "cardinality_lattice": maximize_lattice_cardinality,
        "knapsack": maximize_knapsack,
        "polymatroid": maximize_polymatroid,
    }
    if algorithm not in solvers:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    x, _ = solvers[algorithm](oracle, constraint, config)
    return x


class _RunCache:
    """Built oracle, brute-force optimum and solves of one run, each made once.

    One cache serves all cells of a ``run_harness`` call, so a
    ``lattice_table`` is certified once per run, not once per cell and
    again for brute force.  Each solve gets its own view of the built
    oracle: the same function and box behind a call counter of its own.
    A solve is kept under (instance id, algorithm, effective epsilon,
    seed), the seed only for an algorithm in ``_SEEDED``: the solvers are
    deterministic, so a cell whose key was solved before reuses that
    solve's point, call count and wall time.  A failed build, enumeration
    or solve is kept and raised again for every cell, so each still
    reports its own error row; the row keeps only the message, and the
    traceback is dropped so that it does not grow once per cell.
    """

    def __init__(self):
        self._outcomes: dict[tuple, object] = {}

    def _once(self, key: tuple, make: Callable[[], object]):
        outcome = self._outcomes.get(key)
        if outcome is None:
            try:
                outcome = make()
            except (ValueError, RuntimeError) as exc:
                outcome = exc
            self._outcomes[key] = outcome
        if isinstance(outcome, Exception):
            raise outcome.with_traceback(None)
        return outcome

    def _built(self, entry: InstanceEntry) -> ValueOracle:
        return self._once(("oracle", entry.instance_id), entry.oracle_spec.build)

    def oracle(self, entry: InstanceEntry) -> ValueOracle:
        built = self._built(entry)
        return ValueOracle(built._fn, built.box, built.meta)

    def optimum(self, entry: InstanceEntry) -> ExactResult:
        built = self._built(entry)
        return self._once(
            ("optimum", entry.instance_id),
            lambda: brute_force_opt(built, entry.build_constraint()),
        )

    def solve(self, entry: InstanceEntry, algorithm: str, config: SolverConfig):
        """(x, the solver's oracle calls, its wall time in ms) of one solve."""

        def make():
            oracle = self.oracle(entry)
            constraint = entry.build_constraint()
            start = time.perf_counter()
            x = _solve(oracle, constraint, algorithm, config)
            return x, oracle.calls, (time.perf_counter() - start) * 1000.0

        seed = config.seed if algorithm in _SEEDED else None
        return self._once(("solve", entry.instance_id, algorithm, config.effective, seed), make)


def run_cell(
    entry: InstanceEntry,
    cell: Cell,
    timings: bool = False,
    bruteforce: bool = True,
    cache: _RunCache | None = None,
) -> SolverReport:
    """Report one cell: its solve's point, call count and value.

    ``cache`` supplies the built oracle, the brute-force baseline and the
    solve, which a cell of the same key may have run already; a lone call
    builds, solves and enumerates on its own.  The value is read again on
    a fresh view, outside the count.
    """
    cache = cache or _RunCache()
    solver_config = SolverConfig(cell.epsilon, cell.seed)
    report = SolverReport(
        instance_id=cell.instance_id,
        algorithm=cell.algorithm,
        epsilon=solver_config.effective,
        seed=cell.seed,
        solution=(),
        value=0.0,
        oracle_calls=0,
    )
    try:
        x, calls, elapsed_ms = cache.solve(entry, cell.algorithm, solver_config)
        value = cache.oracle(entry).eval(x)  # verification
        report.solution = tuple(int(v) for v in x)
        report.value = float(value)
        report.oracle_calls = calls
        if timings:
            report.wall_time_ms = elapsed_ms
        if bruteforce:
            exact = cache.optimum(entry)
            report.opt_value = exact.opt_value
            if exact.opt_value > RATIO_TOL:
                report.ratio = report.value / exact.opt_value
            else:
                report.ratio = 1.0
    except CapacityError as exc:
        report.error = f"capacity: {exc}"
    except (ValueError, RuntimeError) as exc:
        report.error = str(exc)
    return report


def run_harness(
    config: HarnessConfig,
    out_dir: str,
    timings: bool = False,
    bruteforce: bool = True,
) -> int:
    """Solve every cell, write report.csv and summary.txt, check the assertions.

    Returns 0 iff every assertion passed, else 1.  Cells run in config
    order on the calling thread: the solvers are Python loops over the
    oracle, so threads would only contend for the interpreter.  One
    per-run cache, dropped on return, builds each instance once
    (certifying a ``lattice_table`` once), runs its brute force at most
    once, and runs each distinct solve once (see ``_RunCache``): a cell
    whose solve repeats an earlier cell's reports that solve's point, call
    count and, with ``timings``, wall time.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    cache = _RunCache()
    rows = [
        run_cell(config.instances[cell.instance_id], cell, timings, bruteforce, cache)
        for cell in config.cells
    ]

    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")  # quotes an id holding , or "
        writer.writerow(CSV_COLUMNS)
        writer.writerows(row.csv_row() for row in rows)

    results = [assertion.check(rows) for assertion in config.assertions]
    passed = sum(1 for ok, _ in results if ok)
    failed = len(results) - passed
    errored = sum(1 for row in rows if row.error)

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w") as handle:
        handle.write(f"cells: {len(rows)}\n")
        handle.write(f"errors: {errored}\n")
        handle.write(f"assertions: {passed} passed, {failed} failed\n")
        for row in rows:
            if row.error:
                handle.write(
                    f"ERROR {row.instance_id} {row.algorithm}"
                    f" eps={row.epsilon} seed={row.seed}: {row.error}\n"
                )
        for _, line in results:
            handle.write(line + "\n")
    return 0 if failed == 0 else 1


def apply_overrides(
    config: HarnessConfig,
    algo: str | None = None,
    seed: int | None = None,
) -> HarnessConfig:
    cells = config.cells
    if algo is not None:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
        cells = [cell for cell in cells if cell.algorithm == algo]
    if seed is not None:
        _seed(seed, "the seed override")
        # two cells that differ only in their seed become one
        cells = list(dict.fromkeys(replace(cell, seed=seed) for cell in cells))
    return HarnessConfig(instances=config.instances, cells=cells, assertions=config.assertions)
