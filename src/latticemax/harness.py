"""Experiment harness: config-driven sweeps with optional exact baselines.

A YAML config names oracles, constraints, and an experiment grid
(algorithm x epsilon x seed).  Each cell is solved on an oracle with a
fresh call counter, and its ``oracle_calls`` is the count of calls the
solver made: the calls that building the oracle makes (a lattice table
certifies itself, once per run) and the re-evaluation of the returned point
fall outside the count.  Every solver
returns a pair whose first item is the solution; the harness keeps that
point and builds the cell's ``SolverReport`` record itself.  Outputs
(report.csv, summary.txt) are byte-identical across runs of the same config
unless timing collection is enabled.
"""

from __future__ import annotations

import copy
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import yaml

from .bruteforce import ExactResult, brute_force_opt
from .cardinality import (
    CardinalityConstraint,
    SolverConfig,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
)
from .core import CapacityError, ValueOracle
from .instances import ORACLE_KEYS, POLYMATROID_KEYS, InstanceSpec, make_polymatroid
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

# constraint kind -> the keys its entry needs besides ``kind``
CONSTRAINT_KEYS = {
    "cardinality": ("cap", "budget"),
    "knapsack": ("weights", "budget", "cap"),
    "polymatroid": ("family",),
}

# field -> (the types it may hold, their name): the constructors that read
# these fields iterate a list, size with an integer or compare a number.
# Fields of CONSTRAINT_KEYS, ORACLE_KEYS and POLYMATROID_KEYS not named here
# ("family", "table") are checked where the instance is built.
FIELD_TYPES = {
    **dict.fromkeys(
        ("cap", "weights", "coeffs", "powers", "edges", "parts", "caps"), (list, "a list")
    ),
    **dict.fromkeys(("n", "cap_high", "sources", "targets"), (int, "an integer")),
    **dict.fromkeys(("budget", "per_element", "total"), ((int, float), "a number")),
}

CONFIG_KEYS = frozenset({"instances", "experiments", "assertions"})
EXPERIMENT_KEYS = frozenset({"instances", "algorithms", "epsilons", "seeds"})
SCOPE_KEYS = frozenset({"instance", "algorithm"})

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
    positive.  ``wall_time_ms`` is measured but reported as 0 by default in
    harness output to keep reports byte-identical across runs.
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

    def csv_row(self, include_timing: bool = False) -> list[str]:
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
            str(self.wall_time_ms if include_timing else 0),
            ";".join(str(v) for v in self.solution),
        ]


@dataclass
class InstanceEntry:
    instance_id: str
    oracle_spec: InstanceSpec
    constraint_kind: str
    constraint_params: dict

    def build_constraint(self):
        p = self.constraint_params
        if self.constraint_kind == "cardinality":
            return CardinalityConstraint(tuple(p["cap"]), int(p["budget"]))
        if self.constraint_kind == "knapsack":
            return KnapsackInstance.from_raw(p["weights"], p["budget"], tuple(p["cap"]))
        if self.constraint_kind == "polymatroid":
            return make_polymatroid(p["family"], **p.get("params", {}))
        raise ConfigError(f"unknown constraint kind {self.constraint_kind!r}")


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
        if self.kind == "min_ratio":
            if any(r.ratio is None for r in scoped):
                return False, f"FAIL {label}: missing exact baseline (ratio unavailable)"
            worst = min(r.ratio for r in scoped)
            ok = worst >= self.value - RATIO_TOL
            return ok, (
                f"{'PASS' if ok else 'FAIL'} {label} >= {self.value}"
                f" (rows={len(scoped)}, min={worst:.6f})"
            )
        if self.kind == "min_value":
            worst = min(r.value for r in scoped)
            ok = worst >= self.value - RATIO_TOL
            return ok, (
                f"{'PASS' if ok else 'FAIL'} {label} >= {self.value}"
                f" (rows={len(scoped)}, min={worst:.6f})"
            )
        if self.kind == "max_oracle_calls":
            worst = max(r.oracle_calls for r in scoped)
            ok = worst <= self.value + RATIO_TOL
            return ok, (
                f"{'PASS' if ok else 'FAIL'} {label} <= {int(self.value)}"
                f" (rows={len(scoped)}, max={worst})"
            )
        raise ConfigError(f"unknown assertion kind {self.kind!r}")


@dataclass
class HarnessConfig:
    instances: dict[str, InstanceEntry]
    cells: list[Cell]
    assertions: list[Assertion] = field(default_factory=list)


def _require(mapping, key, context):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing key {key!r} in {context}")
    return mapping[key]


def _reject_unknown(mapping, allowed, context):
    unknown = sorted(str(key) for key in mapping if key not in allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context}")


def _field(mapping, key, context):
    """The value under ``key``, of a type FIELD_TYPES allows for it (a bool never is).

    Each item of ``edges`` and of ``parts`` must be a list too.
    """
    value = _require(mapping, key, context)
    if key in FIELD_TYPES:
        types, name = FIELD_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{key!r} in {context} must be {name}, got {value!r}")
    if key in ("edges", "parts"):
        for item in value:
            if not isinstance(item, list):
                raise ConfigError(f"each item of {key!r} in {context} must be a list, got {item!r}")
    return value


def _list(mapping, key, context, default=None):
    """The list under ``key``; any other value there is a ConfigError."""
    value = _require(mapping, key, context) if default is None else mapping.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} in {context} must be a list, got {value!r}")
    return value


def _mapping(mapping, key, context):
    """Check that ``key``, when present, holds a mapping."""
    value = mapping.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} in {context} must be a mapping, got {value!r}")


def _number(value, convert, name):
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def load_config(path: str) -> HarnessConfig:
    """Parse and validate a harness config into its instances, cells and assertions.

    Parses with PyYAML's libyaml-backed ``CSafeLoader`` when PyYAML was
    built with it, and with the pure-Python ``SafeLoader`` otherwise; both
    give the same config.  Every malformed field raises ConfigError naming
    it: a missing or unknown key (each constraint kind needs the keys in
    ``CONSTRAINT_KEYS``, each oracle and polymatroid family the ``params``
    keys in ``ORACLE_KEYS`` and ``POLYMATROID_KEYS``), such a key holding a
    type ``FIELD_TYPES`` does not allow for it, a scalar where a list or a
    ``params`` mapping belongs (an edge or a part included), a non-numeric
    epsilon, seed or assertion value, invalid YAML (with its line and
    column) or a missing file.
    Oracles are not built here.
    """
    try:
        with open(path) as handle:
            data = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"invalid YAML{where}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown(data, CONFIG_KEYS, "config")

    instances: dict[str, InstanceEntry] = {}
    for raw in _list(data, "instances", "config"):
        instance_id = str(_require(raw, "id", "instance entry"))
        if instance_id in instances:
            raise ConfigError(f"duplicate instance id {instance_id!r}")
        oracle_raw = _require(raw, "oracle", f"instance {instance_id!r}")
        family = _require(oracle_raw, "family", f"instance {instance_id!r} oracle")
        _mapping(oracle_raw, "params", f"instance {instance_id!r} oracle")
        for key in ORACLE_KEYS.get(str(family), ()):
            _field(oracle_raw.get("params", {}), key, f"instance {instance_id!r} oracle params")
        _number(oracle_raw.get("seed", 0), int, f"instance {instance_id!r} oracle seed")
        constraint_raw = _require(raw, "constraint", f"instance {instance_id!r}")
        context = f"instance {instance_id!r} constraint"
        kind = str(_require(constraint_raw, "kind", context))
        for key in CONSTRAINT_KEYS.get(kind, ()):
            _field(constraint_raw, key, context)
        if kind == "polymatroid":
            _mapping(constraint_raw, "params", context)
            for key in POLYMATROID_KEYS.get(str(constraint_raw["family"]), ()):
                _field(constraint_raw.get("params", {}), key, f"{context} params")
        params = {k: v for k, v in constraint_raw.items() if k != "kind"}
        instances[instance_id] = InstanceEntry(
            instance_id=instance_id,
            oracle_spec=InstanceSpec.from_dict(oracle_raw),
            constraint_kind=kind,
            constraint_params=params,
        )

    cells: list[Cell] = []
    for raw in _list(data, "experiments", "config", []):
        _require(raw, "instances", "experiment entry")
        _reject_unknown(raw, EXPERIMENT_KEYS, "experiment entry")
        if raw["instances"] == "all":
            ids = list(instances)
        else:
            ids = _list(raw, "instances", "experiment entry")
        algorithms = _list(raw, "algorithms", "experiment entry")
        epsilons = _list(raw, "epsilons", "experiment entry")
        epsilons = [_number(e, float, "epsilon") for e in epsilons]
        seeds = [_number(s, int, "seed") for s in _list(raw, "seeds", "experiment entry", [0])]
        for instance_id in ids:
            if instance_id not in instances:
                raise ConfigError(f"experiment references unknown instance {instance_id!r}")
            for algorithm in algorithms:
                if algorithm not in ALGORITHMS:
                    raise ConfigError(f"unknown algorithm {algorithm!r}")
                expected = ALGORITHMS[algorithm]
                actual = instances[instance_id].constraint_kind
                if actual != expected:
                    raise ConfigError(
                        f"algorithm {algorithm!r} requires a {expected} constraint,"
                        f" but instance {instance_id!r} declares {actual!r}"
                    )
                for epsilon in epsilons:
                    if not 0 < epsilon < 1:
                        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
                    for seed in seeds:
                        cells.append(Cell(instance_id, algorithm, epsilon, seed))

    assertions = []
    for raw in _list(data, "assertions", "config", []):
        kind = str(_require(raw, "kind", "assertion entry"))
        value = _number(_require(raw, "value", "assertion entry"), float, "assertion value")
        applies = raw.get("applies_to", {}) or {}
        if not isinstance(applies, dict):
            raise ConfigError("applies_to must be a mapping")
        _reject_unknown(applies, SCOPE_KEYS, "applies_to")
        assertions.append(
            Assertion(
                kind=kind,
                value=value,
                instance=applies.get("instance"),
                algorithm=applies.get("algorithm"),
            )
        )
        if kind not in ("min_ratio", "min_value", "max_oracle_calls"):
            raise ConfigError(f"unknown assertion kind {kind!r}")
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
    """Built oracle and brute-force optimum per instance id, each made once.

    One cache serves all cells (and worker threads) of a ``run_harness``
    call, so a ``lattice_table`` is certified once per run, not once per
    cell and again for brute force.  Each cell gets its own view of the
    built oracle: the same function and box behind a call counter of its
    own.  The lock keeps two cells of one instance from building or
    enumerating it twice.  A failed build or enumeration is kept and a
    copy is raised for every cell, so each still reports its own error row
    and no two threads raise the same exception object.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._outcomes: dict[tuple[str, str], object] = {}

    def _once(self, key: tuple[str, str], make: Callable[[], object]):
        with self._lock:
            outcome = self._outcomes.get(key)
            if outcome is None:
                try:
                    outcome = make()
                except (ValueError, RuntimeError) as exc:
                    outcome = exc
                self._outcomes[key] = outcome
        if isinstance(outcome, Exception):
            raise copy.copy(outcome)
        return outcome

    def _built(self, entry: InstanceEntry) -> ValueOracle:
        return self._once(("oracle", entry.instance_id), entry.oracle_spec.build)

    def oracle(self, entry: InstanceEntry) -> ValueOracle:
        built = self._built(entry)
        return ValueOracle(built._fn, built.box, built._batch_fn, built.meta)

    def optimum(self, entry: InstanceEntry) -> ExactResult:
        built = self._built(entry)
        return self._once(
            ("optimum", entry.instance_id),
            lambda: brute_force_opt(built, entry.build_constraint()),
        )


def run_cell(
    entry: InstanceEntry,
    cell: Cell,
    timings: bool = False,
    bruteforce: bool = True,
    cache: _RunCache | None = None,
) -> SolverReport:
    """Solve one cell on an oracle with a fresh call counter.

    ``cache`` supplies the built oracle and the brute-force baseline; a
    lone call builds and enumerates the instance on its own.
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
        oracle = cache.oracle(entry)
        constraint = entry.build_constraint()
        start = time.perf_counter()
        x = _solve(oracle, constraint, cell.algorithm, solver_config)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        calls = oracle.calls
        value = oracle.eval(x)  # verification; after the snapshot on purpose
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
    workers: int = 1,
) -> int:
    """Solve every cell, write report.csv and summary.txt, check the assertions.

    Returns 0 iff every assertion passed, else 1.  One per-run cache,
    shared by all cells and worker threads and dropped on return, builds
    each instance once (certifying a ``lattice_table`` once) and runs its
    brute force at most once; each cell still solves on a view with its
    own call counter, so rows do not depend on ``workers``.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    cells = config.cells
    cache = _RunCache()

    def solve(cell: Cell) -> SolverReport:
        entry = config.instances[cell.instance_id]
        return run_cell(entry, cell, timings, bruteforce, cache)

    if workers > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(solve, cells))
    else:
        rows = [solve(cell) for cell in cells]

    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(row.csv_row(include_timing=timings)) + "\n")

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
        seen = set()
        overridden = []
        for cell in cells:
            replaced = Cell(cell.instance_id, cell.algorithm, cell.epsilon, seed)
            if replaced not in seen:
                seen.add(replaced)
                overridden.append(replaced)
        cells = overridden
    return HarnessConfig(instances=config.instances, cells=cells, assertions=config.assertions)
