"""Experiment harness: config-driven sweeps with optional exact baselines.

A YAML config names oracles, constraints, and an experiment grid
(algorithm x epsilon x seed).  Each cell is solved with a fresh oracle, and
its ``oracle_calls`` is the count of calls the solver made: the calls that
building the oracle makes (a lattice table certifies itself) and the
re-evaluation of the returned point fall outside the count.  Every solver
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
from .core import CapacityError
from .instances import InstanceSpec, make_polymatroid
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

EXPERIMENT_KEYS = frozenset({"instances", "algorithms", "epsilons", "seeds"})

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


def load_config(path: str) -> HarnessConfig:
    try:
        with open(path) as handle:
            data = yaml.safe_load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"invalid YAML{where}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")

    instances: dict[str, InstanceEntry] = {}
    for raw in _require(data, "instances", "config"):
        instance_id = str(_require(raw, "id", "instance entry"))
        if instance_id in instances:
            raise ConfigError(f"duplicate instance id {instance_id!r}")
        oracle_raw = _require(raw, "oracle", f"instance {instance_id!r}")
        constraint_raw = _require(raw, "constraint", f"instance {instance_id!r}")
        kind = _require(constraint_raw, "kind", f"instance {instance_id!r} constraint")
        params = {k: v for k, v in constraint_raw.items() if k != "kind"}
        instances[instance_id] = InstanceEntry(
            instance_id=instance_id,
            oracle_spec=InstanceSpec.from_dict(oracle_raw),
            constraint_kind=str(kind),
            constraint_params=params,
        )

    cells: list[Cell] = []
    for raw in data.get("experiments", []):
        ids = _require(raw, "instances", "experiment entry")
        unknown = sorted(str(key) for key in raw if key not in EXPERIMENT_KEYS)
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in experiment entry")
        if ids == "all":
            ids = list(instances)
        algorithms = _require(raw, "algorithms", "experiment entry")
        epsilons = _require(raw, "epsilons", "experiment entry")
        seeds = raw.get("seeds", [0])
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
                    epsilon = float(epsilon)
                    if not 0 < epsilon < 1:
                        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
                    for seed in seeds:
                        cells.append(Cell(instance_id, algorithm, epsilon, int(seed)))

    assertions = []
    for raw in data.get("assertions", []):
        kind = str(_require(raw, "kind", "assertion entry"))
        value = float(_require(raw, "value", "assertion entry"))
        applies = raw.get("applies_to", {}) or {}
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


def _brute_force(entry: InstanceEntry) -> ExactResult:
    return brute_force_opt(entry.oracle_spec.build(), entry.build_constraint())


class _OptimumCache:
    """Brute-force optimum per instance id, enumerated at most once.

    One cache serves all cells (and worker threads) of a ``run_harness``
    call; the lock keeps two cells of one instance from enumerating it
    twice.  A failed enumeration is kept and a copy is raised for every
    cell, so each still reports its own error row and no two threads
    raise the same exception object.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._outcomes: dict[str, ExactResult | Exception] = {}

    def __call__(self, entry: InstanceEntry) -> ExactResult:
        with self._lock:
            outcome = self._outcomes.get(entry.instance_id)
            if outcome is None:
                try:
                    outcome = _brute_force(entry)
                except (ValueError, RuntimeError) as exc:
                    outcome = exc
                self._outcomes[entry.instance_id] = outcome
        if isinstance(outcome, Exception):
            raise copy.copy(outcome)
        return outcome


def run_cell(
    entry: InstanceEntry,
    cell: Cell,
    timings: bool = False,
    bruteforce: bool = True,
    optimum: Callable[[InstanceEntry], ExactResult] = _brute_force,
) -> SolverReport:
    """Solve one cell with a fresh oracle; ``optimum`` supplies the baseline."""
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
        oracle = entry.oracle_spec.build()
        constraint = entry.build_constraint()
        before = oracle.calls  # building the oracle may have called it
        start = time.perf_counter()
        x = _solve(oracle, constraint, cell.algorithm, solver_config)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        calls = oracle.calls - before
        value = oracle.eval(x)  # verification; after the snapshot on purpose
        report.solution = tuple(int(v) for v in x)
        report.value = float(value)
        report.oracle_calls = calls
        if timings:
            report.wall_time_ms = elapsed_ms
        if bruteforce:
            exact = optimum(entry)
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
    import os

    os.makedirs(out_dir, exist_ok=True)
    cells = config.cells
    optimum = _OptimumCache()

    def solve(cell: Cell) -> SolverReport:
        entry = config.instances[cell.instance_id]
        return run_cell(entry, cell, timings, bruteforce, optimum)

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
