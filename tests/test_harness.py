import sys
import textwrap
from pathlib import Path

import pytest

from latticemax import harness
from latticemax.cardinality import (
    SolverConfig,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
)
from latticemax.cli import main
from latticemax.core import CapacityError
from latticemax.harness import (
    CSV_COLUMNS,
    Assertion,
    Cell,
    ConfigError,
    apply_overrides,
    load_config,
    run_cell,
    run_harness,
)
from latticemax.knapsack import maximize_knapsack
from latticemax.polymatroid import maximize_polymatroid

BASIC = textwrap.dedent(
    """
    instances:
      - id: pack
        oracle:
          family: separable_concave
          params:
            coeffs: [2.0, 1.0]
            powers: [1.0, 0.5]
            cap: [2, 2]
        constraint:
          kind: cardinality
          cap: [2, 2]
          budget: 2
    experiments:
      - instances: [pack]
        algorithms: [cardinality_dr]
        epsilons: [0.1]
        seeds: [0, 1]
    assertions:
      - kind: min_ratio
        value: 0.53
    """
)


def write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_basic_run_passes(tmp_path):
    config = load_config(write(tmp_path, BASIC))
    assert len(config.cells) == 2
    code = run_harness(config, str(tmp_path / "out"))
    assert code == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "PASS min_ratio" in summary


def test_report_columns_and_effective_epsilon(tmp_path):
    text = BASIC.replace("epsilons: [0.1]", "epsilons: [0.3]")
    config = load_config(write(tmp_path, text))
    run_harness(config, str(tmp_path / "out"))
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    # 0.3 is not 1/integer: the solver snaps to 1/4 and the report shows it
    assert float(row["epsilon"]) == 0.25
    assert int(row["oracle_calls"]) > 0
    assert float(row["ratio"]) >= 0.53
    assert row["wall_time_ms"] == "0"
    assert ";" in row["solution"] or row["solution"].isdigit()


def test_reports_are_byte_identical(tmp_path):
    config = load_config(write(tmp_path, BASIC))
    run_harness(config, str(tmp_path / "a"))
    run_harness(config, str(tmp_path / "b"))
    run_harness(config, str(tmp_path / "c"), workers=4)
    a = (tmp_path / "a" / "report.csv").read_bytes()
    assert a == (tmp_path / "b" / "report.csv").read_bytes()
    assert a == (tmp_path / "c" / "report.csv").read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("workers", [1, 3])
def test_table_reports_match_the_checked_in_bytes(tmp_path, workers):
    # every oracle is a lattice table, so values, optima, ratios and call
    # counts (table certification excluded) are exact on any platform
    config = load_config(str(GOLDEN / "lattice_tables.yaml"))
    assert run_harness(config, str(tmp_path), workers=workers) == 0
    for name in ("report.csv", "summary.txt"):
        want = (GOLDEN / "lattice_tables" / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, name


TWO_INSTANCES = BASIC.replace(
    "experiments:\n",
    textwrap.dedent(
        """\
          - id: wide
            oracle:
              family: separable_concave
              params: {coeffs: [1.0, 1.0, 1.0], powers: [0.5, 0.5, 0.5], cap: [2, 2, 2]}
            constraint: {kind: cardinality, cap: [2, 2, 2], budget: 3}
        experiments:
          - instances: [wide]
            algorithms: [cardinality_dr, cardinality_lattice]
            epsilons: [0.1]
            seeds: [0, 1]
        """
    ),
)


def record_brute_force(monkeypatch, fail_n=None):
    """Record the ground-set size of every brute-force enumeration the harness runs.

    Enumerations of an n = ``fail_n`` instance raise CapacityError.
    """
    real = harness.brute_force_opt
    calls = []

    def recording(f, constraint):
        calls.append(f.n)
        if f.n == fail_n:
            raise CapacityError("too many points")
        return real(f, constraint)

    monkeypatch.setattr(harness, "brute_force_opt", recording)
    return calls


@pytest.mark.parametrize("workers", [1, 3])
def test_brute_force_runs_once_per_instance(tmp_path, monkeypatch, workers):
    config = load_config(write(tmp_path, TWO_INSTANCES))
    assert len(config.cells) == 6
    baseline = tmp_path / "baseline"
    run_harness(config, str(baseline))
    calls = record_brute_force(monkeypatch)
    run_harness(config, str(tmp_path / "out"), workers=workers)
    assert sorted(calls) == [2, 3]
    report = (tmp_path / "out" / "report.csv").read_bytes()
    assert report == (baseline / "report.csv").read_bytes()
    # a lone run_cell still enumerates on its own
    run_cell(config.instances["wide"], config.cells[0])
    run_cell(config.instances["wide"], config.cells[0])
    assert sorted(calls) == [2, 3, 3, 3]


def test_brute_force_cache_under_many_threads(tmp_path, monkeypatch):
    text = TWO_INSTANCES.replace("seeds: [0, 1]", "seeds: [0, 1, 2, 3, 4, 5, 6, 7]")
    config = load_config(write(tmp_path, text))
    assert len(config.cells) == 24
    calls = record_brute_force(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_harness(config, str(tmp_path / "out"), workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == [2, 3]
    run_harness(config, str(tmp_path / "serial"))
    report = (tmp_path / "out" / "report.csv").read_bytes()
    assert report == (tmp_path / "serial" / "report.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_brute_force_capacity_error_is_reported_per_cell(tmp_path, monkeypatch, workers):
    config = load_config(write(tmp_path, TWO_INSTANCES))
    calls = record_brute_force(monkeypatch, fail_n=3)
    run_harness(config, str(tmp_path / "out"), workers=workers)
    assert sorted(calls) == [2, 3]
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "errors: 4\n" in summary
    assert summary.count("ERROR wide ") == 4
    assert summary.count(": capacity: too many points\n") == 4


def test_empty_experiments_pass(tmp_path):
    text = textwrap.dedent(
        """
        instances:
          - id: pack
            oracle:
              family: separable_concave
              params: {coeffs: [1.0], powers: [1.0], cap: [2]}
            constraint: {kind: cardinality, cap: [2], budget: 1}
        """
    )
    config = load_config(write(tmp_path, text))
    code = run_harness(config, str(tmp_path / "out"))
    assert code == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_failing_assertion_sets_exit_code(tmp_path):
    text = BASIC.replace("value: 0.53", "value: 1.5")
    config = load_config(write(tmp_path, text))
    code = run_harness(config, str(tmp_path / "out"))
    assert code == 1
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "FAIL min_ratio" in summary


def test_assertion_with_no_matching_rows_fails(tmp_path):
    text = BASIC + "    applies_to: {algorithm: knapsack}\n"
    config = load_config(write(tmp_path, text))
    assert run_harness(config, str(tmp_path / "out")) == 1


def test_invalid_yaml_reports_location(tmp_path):
    bad = "instances:\n  - id: [unclosed\n"
    with pytest.raises(ConfigError, match="line"):
        load_config(write(tmp_path, bad))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.yaml"))


def test_unknown_algorithm_rejected(tmp_path):
    text = BASIC.replace("cardinality_dr", "simulated_annealing")
    with pytest.raises(ConfigError, match="unknown algorithm"):
        load_config(write(tmp_path, text))


def test_run_cell_rejects_an_unknown_algorithm(tmp_path):
    config = load_config(write(tmp_path, BASIC))
    cell = Cell("pack", "simulated_annealing", 0.1, 0)
    with pytest.raises(ConfigError, match="unknown algorithm 'simulated_annealing'"):
        run_cell(config.instances["pack"], cell)


def test_algorithm_constraint_mismatch_rejected(tmp_path):
    text = BASIC.replace("algorithms: [cardinality_dr]", "algorithms: [knapsack]")
    with pytest.raises(ConfigError, match="requires a knapsack constraint"):
        load_config(write(tmp_path, text))


def test_bad_epsilon_rejected(tmp_path):
    text = BASIC.replace("epsilons: [0.1]", "epsilons: [1.5]")
    with pytest.raises(ConfigError, match="epsilon"):
        load_config(write(tmp_path, text))


def test_duplicate_instance_id_rejected(tmp_path):
    text = BASIC.replace(
        "experiments:", "  - id: pack\n    oracle:\n      family: separable_concave\n"
        "      params: {coeffs: [1.0], powers: [1.0], cap: [1]}\n"
        "    constraint: {kind: cardinality, cap: [1], budget: 1}\nexperiments:"
    )
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write(tmp_path, text))


def test_unknown_instance_reference_rejected(tmp_path):
    text = BASIC.replace("instances: [pack]", "instances: [mystery]")
    with pytest.raises(ConfigError, match="unknown instance"):
        load_config(write(tmp_path, text))


def test_zero_weight_errors_are_reported(tmp_path):
    text = textwrap.dedent(
        """
        instances:
          - id: degenerate
            oracle:
              family: separable_concave
              params: {coeffs: [1.0, 1.0], powers: [1.0, 1.0], cap: [2, 2]}
            constraint:
              kind: knapsack
              weights: [0.0, 1.0]
              budget: 2.0
              cap: [2, 2]
        experiments:
          - instances: [degenerate]
            algorithms: [knapsack]
            epsilons: [0.1]
        assertions:
          - kind: min_value
            value: 0.0
        """
    )
    config = load_config(write(tmp_path, text))
    code = run_harness(config, str(tmp_path / "out"))
    assert code == 1
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "element 0 must be positive" in summary
    assert "FAIL" in summary


def test_apply_overrides_filters_and_reseeds():
    cells = [
        Cell("a", "cardinality_dr", 0.1, 0),
        Cell("a", "cardinality_dr", 0.1, 1),
        Cell("b", "knapsack", 0.1, 2),
    ]
    from latticemax.harness import HarnessConfig

    config = HarnessConfig(instances={}, cells=cells, assertions=[])
    only = apply_overrides(config, algo="knapsack", seed=None)
    assert [c.algorithm for c in only.cells] == ["knapsack"]
    assert only.cells == [cells[2]]
    reseeded = apply_overrides(config, algo=None, seed=7)
    # both cardinality cells collapse to one after the seed override
    assert len(reseeded.cells) == 2
    assert all(c.seed == 7 for c in reseeded.cells)


def test_apply_overrides_unknown_algo():
    from latticemax.harness import HarnessConfig

    config = HarnessConfig(instances={}, cells=[], assertions=[])
    with pytest.raises(ConfigError):
        apply_overrides(config, algo="gradient_descent", seed=None)


DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo_config.yaml"

SOLVERS = {
    "cardinality_dr": maximize_dr_cardinality,
    "cardinality_lattice": maximize_lattice_cardinality,
    "knapsack": maximize_knapsack,
    "polymatroid": maximize_polymatroid,
}


@pytest.mark.parametrize(
    "instance_id", ["coverage_card", "ladder_card", "weighted_pack", "uniform_poly"]
)
def test_row_counts_only_the_solver_calls(instance_id):
    # the demo's ladder_card is a lattice table, whose build certifies it
    # with oracle calls; uniform_poly is the polymatroid row
    config = load_config(str(DEMO))
    entry = config.instances[instance_id]
    cell = next(c for c in config.cells if c.instance_id == instance_id)
    row = run_cell(entry, cell, bruteforce=False)
    assert not row.error
    f = entry.oracle_spec.build()
    built = f.calls
    assert (built > 0) == (instance_id == "ladder_card")
    SOLVERS[cell.algorithm](f, entry.build_constraint(), SolverConfig(cell.epsilon, cell.seed))
    assert row.oracle_calls == f.calls - built


@pytest.mark.parametrize("key", ["repeats: 2", "trials: 5"])
def test_unknown_experiment_key_rejected(tmp_path, key):
    text = BASIC.replace("seeds: [0, 1]", "seeds: [0, 1]\n    " + key)
    name = key.split(":")[0]
    with pytest.raises(ConfigError, match=f"unknown key '{name}'"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("key", ["experiment", "assertion"])
def test_unknown_top_level_key_rejected(tmp_path, key):
    # a misspelled section used to load silently as an empty one
    text = BASIC.replace(key + "s:", key + ":")
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in config"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "scope, name", [("{algo: cardinality_dr}", "algo"), ("{instance: pack, seed: 0}", "seed")]
)
def test_unknown_scope_key_rejected(tmp_path, scope, name):
    # a misspelled scope key used to be dropped, widening the assertion
    text = BASIC + f"    applies_to: {scope}\n"
    with pytest.raises(ConfigError, match=f"unknown key '{name}' in applies_to"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("scope", ["[cardinality_dr]", "cardinality_dr"])
def test_scope_that_is_not_a_mapping_rejected(tmp_path, scope):
    text = BASIC + f"    applies_to: {scope}\n"
    with pytest.raises(ConfigError, match="applies_to must be a mapping"):
        load_config(write(tmp_path, text))


def test_cli_exit_codes(tmp_path, capsys):
    config_path = write(tmp_path, BASIC)
    with pytest.raises(SystemExit) as exc:
        main(["--config", config_path, "--out", str(tmp_path / "out")])
    assert exc.value.code == 0

    bad_path = write(tmp_path, "instances: [", name="bad.yaml")
    with pytest.raises(SystemExit) as exc:
        main(["--config", bad_path, "--out", str(tmp_path / "out2")])
    assert exc.value.code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_no_bruteforce_leaves_ratio_empty(tmp_path):
    text = BASIC.split("assertions:")[0]
    config_path = write(tmp_path, text)
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "--config",
                config_path,
                "--out",
                str(tmp_path / "out"),
                "--no-bruteforce",
                "--seed",
                "3",
            ]
        )
    assert exc.value.code == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert len(lines) == 2  # seed override dedups the two seeds
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["ratio"] == "" and row["opt_value"] == ""
    assert row["seed"] == "3"
