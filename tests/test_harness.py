import csv
import itertools
import re
import textwrap
import threading
import traceback
import types
from pathlib import Path

import pytest
import yaml

from latticemax import bruteforce, harness, instances
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


@pytest.mark.parametrize("instance_id", ["pack, small", '"big" pack'])
def test_report_quotes_an_instance_id_holding_a_comma_or_a_quote(tmp_path, instance_id):
    quoted = instance_id.replace('"', '\\"')
    text = BASIC.replace("id: pack", f'id: "{quoted}"').replace("[pack]", f'["{quoted}"]')
    run_harness(load_config(write(tmp_path, text)), str(tmp_path / "out"))
    with open(tmp_path / "out" / "report.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * 3
    assert [row[0] for row in rows[1:]] == [instance_id] * 2


def test_reports_are_byte_identical(tmp_path):
    config = load_config(write(tmp_path, BASIC))
    run_harness(config, str(tmp_path / "a"))
    run_harness(config, str(tmp_path / "b"))
    a = (tmp_path / "a" / "report.csv").read_bytes()
    assert a == (tmp_path / "b" / "report.csv").read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo_config.yaml"
SEED_SWEEP = GOLDEN / "seed_sweep.yaml"


def test_table_reports_match_the_checked_in_bytes(tmp_path):
    # every oracle is a lattice table, so values, optima, ratios and call
    # counts (table certification excluded) are exact on any platform
    config = load_config(str(GOLDEN / "lattice_tables.yaml"))
    assert run_harness(config, str(tmp_path)) == 0
    for name in ("report.csv", "summary.txt"):
        want = (GOLDEN / "lattice_tables" / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, name


def test_seed_sweep_reports_match_the_checked_in_bytes(tmp_path):
    # most of the sweep's cells repeat an earlier cell's solve; the bytes
    # were written by a harness that solved every cell afresh
    config = load_config(str(SEED_SWEEP))
    assert run_harness(config, str(tmp_path)) == 0
    for name in ("report.csv", "summary.txt"):
        want = (GOLDEN / "seed_sweep" / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, name


def test_demo_reports_match_the_checked_in_bytes(tmp_path):
    # the demo is the one checked-in run with DR, budget allocation,
    # knapsack and polymatroid rows; its values are float sums, products
    # and powers, so the bytes pin every solver's point, value and call count
    config = load_config(str(DEMO))
    assert run_harness(config, str(tmp_path)) == 0
    for name in ("report.csv", "summary.txt"):
        want = (GOLDEN / "demo" / name).read_bytes()
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


def test_brute_force_runs_once_per_instance(tmp_path, monkeypatch):
    config = load_config(write(tmp_path, TWO_INSTANCES))
    assert len(config.cells) == 6
    baseline = tmp_path / "baseline"
    run_harness(config, str(baseline))
    calls = record_brute_force(monkeypatch)
    run_harness(config, str(tmp_path / "out"))
    assert sorted(calls) == [2, 3]
    report = (tmp_path / "out" / "report.csv").read_bytes()
    assert report == (baseline / "report.csv").read_bytes()
    # a lone run_cell still enumerates on its own
    run_cell(config.instances["wide"], config.cells[0])
    run_cell(config.instances["wide"], config.cells[0])
    assert sorted(calls) == [2, 3, 3, 3]


def test_each_instance_is_built_and_enumerated_once_per_run(tmp_path, monkeypatch):
    text = TWO_INSTANCES.replace("seeds: [0, 1]", "seeds: [0, 1, 2, 3, 4, 5, 6, 7]")
    config = load_config(write(tmp_path, text))
    assert len(config.cells) == 24
    calls = record_brute_force(monkeypatch)
    real_build = instances.InstanceSpec.build
    built = []
    monkeypatch.setattr(
        instances.InstanceSpec, "build", lambda spec: built.append(spec) or real_build(spec)
    )
    run_harness(config, str(tmp_path / "out"))
    assert sorted(calls) == [2, 3]
    assert len(built) == 2  # one build per instance, shared by its 12 cells
    run_harness(config, str(tmp_path / "again"))
    report = (tmp_path / "out" / "report.csv").read_bytes()
    assert report == (tmp_path / "again" / "report.csv").read_bytes()


def test_a_box_past_float_range_gives_a_capacity_row(tmp_path):
    # brute force sizes a knapsack or polymatroid region as the box size, an
    # exact int: one too large for a float product is a capacity row, not an
    # OverflowError that would end the run.  f = 0 makes the 17-element
    # polymatroid solve's point integral, so rounding it reads no rank table
    wide = {
        "id": "wide_pack",
        "oracle": {"family": "separable_concave",
                   "params": {"coeffs": [1.0] * 40, "powers": [0.5] * 40, "cap": [10**9] * 40}},
        "constraint": {"kind": "knapsack", "weights": [0.5] * 40, "budget": 1.0,
                       "cap": [10**9] * 40},
    }
    poly = {
        "id": "wide_poly",
        "oracle": {"family": "separable_concave",
                   "params": {"coeffs": [0.0] * 17, "powers": [0.5] * 17, "cap": [10**18] * 17}},
        "constraint": {"kind": "polymatroid", "family": "uniform",
                       "params": {"n": 17, "per_element": 10**18, "total": 10**18}},
    }
    config = load_config(write(tmp_path, yaml.safe_dump({
        "instances": [wide, poly],
        "experiments": [
            {"instances": ["wide_pack"], "algorithms": ["knapsack"], "epsilons": [0.5], "seeds": [0]},
            {"instances": ["wide_poly"], "algorithms": ["polymatroid"], "epsilons": [0.5],
             "seeds": [0]},
        ],
    })))
    # each box size stops at its first running value past MAX_POINTS
    sizes = {"wide_pack": 10**9 + 1, "wide_poly": 10**18 + 1}
    for cell in config.cells:
        row = run_cell(config.instances[cell.instance_id], cell)
        assert row.error == ("capacity: estimated feasible region of at least "
                             f"{sizes[cell.instance_id]} points exceeds cap "
                             f"{bruteforce.MAX_POINTS}")


def test_brute_force_capacity_error_is_reported_per_cell(tmp_path, monkeypatch):
    config = load_config(write(tmp_path, TWO_INSTANCES))
    calls = record_brute_force(monkeypatch, fail_n=3)
    run_harness(config, str(tmp_path / "out"))
    assert sorted(calls) == [2, 3]
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "errors: 4\n" in summary
    assert summary.count("ERROR wide ") == 4
    assert summary.count(": capacity: too many points\n") == 4


@pytest.mark.parametrize("constraint, message", [
    ("weights: [0.5, 0.5]\n      budget: 1\n      cap: [4, 4]",
     "instance cap exceeds the oracle box"),
    ("weights: [0.5, 0.5, 0.5]\n      budget: 1\n      cap: [3, 3, 3]",
     "instance dimension does not match oracle"),
], ids=["cap_above_box", "wrong_dimension"])
def test_mismatched_knapsack_is_reported_per_cell(tmp_path, constraint, message):
    text = (BASIC.replace("coeffs: [2.0, 1.0]", "coeffs: [1.0, 2.0]")
            .replace("powers: [1.0, 0.5]", "powers: [0.5, 0.5]")
            .replace("cap: [2, 2]\n    constraint", "cap: [3, 3]\n    constraint")
            .replace("kind: cardinality\n      cap: [2, 2]\n      budget: 2",
                     "kind: knapsack\n      " + constraint)
            .replace("algorithms: [cardinality_dr]", "algorithms: [knapsack]")
            .replace("epsilons: [0.1]", "epsilons: [0.2]")
            .replace("seeds: [0, 1]", "seeds: [0]"))
    config = load_config(write(tmp_path, text))
    run_harness(config, str(tmp_path / "out"))
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "errors: 1\n" in summary
    assert f"ERROR pack knapsack eps=0.2 seed=0: {message}\n" in summary


def test_cells_run_in_config_order_on_the_calling_thread(tmp_path, monkeypatch):
    config = load_config(write(tmp_path, TWO_INSTANCES))
    real = harness.run_cell
    seen = []

    def recording(entry, cell, *args):
        seen.append((threading.get_ident(), cell))
        return real(entry, cell, *args)

    monkeypatch.setattr(harness, "run_cell", recording)
    run_harness(config, str(tmp_path / "out"))
    assert [cell for _, cell in seen] == config.cells
    assert {ident for ident, _ in seen} == {threading.get_ident()}


def test_timings_fill_the_wall_time_column(tmp_path):
    config = load_config(write(tmp_path, BASIC))
    run_harness(config, str(tmp_path / "out"), timings=True)
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    column = lines[0].split(",").index("wall_time_ms")
    times = [float(line.split(",")[column]) for line in lines[1:]]
    assert len(times) == 2
    assert all(t > 0 for t in times)


def test_a_cached_failure_is_raised_with_a_traceback_of_its_own():
    cache = harness._RunCache()

    def fail():
        raise ValueError("no table")

    depths = []
    for _ in range(3):
        with pytest.raises(ValueError, match="no table") as info:
            cache._once(("oracle", "pack"), fail)
        depths.append(len(traceback.extract_tb(info.value.__traceback__)))
    # the stored exception is raised again each time, its old frames dropped
    assert depths == [2, 2, 2]


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


def record_loader(monkeypatch, libyaml):
    """Make load_config see PyYAML with or without libyaml; record its Loaders."""
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    real = yaml.load
    used = []

    def load(stream, Loader):
        used.append(Loader.__name__)
        return real(stream, Loader)

    monkeypatch.setattr(harness.yaml, "load", load)
    return used


@pytest.mark.parametrize("libyaml", [True, False])
def test_invalid_yaml_reports_location_with_either_loader(tmp_path, monkeypatch, libyaml):
    used = record_loader(monkeypatch, libyaml)
    with pytest.raises(ConfigError, match=r"invalid YAML at line \d+, column \d+"):
        load_config(write(tmp_path, "instances: ["))
    assert used == ["CSafeLoader" if libyaml else "SafeLoader"]


@pytest.mark.parametrize("path", [DEMO, GOLDEN / "lattice_tables.yaml"], ids=["demo", "golden"])
def test_either_loader_gives_the_same_config(monkeypatch, path):
    used = record_loader(monkeypatch, libyaml=True)
    fast = load_config(str(path))
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert load_config(str(path)) == fast
    assert used == ["CSafeLoader", "SafeLoader"]
    assert len(fast.cells) > 0 and len(fast.assertions) > 0


# (text replaced in BASIC, its replacement, the ConfigError message); each
# used to crash load_config with a raw ValueError or TypeError
BAD_FIELDS = [
    ("epsilons: [0.1]", "epsilons: [abc]",
     "each item of 'epsilons' in experiment entry must be a number, got 'abc'"),
    ("epsilons: [0.1]", "epsilons: [null]",
     "each item of 'epsilons' in experiment entry must be a number, got None"),
    ("epsilons: [0.1]", "epsilons: 0.1", "'epsilons' in experiment entry must be a list, got 0.1"),
    ("seeds: [0, 1]", "seeds: [0, x]",
     "each item of 'seeds' in experiment entry must be an integer, got 'x'"),
    ("seeds: [0, 1]", "seeds: 0", "'seeds' in experiment entry must be a list, got 0"),
    ("value: 0.53", "value: abc", "'value' in assertion entry must be a number, got 'abc'"),
    ("value: 0.53", "value: [0.53]", "'value' in assertion entry must be a number, got [0.53]"),
    ("family: separable_concave", "family: separable_concave\n      seed: abc",
     "'seed' in instance 'pack' oracle must be an integer, got 'abc'"),
    ("oracle:\n      family: separable_concave", "oracle: separable_concave\n    params_:",
     "'oracle' in instance 'pack' must be a mapping, got 'separable_concave'"),
]


@pytest.mark.parametrize("old, new, message", BAD_FIELDS)
def test_malformed_field_is_config_error(tmp_path, old, new, message):
    text = BASIC.replace(old, new)
    assert text != BASIC
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write(tmp_path, text))


CARDINALITY = "kind: cardinality\n      cap: [2, 2]\n      budget: 2"
ORACLE_PARAMS = "params:\n        coeffs: [2.0, 1.0]\n        powers: [1.0, 0.5]\n        cap: [2, 2]"
NO_TOTAL = "kind: polymatroid\n      family: uniform\n      params: {n: 2, per_element: 1}"

# (text replaced in BASIC, its replacement, the ConfigError message); each
# used to load and then end the run with a raw KeyError or TypeError
BAD_INSTANCES = [
    (CARDINALITY, "kind: cardinality\n      budget: 2", "missing key 'cap' in instance 'pack' constraint"),
    (CARDINALITY, "kind: knapsack\n      cap: [2, 2]\n      budget: 2",
     "missing key 'weights' in instance 'pack' constraint"),
    (ORACLE_PARAMS, "params: 5", "'params' in instance 'pack' oracle must be a mapping, got 5"),
    (CARDINALITY, "kind: polymatroid\n      family: uniform\n      params: 5",
     "'params' in instance 'pack' constraint must be a mapping, got 5"),
    (ORACLE_PARAMS, ORACLE_PARAMS.replace("coeffs: [2.0, 1.0]\n        ", ""),
     "missing key 'coeffs' in instance 'pack' oracle params"),
    (CARDINALITY, NO_TOTAL, "missing key 'total' in instance 'pack' constraint params"),
]

CONCAVE_ORACLE = "family: separable_concave\n      " + ORACLE_PARAMS
BUDGET_ORACLE = "family: budget_allocation\n      params:\n        edges: {}\n        cap: {}"
EDGES = "[[0, 0, 0.5], [1, 0, 0.3]]"

# (text replaced in BASIC, its replacement, the ConfigError message); each,
# run by an algorithm of its constraint kind, used to load and then end the
# run with a raw TypeError or IndexError
BAD_FIELD_TYPES = [
    (CARDINALITY, "kind: cardinality\n      cap: 5\n      budget: 2",
     "'cap' in instance 'pack' constraint must be a list, got 5"),
    (CARDINALITY, "kind: knapsack\n      weights: [0.5, 0.5]\n      budget: 1\n      cap: 5",
     "'cap' in instance 'pack' constraint must be a list, got 5"),
    (CARDINALITY, "kind: polymatroid\n      family: partition\n      params: {parts: 5, caps: [1]}",
     "'parts' in instance 'pack' constraint params must be a list, got 5"),
    (CARDINALITY, NO_TOTAL.replace("}", ", total: x}"),
     "'total' in instance 'pack' constraint params must be an integer, got 'x'"),
    (CONCAVE_ORACLE, BUDGET_ORACLE.format(5, "[2, 2]"),
     "'edges' in instance 'pack' oracle params must be a list, got 5"),
    (CONCAVE_ORACLE, BUDGET_ORACLE.format(EDGES, 5),
     "'cap' in instance 'pack' oracle params must be a list, got 5"),
    (CONCAVE_ORACLE, BUDGET_ORACLE.format("[5, 6]", "[2, 2]"),
     "each item of 'edges' in instance 'pack' oracle params must be a [source, target, "
     "probability] triple, got 5"),
    (CARDINALITY, "kind: polymatroid\n      family: partition\n      params: {parts: [5], caps: [1]}",
     "each item of 'parts' in instance 'pack' constraint params must be a list of integers, got 5"),
    (CONCAVE_ORACLE, BUDGET_ORACLE.format("[[0, 0]]", "[2, 2]"),
     "each item of 'edges' in instance 'pack' oracle params must be a [source, target, "
     "probability] triple, got [0, 0]"),
    (CONCAVE_ORACLE, BUDGET_ORACLE.format("[[0, 0, x]]", "[2, 2]"),
     "each item of 'edges' in instance 'pack' oracle params must be a [source, target, "
     "probability] triple, got [0, 0, 'x']"),
]


@pytest.mark.parametrize("old, new, message", BAD_INSTANCES + BAD_FIELD_TYPES,
                         ids=["no_cap", "no_weights", "oracle_params", "polymatroid_params",
                              "no_coeffs", "no_total", "cardinality_cap_scalar",
                              "knapsack_cap_scalar", "parts_scalar", "total_string",
                              "edges_scalar", "oracle_cap_scalar", "edge_scalar",
                              "part_scalar", "edge_pair", "edge_string"])
def test_malformed_instance_is_config_error(tmp_path, old, new, message):
    text = BASIC.replace(old, new)
    assert text != BASIC
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("section", ["instances", "experiments", "assertions"])
def test_scalar_section_is_config_error(tmp_path, section):
    text = BASIC.split(section + ":")[0] + f"{section}: 5\n"
    with pytest.raises(ConfigError, match=f"'{section}' in config must be a list, got 5"):
        load_config(write(tmp_path, text))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.yaml"))


def test_unknown_algorithm_rejected(tmp_path):
    text = BASIC.replace("cardinality_dr", "simulated_annealing")
    message = (
        "each item of 'algorithms' in experiment entry must be one of 'cardinality_dr', "
        "'cardinality_lattice', 'knapsack', 'polymatroid', got 'simulated_annealing'"
    )
    with pytest.raises(ConfigError, match=re.escape(message)):
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


@pytest.mark.parametrize("epsilon", ["1.0e-17", "5.0e-324"])
def test_cli_exits_2_on_an_epsilon_whose_complement_rounds_to_one(tmp_path, capsys, epsilon):
    # the sweep would never end, and 1 / 5e-324 overflows
    path = write(tmp_path, BASIC.replace("epsilons: [0.1]", f"epsilons: [{epsilon}]"))
    with pytest.raises(SystemExit) as exc:
        main(["--config", path, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    message = f"config error: epsilon {float(epsilon)} is too small: 1 - epsilon rounds to 1\n"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("entry", [".inf", ".nan"])
def test_a_non_finite_table_is_reported_per_row(tmp_path, entry):
    # an inline .inf table used to be certified and then failed in the
    # solver ("threshold schedule needs a finite top value, got inf"); a
    # .nan one was reported as a monotone violation
    text = textwrap.dedent(
        f"""
        instances:
          - id: steep
            oracle:
              family: lattice_table
              params: {{table: [[0.0, {entry}], [{entry}, {entry}]]}}
            constraint: {{kind: cardinality, cap: [1, 1], budget: 2}}
        experiments:
          - instances: [steep]
            algorithms: [cardinality_lattice]
            epsilons: [0.1]
        assertions:
          - kind: min_value
            value: 0.0
        """
    )
    config = load_config(write(tmp_path, text))
    assert run_harness(config, str(tmp_path / "out")) == 1
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "ERROR steep cardinality_lattice eps=0.1 seed=0: table values must be finite\n" in summary


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


POLYMATROID = "kind: polymatroid\n      family: uniform\n      params: {n: 2, per_element: 1, total: 2}"
RANDOM_ORACLE = "family: random_separable_concave\n      params: {n: 2, cap_high: 2}"

# (replacements in BASIC, the ConfigError message); each loaded, then gave
# its rows numpy's "expected non-negative integer" error and exited 0
NEGATIVE_SEEDS = [
    ([(CARDINALITY, POLYMATROID), ("cardinality_dr", "polymatroid"), ("seeds: [0, 1]", "seeds: [-1]")],
     "each item of 'seeds' in experiment entry must be non-negative, got -1"),
    ([(CONCAVE_ORACLE, RANDOM_ORACLE + "\n      seed: -3")],
     "'seed' in instance 'pack' oracle must be non-negative, got -3"),
]


@pytest.mark.parametrize("replacements, message", NEGATIVE_SEEDS, ids=["seeds", "oracle_seed"])
def test_negative_seed_is_config_error(tmp_path, replacements, message):
    text = BASIC
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write(tmp_path, text))
    # the same config with the seed at 0 loads
    assert load_config(write(tmp_path, text.replace("-1", "0").replace("-3", "0"))).cells


def test_cli_exits_2_on_a_config_it_cannot_read(tmp_path, capsys):
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(b"\xff\xfe\x00")
    for path, reason in ((tmp_path, "Is a directory"), (binary, "invalid start byte")):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"config error: cannot read config file {path}: {reason}\n"
        assert not (tmp_path / "out").exists()


def test_cli_exits_2_on_an_out_path_that_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", write(tmp_path, BASIC), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(out) in err and err.count("\n") == 1
    assert out.read_text() == "kept\n"


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    config = load_config(write(tmp_path, BASIC))
    with pytest.raises(ConfigError, match=re.escape("the seed override must be non-negative, got -1")):
        apply_overrides(config, seed=-1)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(DEMO), "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert exc.value.code == 2
    assert "config error: the seed override must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    # the demo's ladder_card is a lattice table, whose build certifies it on
    # an oracle of its own; uniform_poly is the polymatroid row
    config = load_config(str(DEMO))
    entry = config.instances[instance_id]
    cell = next(c for c in config.cells if c.instance_id == instance_id)
    row = run_cell(entry, cell, bruteforce=False)
    assert not row.error
    f = entry.oracle_spec.build()
    assert f.calls == 0
    SOLVERS[cell.algorithm](f, entry.build_constraint(), SolverConfig(cell.epsilon, cell.seed))
    assert row.oracle_calls == f.calls


def count_certifications(monkeypatch):
    """Record the kind of every property a table build flags over its table."""
    real = instances._flags
    kinds = []

    def counting(table, kind, *args, **kwargs):
        kinds.append(kind)
        return real(table, kind, *args, **kwargs)

    monkeypatch.setattr(instances, "_flags", counting)
    return kinds


@pytest.mark.parametrize("path", [DEMO, GOLDEN / "lattice_tables.yaml"], ids=["demo", "golden"])
def test_each_table_is_certified_once_per_run(tmp_path, monkeypatch, path):
    config = load_config(str(path))
    tables = [e for e in config.instances.values() if e.oracle_spec.family == "lattice_table"]
    assert tables
    kinds = count_certifications(monkeypatch)
    for run in (1, 2):
        assert run_harness(config, str(tmp_path / f"run{run}")) == 0
        assert len(kinds) == 3 * len(tables) * run
    assert sorted(set(kinds)) == ["dr_submodular", "lattice_submodular", "monotone"]
    # each row still counts only its own solve
    rows = (tmp_path / "run2" / "report.csv").read_text().splitlines()[1:]
    for line, cell in zip(rows, config.cells, strict=True):
        entry = config.instances[cell.instance_id]
        f = entry.oracle_spec.build()
        built = f.calls
        SOLVERS[cell.algorithm](f, entry.build_constraint(), SolverConfig(cell.epsilon, cell.seed))
        assert dict(zip(CSV_COLUMNS, line.split(",")))["oracle_calls"] == str(f.calls - built)


def solve_key(cell):
    """The key the harness solves a cell under: the seed only for a seeded solver."""
    seed = cell.seed if cell.algorithm == "polymatroid" else None
    return cell.instance_id, cell.algorithm, SolverConfig(cell.epsilon).effective, seed


def record_solves(monkeypatch, config, fail=None):
    """Record the key of every solve the harness runs; with ``fail``, each solve raises it."""
    real = harness._solve
    ids = {}
    for iid, entry in config.instances.items():
        ids[tuple(entry.oracle_spec.build().box.tolist())] = iid
    assert len(ids) == len(config.instances)  # a box names its instance
    keys = []

    def recording(oracle, constraint, algorithm, solver_config):
        iid = ids[tuple(oracle.box.tolist())]
        keys.append(solve_key(Cell(iid, algorithm, solver_config.epsilon, solver_config.seed)))
        if fail is not None:
            raise fail
        return real(oracle, constraint, algorithm, solver_config)

    monkeypatch.setattr(harness, "_solve", recording)
    return keys


def test_each_distinct_solve_runs_once_per_run(tmp_path, monkeypatch):
    config = load_config(str(SEED_SWEEP))
    assert {c.algorithm for c in config.cells} == set(harness.ALGORITHMS)
    assert {c.seed for c in config.cells} == {0, 1, 2}
    keys = record_solves(monkeypatch, config)
    for run in (1, 2):
        assert run_harness(config, str(tmp_path / f"run{run}")) == 0
        # the config-order first cell of each key solves; the rest reuse it
        assert keys == list(dict.fromkeys(map(solve_key, config.cells))) * run
    assert len(keys) == 32 and len(config.cells) == 54
    polymatroid = [key for key in keys[:16] if key[1] == "polymatroid"]
    assert sorted(key[2:] for key in polymatroid) == [
        (eps, seed) for eps in (0.25, 0.5) for seed in (0, 1, 2)
    ]
    # a lone cell solves on its own
    cell = config.cells[0]
    run_cell(config.instances[cell.instance_id], cell)
    run_cell(config.instances[cell.instance_id], cell)
    assert keys[32:] == [solve_key(cell)] * 2


def test_every_row_equals_a_direct_solve_on_a_fresh_oracle(tmp_path):
    config = load_config(str(SEED_SWEEP))
    run_harness(config, str(tmp_path))
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    for line, cell in zip(rows, config.cells, strict=True):
        row = dict(zip(CSV_COLUMNS, line.split(",")))
        entry = config.instances[cell.instance_id]
        f = entry.oracle_spec.build()
        built = f.calls
        x, _ = SOLVERS[cell.algorithm](
            f, entry.build_constraint(), SolverConfig(cell.epsilon, cell.seed))
        assert int(row["oracle_calls"]) == f.calls - built
        assert row["solution"] == ";".join(str(int(v)) for v in x)
        assert row["value"] == repr(float(entry.oracle_spec.build().eval(x)))


@pytest.mark.parametrize("error, message", [
    (ValueError("no step fits"), "no step fits"),
    (CapacityError("too many points"), "capacity: too many points"),
], ids=["value_error", "capacity_error"])
def test_a_failed_solve_is_reported_once_per_cell(tmp_path, monkeypatch, error, message):
    config = load_config(str(SEED_SWEEP))
    keys = record_solves(monkeypatch, config, fail=error)
    run_harness(config, str(tmp_path))
    assert len(keys) == 16
    summary = (tmp_path / "summary.txt").read_text()
    assert f"errors: {len(config.cells)}\n" in summary
    for cell in config.cells:
        eps = SolverConfig(cell.epsilon).effective
        line = f"ERROR {cell.instance_id} {cell.algorithm} eps={eps} seed={cell.seed}: {message}\n"
        assert line in summary
    assert summary.count(f": {message}\n") == len(config.cells)


def test_timings_give_a_reused_row_the_wall_time_of_its_solve(tmp_path, monkeypatch):
    config = load_config(str(SEED_SWEEP))
    keys = record_solves(monkeypatch, config)
    ticks = itertools.count()
    # the clock reads t^2 seconds at its t-th reading, so solve j takes 4j + 1 s
    clock = types.SimpleNamespace(perf_counter=lambda: next(ticks) ** 2)
    monkeypatch.setattr(harness, "time", clock)
    run_harness(config, str(tmp_path), timings=True)
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    for line, cell in zip(rows, config.cells, strict=True):
        wall = float(dict(zip(CSV_COLUMNS, line.split(",")))["wall_time_ms"])
        assert wall == 1000.0 * (4 * keys.index(solve_key(cell)) + 1)


@pytest.mark.parametrize("instance_id", ["coverage_card", "ladder_card", "weighted_pack"])
def test_unseeded_solvers_do_not_read_the_seed(instance_id):
    # the seed rule: a solve that ignores the seed may be shared across seeds
    config = load_config(str(DEMO))
    entry = config.instances[instance_id]
    kind = entry.constraint_kind
    unseeded = [a for a, k in harness.ALGORITHMS.items() if k == kind and a != "polymatroid"]
    assert unseeded
    for algorithm in unseeded:
        runs = []
        for seed in (0, 7):
            f = entry.oracle_spec.build()
            built = f.calls
            x, trace = SOLVERS[algorithm](f, entry.build_constraint(), SolverConfig(0.1, seed))
            runs.append((x.tolist(), trace, f.calls - built))
        assert runs[0] == runs[1], algorithm
    assert harness._SEEDED == {"polymatroid"}


def test_the_polymatroid_solver_reads_the_seed():
    config = load_config(str(SEED_SWEEP))
    entry = config.instances["uniform_poly"]
    points = set()
    for seed in (0, 1):
        x, _ = maximize_polymatroid(
            entry.oracle_spec.build(), entry.build_constraint(), SolverConfig(0.5, seed))
        points.add(tuple(x.tolist()))
    assert len(points) == 2


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
    message = f"'applies_to' in assertion entry must be a mapping, got {yaml.safe_load(scope)!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
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

    # a non-numeric epsilon used to escape as a ValueError traceback, exit 1
    bad_path = write(tmp_path, BASIC.replace("epsilons: [0.1]", "epsilons: [abc]"))
    with pytest.raises(SystemExit) as exc:
        main(["--config", bad_path, "--out", str(tmp_path / "out3")])
    assert exc.value.code == 2
    assert f"config error: {BAD_FIELDS[0][2]}" in capsys.readouterr().err

    # a cardinality constraint without its cap used to end the run with a
    # KeyError traceback after the config had loaded
    bad_path = write(tmp_path, BASIC.replace(CARDINALITY, "kind: cardinality\n      budget: 2"))
    with pytest.raises(SystemExit) as exc:
        main(["--config", bad_path, "--out", str(tmp_path / "out4")])
    assert exc.value.code == 2
    assert "config error: missing key 'cap' in instance 'pack' constraint" in capsys.readouterr().err
    assert not (tmp_path / "out4").exists()

    # a scalar cap used to load, then end the run with a TypeError traceback
    bad_path = write(tmp_path, BASIC.replace(CARDINALITY, BAD_FIELD_TYPES[0][1]))
    with pytest.raises(SystemExit) as exc:
        main(["--config", bad_path, "--out", str(tmp_path / "out5")])
    assert exc.value.code == 2
    assert f"config error: {BAD_FIELD_TYPES[0][2]}" in capsys.readouterr().err
    assert not (tmp_path / "out5").exists()

    # an edge that is not a list used to load, then end the run with a
    # TypeError traceback and exit 1
    old, new, message = BAD_FIELD_TYPES[6]
    bad_path = write(tmp_path, BASIC.replace(old, new))
    with pytest.raises(SystemExit) as exc:
        main(["--config", bad_path, "--out", str(tmp_path / "out6")])
    assert exc.value.code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out6").exists()

    # an edge of two numbers used to load, then fail its rows with a raw
    # unpacking error and exit 1 (0 where no assertion reads the rows)
    old, new, message = BAD_FIELD_TYPES[8]
    bad_path = write(tmp_path, BASIC.replace(old, new))
    with pytest.raises(SystemExit) as exc:
        main(["--config", bad_path, "--out", str(tmp_path / "out7")])
    assert exc.value.code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out7").exists()


# an oracle or polymatroid family without a params key it needs used to
# load, then end the run with a raw KeyError traceback and no report
MISSING_FAMILY_PARAMS = [
    (BASIC.replace(ORACLE_PARAMS, ORACLE_PARAMS.replace("coeffs: [2.0, 1.0]\n        ", "")),
     "missing key 'coeffs' in instance 'pack' oracle params"),
    (BASIC.replace(CARDINALITY, NO_TOTAL).replace("cardinality_dr", "polymatroid"),
     "missing key 'total' in instance 'pack' constraint params"),
]


@pytest.mark.parametrize("text, message", MISSING_FAMILY_PARAMS, ids=["no_coeffs", "no_total"])
def test_cli_exits_2_on_missing_family_params(tmp_path, capsys, text, message):
    with pytest.raises(SystemExit) as exc:
        main(["--config", write(tmp_path, text), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


UNIFORM = "kind: polymatroid\n      family: uniform\n      params: {n: 2, per_element: 1, total: 2}"
PARTITION = "kind: polymatroid\n      family: partition\n      params: {parts: [[0], [1]], caps: [1, 1]}"
KNAPSACK = "kind: knapsack\n      weights: [0.5, 0.5]\n      budget: 1\n      cap: [2, 2]"
SPARE = (
    "  - id: spare\n    oracle: {family: separable_concave, params: {coeffs: [1.0], powers: [1.0],"
    " cap: [1]}}\n    constraint: {kind: matroid, cap: [1]}\nexperiments:"
)


def edited(*edits):
    """BASIC with each (old, new) replacement made, each of which must change it."""
    text = BASIC
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new)
    return text


# (edits to BASIC, the ConfigError message); each used to load: a misspelled
# family then failed every row of its instance (exit 0 where no assertion
# read them), an unknown constraint kind on an instance no experiment runs
# went unseen, and a table name NON_DR_TABLES lacks ended the run with a raw
# KeyError traceback
MISSPELLED = [
    ([("family: separable_concave", "family: separable_concav")],
     "'family' in instance 'pack' oracle must be one of 'budget_allocation', 'lattice_table', "
     "'random_budget_allocation', 'random_separable_concave', 'separable_concave', "
     "got 'separable_concav'"),
    ([(CARDINALITY, UNIFORM.replace("uniform", "unifrom")), ("cardinality_dr", "polymatroid")],
     "'family' in instance 'pack' constraint must be one of 'partition', 'rank_table', "
     "'uniform', got 'unifrom'"),
    ([("experiments:", SPARE)],
     "'kind' in instance 'spare' constraint must be one of 'cardinality', 'knapsack', "
     "'polymatroid', got 'matroid'"),
    ([(CONCAVE_ORACLE, "family: lattice_table\n      params: {table: coupled_kink}")],
     "'table' in instance 'pack' oracle params must be rectangular non-empty nested lists of"
     " numbers or one of 'convex_ladder_2d', "
     "'convex_ladder_3d', 'coupled_kink_2d', 'steep_tail_2d', got 'coupled_kink'"),
]

# each used to load: int() truncated a float (two seeds 1.2 and 1.7 became
# two identical seed-1 rows; a budget of 2.7 became 2; a uniform
# polymatroid's rank truncated its total of 2.5, so rounding stalled or
# left P) and a bool passed as the number 1
NOT_INTEGERS_OR_NUMBERS = [
    ([("seeds: [0, 1]", "seeds: [1.2, 1.7]")],
     "each item of 'seeds' in experiment entry must be an integer, got 1.2"),
    ([("seeds: [0, 1]", "seeds: [true]")],
     "each item of 'seeds' in experiment entry must be an integer, got True"),
    ([("family: separable_concave", "family: separable_concave\n      seed: 1.5")],
     "'seed' in instance 'pack' oracle must be an integer, got 1.5"),
    ([("budget: 2", "budget: 2.7")],
     "'budget' in instance 'pack' constraint must be an integer, got 2.7"),
    ([(CARDINALITY, CARDINALITY.replace("[2, 2]", "[2, 1.5]"))],
     "each item of 'cap' in instance 'pack' constraint must be an integer, got 1.5"),
    ([("cap: [2, 2]\n    constraint", "cap: [2, 1.5]\n    constraint")],
     "each item of 'cap' in instance 'pack' oracle params must be an integer, got 1.5"),
    ([(CARDINALITY, PARTITION.replace("caps: [1, 1]", "caps: [1.5, 1]")),
      ("cardinality_dr", "polymatroid")],
     "each item of 'caps' in instance 'pack' constraint params must be an integer, got 1.5"),
    ([(CARDINALITY, UNIFORM.replace("n: 2", "n: 2.5")), ("cardinality_dr", "polymatroid")],
     "'n' in instance 'pack' constraint params must be an integer, got 2.5"),
    ([(CARDINALITY, UNIFORM.replace("per_element: 1", "per_element: 1.5")),
      ("cardinality_dr", "polymatroid")],
     "'per_element' in instance 'pack' constraint params must be an integer, got 1.5"),
    ([(CARDINALITY, UNIFORM.replace("total: 2", "total: 2.5")), ("cardinality_dr", "polymatroid")],
     "'total' in instance 'pack' constraint params must be an integer, got 2.5"),
    ([("epsilons: [0.1]", "epsilons: [true]")],
     "each item of 'epsilons' in experiment entry must be a number, got True"),
    ([("value: 0.53", "value: true")], "'value' in assertion entry must be a number, got True"),
    ([("coeffs: [2.0, 1.0]", "coeffs: [true, 1.0]")],
     "each item of 'coeffs' in instance 'pack' oracle params must be a number, got True"),
    ([("powers: [1.0, 0.5]", "powers: [1.0, true]")],
     "each item of 'powers' in instance 'pack' oracle params must be a number, got True"),
    ([(CARDINALITY, KNAPSACK.replace("[0.5, 0.5]", "[true, 0.5]")), ("cardinality_dr", "knapsack")],
     "each item of 'weights' in instance 'pack' constraint must be a number, got True"),
]

# each used to load: the schema checked one level of list items, so
# partition_polymatroid truncated a part's 1.5 to element 1, and every row
# of a table instance errored (could not convert 'x' to float, or an
# inhomogeneous shape for a ragged table) while the run exited 0
NESTED_ITEMS = [
    ([(CARDINALITY, PARTITION.replace("[[0], [1]]", "[[0], [1.5]]")),
      ("cardinality_dr", "polymatroid")],
     "each item of 'parts' in instance 'pack' constraint params must be a list of integers,"
     " got [1.5]"),
    ([(CARDINALITY, PARTITION.replace("[[0], [1]]", "[[0], [true]]")),
      ("cardinality_dr", "polymatroid")],
     "each item of 'parts' in instance 'pack' constraint params must be a list of integers,"
     " got [True]"),
    *(([(CONCAVE_ORACLE, f"family: lattice_table\n      params: {{table: {table}}}")],
       "'table' in instance 'pack' oracle params must be rectangular non-empty nested lists"
       " of numbers"
       " or one of 'convex_ladder_2d', 'convex_ladder_3d', 'coupled_kink_2d', 'steep_tail_2d',"
       f" got {got}")
      for table, got in (("[[0.0, x], [1.0, 2.0]]", "[[0.0, 'x'], [1.0, 2.0]]"),
                         ("[[0.0, 1.0], 2.0]", "[[0.0, 1.0], 2.0]"),
                         ("[[0.0, 1.0], []]", "[[0.0, 1.0], []]"),
                         ("[]", "[]"),
                         ("[[0.0, 1.0], [1.0]]", "[[0.0, 1.0], [1.0]]"),
                         ("[[[0.0], [1.0]], [[0.0, 1.0], [1.0, 2.0]]]",
                          "[[[0.0], [1.0]], [[0.0, 1.0], [1.0, 2.0]]]"))),
]

# each used to be dropped without a word, but for a list where an instance
# id belongs, which ended load_config with a raw TypeError
UNKNOWN_KEYS = [
    ([("instances: [pack]", "instances: [[pack]]")],
     "experiment references unknown instance ['pack']"),
    ([("    constraint:\n", "    cpa: [2, 2]\n    constraint:\n")],
     "unknown key 'cpa' in instance 'pack'"),
    ([("family: separable_concave", "family: separable_concave\n      seeed: 3")],
     "unknown key 'seeed' in instance 'pack' oracle"),
    ([("cap: [2, 2]\n    constraint", "cap: [2, 2]\n        cpa: [2, 2]\n    constraint")],
     "unknown key 'cpa' in instance 'pack' oracle params"),
    ([(CARDINALITY, CARDINALITY + "\n      weights: [1.0, 1.0]")],
     "unknown key 'weights' in instance 'pack' constraint"),
    ([(CARDINALITY, UNIFORM.replace("}", ", cap: 3}")), ("cardinality_dr", "polymatroid")],
     "unknown key 'cap' in instance 'pack' constraint params"),
]


@pytest.mark.parametrize(
    "edits, message",
    MISSPELLED + NOT_INTEGERS_OR_NUMBERS + NESTED_ITEMS + UNKNOWN_KEYS,
    ids=["oracle_family", "polymatroid_family", "unrun_kind", "table_name", "float_seeds",
         "bool_seed", "float_oracle_seed", "float_budget", "float_cap", "float_oracle_cap",
         "float_caps", "float_n", "float_per_element", "float_total", "bool_epsilon",
         "bool_value", "bool_coeff", "bool_power",
         "bool_weight", "float_part", "bool_part", "string_table_entry", "mixed_depth_table",
         "empty_table_row", "empty_table", "ragged_table", "ragged_3d_table", "list_reference",
         "instance_key", "oracle_key", "oracle_params_key", "constraint_key",
         "polymatroid_params_key"],
)
def test_cli_exits_2_on_a_config_the_schema_rejects(tmp_path, capsys, edits, message):
    path = write(tmp_path, edited(*edits))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    with pytest.raises(SystemExit) as exc:
        main(["--config", path, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_config_schema_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config schema\n", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    config = load_config(write(tmp_path, block))
    assert list(config.instances) == ["my_instance"]
    assert config.cells == [Cell("my_instance", "cardinality_dr", 0.1, s) for s in (0, 1)]
    assert config.assertions == [Assertion("min_ratio", 0.53, algorithm="cardinality_dr")]


def test_cli_rejects_the_removed_workers_flag(tmp_path, capsys):
    # cells run on one thread; the old thread-pool flag is an unknown option
    config_path = write(tmp_path, BASIC)
    with pytest.raises(SystemExit) as exc:
        main(["--config", config_path, "--out", str(tmp_path / "out"), "--workers", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
