"""The gates that tier-1 and CI rely on can report a failure.

* A failing Hypothesis property is reported as a failed test, and the
  session goes on to run the tests after it.
* ``scripts/ratio_sweep.py`` exits 1 when a row's worst ratio is below its
  guarantee, and 0 on the eps = 0.1 rows that CI runs.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
import warnings

import pytest
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    # the repo's config still turns a library warning into an error
    with pytest.raises(RuntimeWarning):
        warnings.warn("table values overflow", RuntimeWarning)
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_failing_property.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def load_ratio_sweep():
    spec = importlib.util.spec_from_file_location("ratio_sweep", ROOT / "scripts" / "ratio_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ratio_sweep_fails_a_row_below_its_guarantee(monkeypatch, capsys):
    sweep = load_ratio_sweep()
    # guarantee 1 - 1/e + 0.4 > 1, above any ratio
    monkeypatch.setattr(sweep, "SLACK", {**sweep.SLACK, "cardinality_dr": -4})
    assert sweep.main(["--solvers", "cardinality_dr", "--trials", "2", "--epsilons", "0.1"]) == 1
    assert "below guarantee: {'solver': 'cardinality_dr'" in capsys.readouterr().out


def test_ratio_sweep_passes_at_eps_one_tenth(capsys):
    assert load_ratio_sweep().main(["--trials", "10", "--epsilons", "0.1"]) == 0
    assert "below guarantee" not in capsys.readouterr().out
