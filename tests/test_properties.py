"""Derandomized properties of the three threshold greedies under the lazy skip.

On generated DR instances (separable concave and budget allocation, n <= 6,
caps <= 40) and, for the lattice rule, on the non-DR tables:

* the solution and trace equal the no-skip reference sweep's, and the solve
  calls f at most as often as that sweep evaluates distinct points;
* each docstring's call bound holds;
* f scaled by 2 gives the same solution, call count and skipped visits,
  with every threshold and gain doubled: scaling by a power of two is exact
  in floats, so any drift in the threshold arithmetic or in the skip's
  margin would show.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from latticemax.cardinality import (
    CardinalityConstraint,
    SolverConfig,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
)
from latticemax.core import ValueOracle, zeros
from latticemax.instances import (
    NON_DR_TABLES,
    make_budget_allocation,
    make_lattice_non_dr,
    make_separable_concave,
)
from latticemax.knapsack import KnapsackInstance, greedy_knapsack
from test_cardinality import recording, reference_greedy_knapsack, reference_sweep

EPSILONS = [0.05, 0.1, 0.2, 0.3]
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def dr_oracles(draw):
    """A factory of a separable-concave or budget-allocation oracle, n <= 6, caps <= 40."""
    n = draw(st.integers(1, 6))
    caps = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
        powers = draw(st.lists(st.sampled_from([0.3, 0.5, 0.7, 1.0]), min_size=n, max_size=n))
        return lambda: make_separable_concave(coeffs, powers, caps)
    targets = draw(st.integers(1, 4))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, targets - 1), st.floats(0.05, 0.9))
    edges = draw(st.lists(edge, min_size=1, max_size=2 * n))
    return lambda: make_budget_allocation(edges, caps)


def non_dr_oracles():
    return st.sampled_from(sorted(NON_DR_TABLES)).map(
        lambda name: lambda: make_lattice_non_dr(NON_DR_TABLES[name]))


def doubled(make):
    """A factory of the oracle 2 f, f from ``make``."""
    def make_doubled():
        g = make()
        return ValueOracle(lambda x: 2.0 * g.eval(x), g.box)
    return make_doubled


def steps(trace):
    return [(s.threshold, s.element, s.step, s.gain, s.accepted) for s in trace.steps]


def check_scaling(solve, make):
    f, g = make(), doubled(make)()
    x, trace = solve(f)
    x2, trace2 = solve(g)
    assert x2.tolist() == x.tolist() and g.calls == f.calls
    assert trace2.skipped == trace.skipped
    assert steps(trace2) == [(2 * t, e, k, 2 * gain, ok) for t, e, k, gain, ok in steps(trace)]


def check_cardinality(make, budget, eps, lattice):
    caps = tuple(int(c) for c in make().box)
    cst = CardinalityConstraint(caps, min(budget, sum(caps)))
    config = SolverConfig(eps)
    solver = maximize_lattice_cardinality if lattice else maximize_dr_cardinality
    solve = lambda f: solver(f, cst, config)
    f = make()
    x, trace = solve(f)
    ref, ref_points = recording(make())
    ref_x, ref_steps = reference_sweep(ref, cst, config, lattice)
    assert x.tolist() == ref_x.tolist() and steps(trace) == ref_steps
    assert f.calls <= len(set(ref_points))
    n, eff, r = len(caps), config.effective, cst.budget
    m = min(max(caps), r)
    if lattice:  # maximize_lattice_cardinality: 1 + n + (s + 1) n m
        accepted = sum(s.accepted for s in trace.steps)
        assert f.calls <= 1 + n + (accepted + 1) * n * m
    else:  # maximize_dr_cardinality: 1 + n + L n ceil(log2(m + 1))
        levels = 1 + math.log(r / eff) / eff
        assert f.calls <= 1 + n + levels * n * math.ceil(math.log2(m + 1))
    check_scaling(solve, make)


@given(dr_oracles(), st.integers(1, 30), st.sampled_from(EPSILONS))
@PROPERTY
def test_dr_cardinality_lazy_sweep_matches_reference(make, budget, eps):
    check_cardinality(make, budget, eps, lattice=False)


@given(dr_oracles(), st.integers(1, 30), st.sampled_from(EPSILONS))
@PROPERTY
def test_lattice_cardinality_lazy_sweep_matches_reference(make, budget, eps):
    check_cardinality(make, budget, eps, lattice=True)


@given(non_dr_oracles(), st.integers(1, 8), st.sampled_from(EPSILONS))
@PROPERTY
def test_lattice_cardinality_lazy_sweep_matches_reference_on_non_dr_tables(make, budget, eps):
    check_cardinality(make, budget, eps, lattice=True)


@given(dr_oracles(), st.data(), st.sampled_from(EPSILONS))
@PROPERTY
def test_greedy_knapsack_lazy_sweep_matches_reference(make, data, eps):
    caps = tuple(int(c) for c in make().box)
    weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(caps), max_size=len(caps)))
    inst = KnapsackInstance(tuple(weights), caps)
    config = SolverConfig(eps)
    solve = lambda f: greedy_knapsack(f, inst, zeros(len(caps)), config)
    f = make()
    x, trace = solve(f)
    ref, ref_points = recording(make())
    ref_x, ref_steps = reference_greedy_knapsack(ref, inst, zeros(len(caps)), config)
    assert x.tolist() == ref_x.tolist() and steps(trace) == ref_steps
    assert f.calls <= len(set(ref_points))
    # greedy_knapsack: 1 + n + L n ceil(log2(m + 1)), L <= 1 + ln(1 / (eps w_min)) / eps
    n, eff = len(caps), config.effective
    levels = 1 + math.log(1 / (eff * min(inst.weights))) / eff
    assert f.calls <= 1 + n + levels * n * math.ceil(math.log2(max(caps) + 1))
    check_scaling(solve, make)

