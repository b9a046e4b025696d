"""Derandomized properties of the four solvers' threshold sweep under the lazy skip.

On generated DR instances (separable concave and budget allocation, n <= 6,
caps <= 40) and, for the lattice rule, on the non-DR tables:

* the solution and trace equal the no-skip reference sweep's, and the solve
  calls f at most as often as that sweep evaluates distinct points;
* each docstring's call bound holds;
* f scaled by 2 gives the same solution, call count and skipped visits,
  with every threshold and gain doubled: scaling by a power of two is exact
  in floats, so any drift in the threshold arithmetic or in the skip's
  margin would show.

Every oracle a property builds keeps the ``meta`` of the one it copies, so
the lattice rule runs its DR form on the DR instances.

For the polymatroid solver (n <= 4, caps <= 3, uniform, partition or
rank-table P) the solve equals the old direction loop's bit for bit, with no
more oracle or membership calls, and f scaled by 2 gives the same points and
the same counts of both.
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
    make_polymatroid,
    make_separable_concave,
)
from latticemax.knapsack import KnapsackInstance, greedy_knapsack
from latticemax.polymatroid import maximize_polymatroid
from test_cardinality import recording, reference_greedy_knapsack, reference_sweep
from test_polymatroid import _old_maximize_polymatroid

EPSILONS = [0.05, 0.1, 0.2, 0.3]
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def dr_oracles(draw, max_n=6, max_cap=40):
    """A factory of a separable-concave or budget-allocation oracle, n <= max_n, caps <= max_cap."""
    n = draw(st.integers(1, max_n))
    caps = draw(st.lists(st.integers(1, max_cap), min_size=n, max_size=n))
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
    """A factory of the oracle 2 f, with f's ``meta``, f from ``make``."""
    def make_doubled():
        g = make()
        return ValueOracle(lambda x: 2.0 * g.eval(x), g.box, meta=g.meta)
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


@st.composite
def polymatroids(draw, n):
    """A factory of a uniform, partition or rank-table polymatroid on n elements."""
    family = draw(st.sampled_from(["uniform", "partition", "rank_table"]))
    if family == "uniform":
        params = {"n": n, "per_element": draw(st.integers(1, 3)), "total": draw(st.integers(1, 2 * n))}
    elif family == "partition":
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        parts = [p for p in ([e for e in range(n) if labels[e] == j] for j in range(n)) if p]
        caps = draw(st.lists(st.integers(1, 3), min_size=len(parts), max_size=len(parts)))
        params = {"parts": parts, "caps": caps, "n": n}
    else:  # coverage of 3 items plus |S|: monotone, submodular, integral
        covers = draw(st.lists(st.lists(st.booleans(), min_size=3, max_size=3),
                               min_size=n, max_size=n))
        table = [sum(any(covers[e][t] for e in range(n) if m >> e & 1) for t in range(3))
                 + bin(m).count("1") for m in range(1 << n)]
        params = {"n": n, "table": table}
    return lambda: make_polymatroid(family, **params)


@st.composite
def polymatroid_solves(draw):
    """(make f, make P, config): a DR oracle with n <= 4 and caps <= 3, P on its n elements."""
    make_f = draw(dr_oracles(4, 3))
    make_P = draw(polymatroids(make_f().n))
    eps = draw(st.sampled_from([1 / 4, 1 / 3, 1 / 2]))
    return make_f, make_P, SolverConfig(eps, draw(st.integers(0, 999)))


def hexes(x):
    return [v.hex() for v in x.tolist()]


@given(polymatroid_solves())
@PROPERTY
def test_polymatroid_solve_matches_the_old_direction_loop(solve):
    make_f, make_P, config = solve
    f, P, ref_f, ref_P = make_f(), make_P(), make_f(), make_P()
    x_int, x_frac = maximize_polymatroid(f, P, config)
    ref_int, ref_frac = _old_maximize_polymatroid(ref_f, ref_P, config)
    assert x_int.tolist() == ref_int.tolist() and hexes(x_frac) == hexes(ref_frac)
    assert f.calls <= ref_f.calls and P.member_calls <= ref_P.member_calls


@given(polymatroid_solves())
@PROPERTY
def test_polymatroid_solve_is_unchanged_by_doubling_f(solve):
    make_f, make_P, config = solve
    f, g, P, Q = make_f(), doubled(make_f)(), make_P(), make_P()
    x_int, x_frac = maximize_polymatroid(f, P, config)
    y_int, y_frac = maximize_polymatroid(g, Q, config)
    assert y_int.tolist() == x_int.tolist() and hexes(y_frac) == hexes(x_frac)
    assert g.calls == f.calls and Q.member_calls == P.member_calls
