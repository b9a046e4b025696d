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

The knapsack greedy from 0 (DR instances, float weights) takes only steps
that fit the budget, and on return leaves no element with room and a unit
that fits whose gain clears w_e times the last level (up to the skip's
margin).

For the knapsack solve (n <= 3, caps <= 4, DR instances and the non-DR
tables) the solution, trace and skipped visits equal the reference solve's,
whose enumeration and completions share no memo; calls are at most
the reference's and at most the box size, and f scaled by 2 scales as above.

For the polymatroid solver (n <= 4, caps <= 3, uniform, partition or
rank-table P) the solve equals the old direction loop's bit for bit, with no
more oracle or membership calls, and f scaled by 2 gives the same points and
the same counts of both.

The ratios are checked against brute force: f(x) >= (1 - 1/e - eps) OPT
for the DR cardinality and knapsack solvers (DR instances, n <= 4, caps
<= 3, and the density greedy's trap), and f(x) >= (1 - 1/e - 2 eps) OPT,
``ratio_sweep.py``'s slack, for the lattice solver on the same DR
instances and on the non-DR tables, at eps in {0.1, 0.2, 0.25}.  The
polymatroid solver's ratio is not checked.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticemax.bruteforce import brute_force_opt
from latticemax.cardinality import (
    SKIP_MARGIN,
    CardinalityConstraint,
    SolverConfig,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
    threshold_schedule,
)
from latticemax.core import ValueOracle, unit, zeros
from latticemax.instances import (
    NON_DR_TABLES,
    make_budget_allocation,
    make_lattice_non_dr,
    make_polymatroid,
    make_separable_concave,
)
from latticemax.knapsack import BUDGET_TOL, KnapsackInstance, greedy_knapsack, maximize_knapsack
from latticemax.polymatroid import maximize_polymatroid
from test_cardinality import recording, reference_greedy_knapsack, reference_sweep
from test_knapsack import reference_maximize_knapsack
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
        assert f.calls <= 1 + n + (len(trace.steps) + 1) * n * m
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


@given(dr_oracles(), st.data(), st.sampled_from(EPSILONS))
@PROPERTY
def test_greedy_knapsack_steps_fit_and_leave_no_unit_that_clears(make, data, eps):
    # every step fits the budget, and on return no element with room and a
    # unit that fits gains w_e times the last level or more
    caps = tuple(int(c) for c in make().box)
    n = len(caps)
    weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    inst = KnapsackInstance(tuple(weights), caps)
    config = SolverConfig(eps)
    f = make()
    x, trace = greedy_knapsack(f, inst, zeros(n), config)
    w = inst.weight_vector()
    y, spent = zeros(n), 0.0
    for s in trace.steps:
        y[s.element] += s.step
        spent += s.step * w[s.element]
        assert inst.fits(y)
    assert y.tolist() == x.tolist()
    eff = config.effective
    d = max(f.eval(unit(n, e)) / w[e] for e in range(n))
    last = list(threshold_schedule(d, eff * d * min(weights), eff))[-1]
    f_x = f.eval(x)
    for e in range(n):
        if x[e] < caps[e] and int((1.0 + BUDGET_TOL - spent) // w[e]) >= 1:
            bar = w[e] * last
            assert f.eval(x + unit(n, e)) - f_x < bar + SKIP_MARGIN * max(abs(f_x), bar)


@st.composite
def knapsack_solves(draw):
    """(make f, instance, eps): a DR oracle with n <= 3 and caps <= 4, or a non-DR table."""
    make = draw(st.one_of(dr_oracles(3, 4), non_dr_oracles()))
    caps = tuple(int(c) for c in make().box)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(caps), max_size=len(caps)))
    return make, KnapsackInstance(tuple(weights), caps), draw(st.sampled_from(EPSILONS))


@given(knapsack_solves())
@PROPERTY
def test_maximize_knapsack_matches_the_reference_solve(solve):
    make, inst, eps = solve
    config = SolverConfig(eps)
    run = lambda f: maximize_knapsack(f, inst, config)
    f, ref = make(), make()
    x, trace = run(f)
    ref_x, ref_trace = reference_maximize_knapsack(ref, inst, config)
    assert x.tolist() == ref_x.tolist() and steps(trace) == steps(ref_trace)
    assert trace.skipped == ref_trace.skipped
    assert f.calls <= ref.calls and f.calls <= math.prod(c + 1 for c in inst.cap)
    check_scaling(run, make)


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


# the paper's ratios, checked against brute force at small scale
RATIO_EPSILONS = [0.1, 0.2, 0.25]
RATIO_TOL = 1e-9


def check_ratio(solve, make, constraint, eps, slack):
    """f(x) >= (1 - 1/e - slack * eps) * OPT for the point ``solve`` returns."""
    x, _ = solve(make(), constraint, SolverConfig(eps))
    opt = brute_force_opt(make(), constraint).opt_value
    assert make().eval(x) >= (1 - 1 / math.e - slack * eps) * opt - RATIO_TOL


@given(dr_oracles(4, 3), st.data(), st.sampled_from(RATIO_EPSILONS))
@PROPERTY
def test_dr_cardinality_meets_its_ratio(make, data, eps):
    caps = tuple(int(c) for c in make().box)
    budget = data.draw(st.integers(1, sum(caps)))
    check_ratio(maximize_dr_cardinality, make, CardinalityConstraint(caps, budget), eps, 1)


@st.composite
def dr_knapsacks(draw):
    """(make f, instance): a DR oracle with n <= 4 and caps <= 3, weights in [0.05, 1]."""
    make = draw(dr_oracles(4, 3))
    caps = tuple(int(c) for c in make().box)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(caps), max_size=len(caps)))
    return make, KnapsackInstance(tuple(weights), caps)


# the density greedy's trap: from 0 it takes the light element first, and
# then the heavy one, worth ten times more, no longer fits
GREEDY_TRAP = (lambda: make_separable_concave([1.0, 0.1], [1.0, 1.0], [1, 1]),
               KnapsackInstance((1.0, 0.05), (1, 1)))


@given(dr_knapsacks(), st.sampled_from(RATIO_EPSILONS))
@example(GREEDY_TRAP, 0.1)
@PROPERTY
def test_knapsack_meets_its_ratio(knapsack, eps):
    make, inst = knapsack
    check_ratio(maximize_knapsack, make, inst, eps, 1)


@given(dr_oracles(4, 3), st.data(), st.sampled_from(RATIO_EPSILONS))
@PROPERTY
def test_lattice_cardinality_meets_its_ratio(make, data, eps):
    # DR instances, so the rule is the DR level rule; ratio_sweep.py's slack
    caps = tuple(int(c) for c in make().box)
    budget = data.draw(st.integers(1, sum(caps)))
    check_ratio(maximize_lattice_cardinality, make, CardinalityConstraint(caps, budget), eps, 2)


@given(non_dr_oracles(), st.integers(1, 8), st.sampled_from(RATIO_EPSILONS))
@PROPERTY
def test_lattice_cardinality_meets_its_ratio_on_non_dr_tables(make, budget, eps):
    # ratio_sweep.py's slack: the (1 - eps) acceptance test loses one more eps
    caps = tuple(int(c) for c in make().box)
    cst = CardinalityConstraint(caps, min(budget, sum(caps)))
    check_ratio(maximize_lattice_cardinality, make, cst, eps, 2)
