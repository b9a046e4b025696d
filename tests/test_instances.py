import itertools
import math
import re
import warnings

import numpy as np
import pytest

from latticemax.core import check_property_exhaustive, zeros
from latticemax.instances import (
    NON_DR_TABLES,
    InstanceSpec,
    make_budget_allocation,
    make_lattice_non_dr,
    make_polymatroid,
    make_separable_concave,
    partition_polymatroid,
    random_budget_allocation,
    random_separable_concave,
    table_polymatroid,
    uniform_polymatroid,
)


def test_separable_concave_values():
    f = make_separable_concave([2.0, 1.0], [0.5, 1.0], [4, 3])
    assert f.eval(np.array([0, 0])) == 0.0
    assert f.eval(np.array([4, 0])) == pytest.approx(4.0)
    assert f.eval(np.array([1, 3])) == pytest.approx(5.0)
    assert f.meta["dr_submodular"] is True


def test_every_family_batch_matches_scalar_exactly():
    # eval_batch reads each row through fn, so a row gets the float eval
    # returns, to the last bit: a solve's memo holds one value per point
    f = make_separable_concave([1.5, 0.7, 0.2], [0.5, 0.3, 1.0], [3, 2, 4])
    cases = [(f, np.array(list(itertools.product(range(4), range(3), range(5)))))]
    cases += [(make_lattice_non_dr(t), np.argwhere(np.ones(t.shape))) for t in NON_DR_TABLES.values()]
    rng = np.random.default_rng(76)
    for seed in range(40):
        n = int(rng.integers(1, 7))
        for f in (random_separable_concave(seed, n, 8), random_budget_allocation(seed, n, 4, 8)):
            cases.append((f, rng.integers(0, f.box + 1, size=(50, n))))
    for f, pts in cases:
        assert f.eval_batch(pts).tolist() == [f.eval(row) for row in pts]


def test_separable_concave_validation():
    with pytest.raises(ValueError):
        make_separable_concave([-1.0], [0.5], [2])
    with pytest.raises(ValueError):
        make_separable_concave([1.0], [1.5], [2])
    with pytest.raises(ValueError):
        make_separable_concave([1.0], [0.0], [2])
    with pytest.raises(ValueError):
        make_separable_concave([1.0, 2.0], [0.5], [2, 2])
    # f(0) used to read nan (inf * 0.0, or 0.0 ** nan) and pass its check
    for coeffs, powers, message in (([np.inf], [0.5], "finite"), ([np.nan], [0.5], "finite"),
                                    ([1.0], [np.nan], "powers")):
        with pytest.raises(ValueError, match=message):
            make_separable_concave(coeffs, powers, [2])


def test_budget_allocation_single_edge():
    # one source, one target, q = 0.5: f(x) = 1 - 0.5^x
    f = make_budget_allocation([(0, 0, 0.5)], [3])
    assert f.eval(np.array([0])) == 0.0
    assert f.eval(np.array([1])) == pytest.approx(0.5)
    assert f.eval(np.array([2])) == pytest.approx(0.75)
    assert f.eval(np.array([3])) == pytest.approx(0.875)


def test_budget_allocation_two_sources():
    # both sources hit the same target: 1 - (1-0.5)^x0 (1-0.25)^x1
    f = make_budget_allocation([(0, 0, 0.5), (1, 0, 0.25)], [2, 2])
    got = f.eval(np.array([1, 1]))
    assert got == pytest.approx(1 - 0.5 * 0.75)
    batch = f.eval_batch(np.array([[1, 1], [2, 0], [0, 2]]))
    assert batch[1] == pytest.approx(0.75)
    assert batch[2] == pytest.approx(1 - 0.75**2)


def test_budget_allocation_validation():
    with pytest.raises(ValueError):
        make_budget_allocation([(0, 0, 0.0)], [2])
    with pytest.raises(ValueError):
        make_budget_allocation([(0, 0, 1.0)], [2])
    with pytest.raises(ValueError):
        make_budget_allocation([(5, 0, 0.5)], [2])
    # no edges is a degenerate but valid zero oracle
    f = make_budget_allocation([], [2])
    assert f.eval(np.array([2])) == 0.0


def test_family_oracles_are_dr_submodular():
    oracles = [
        make_separable_concave([2.0, 1.0], [0.5, 1.0], [3, 3]),
        make_budget_allocation([(0, 0, 0.5), (1, 0, 0.3), (1, 1, 0.8)], [3, 3]),
        random_separable_concave(7, 3, 4),
        random_budget_allocation(7, 2, 2, 3),
    ]
    for f in oracles:
        for kind in ("monotone", "dr_submodular"):
            report = check_property_exhaustive(f, kind)
            assert report.passed, (f.meta, kind, report.violations[:2])


def test_non_dr_tables_are_certified():
    for name, table in NON_DR_TABLES.items():
        f = make_lattice_non_dr(table)
        assert f.meta["strictly_non_dr"] is True, name
        assert f.meta["dr_submodular"] is False, name
        for kind in ("monotone", "lattice_submodular"):
            assert check_property_exhaustive(f, kind).passed, (name, kind)
        assert not check_property_exhaustive(f, "dr_submodular").passed, name


def test_a_certified_table_starts_at_zero_calls():
    # the certification reads the whole box three times, on an oracle of its
    # own: f.calls after a solve counts the solve's calls alone
    for name, table in NON_DR_TABLES.items():
        f = make_lattice_non_dr(table)
        assert f.calls == 0, name
        f.eval_batch(np.zeros((2, f.n), dtype=np.int64))
        assert f.calls == 2, name


def test_make_budget_allocation_names_an_edge_that_is_not_a_triple():
    for edge in ((0, 0), (0, 0, 0.5, 1), 5):
        with pytest.raises(ValueError, match=r"edge .* is not a \(source, target, probability\) triple"):
            make_budget_allocation([(1, 0, 0.5), edge], [2, 2])


def test_make_lattice_non_dr_rejects_bad_tables():
    with pytest.raises(ValueError, match="monotone"):
        make_lattice_non_dr(np.array([[0.0, 2.0], [1.0, 0.5]]))
    decreasing = np.array([0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        make_lattice_non_dr(decreasing)
    with pytest.raises(ValueError, match="lattice"):
        # f(1,0)+f(0,1) < f(1,1)+f(0,0): supermodular kink
        make_lattice_non_dr(np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        make_lattice_non_dr(np.array([[0.0, -1.0], [1.0, 2.0]]))


def test_make_lattice_non_dr_names_its_witness_in_python_ints():
    with pytest.raises(ValueError) as exc:
        make_lattice_non_dr([[0.0, 1.0], [1.0, 0.5]])
    assert str(exc.value) == "table violates monotone: x=(0, 1), y=(1, 1), lhs=0.5, rhs=1.0"


@pytest.mark.parametrize("table, message", [
    ([[0.0, np.inf], [np.inf, np.inf]], "table values must be finite"),  # was certified non-DR
    ([[0.0, np.nan], [1.0, 2.0]], "table values must be finite"),  # was "violates monotone"
    ([0.0, 1.0, np.inf], "table values must be finite"),  # was certified DR
    ([[0.0, -np.inf], [1.0, 2.0]], "table values must be non-negative"),
])
def test_make_lattice_non_dr_rejects_non_finite_tables(table, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the DR check of inf - inf used to warn
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_lattice_non_dr(table)


def test_oracles_are_pure():
    spec = InstanceSpec("random_budget_allocation",
                        {"sources": 2, "targets": 3, "cap_high": 3}, seed=42)
    f, g = spec.build(), spec.build()
    pts = np.array(list(itertools.product(*(range(b + 1) for b in f.box))))
    assert np.allclose(f.eval_batch(pts), g.eval_batch(pts))
    again = f.eval_batch(pts)
    assert np.allclose(again, g.eval_batch(pts))


def test_random_families_respect_seeds():
    a = random_separable_concave(1, 3, 4)
    b = random_separable_concave(2, 3, 4)
    pts = np.array(list(itertools.product(range(3), repeat=3)))
    assert not np.allclose(a.eval_batch(pts), b.eval_batch(pts))


def test_uniform_polymatroid_membership():
    P = uniform_polymatroid(3, 2, 4)
    assert P.member(np.array([2, 2, 0]))
    assert P.member(np.array([2, 1, 1]))
    assert not P.member(np.array([3, 1, 0]))
    assert not P.member(np.array([2, 2, 1]))
    assert P.rank({0, 1}) == 4
    assert P.rank({0}) == 2
    assert P.rank(set()) == 0


def test_uniform_polymatroid_degenerate():
    P = uniform_polymatroid(2, 1, 0)
    assert P.member(np.array([0, 0]))
    assert not P.member(np.array([1, 0]))


@pytest.mark.parametrize("per_element, total", [(1, 2.5), (1.5, 3), (1, math.nan)])
def test_uniform_polymatroid_rejects_non_integral_parameters(per_element, total):
    # its membership admitted x_e <= 1.5 while its rank truncated to an
    # integer, so pipage rounding stalled or returned a point outside P
    with pytest.raises(ValueError, match="must be integers"):
        uniform_polymatroid(3, per_element, total)


def test_partition_polymatroid_membership():
    # caps are per element, assigned by part
    P = partition_polymatroid([[0, 1], [2]], [2, 1])
    assert P.member(np.array([1, 1, 1]))
    assert P.member(np.array([2, 1, 0]))
    assert P.member(np.array([2, 1, 1]))
    assert not P.member(np.array([3, 0, 0]))
    assert not P.member(np.array([0, 0, 2]))
    assert P.rank({0}) == 2
    assert P.rank({0, 1}) == 4
    assert P.rank({0, 2}) == 3
    assert P.rank({0, 1, 2}) == 5


def test_partition_polymatroid_validation():
    with pytest.raises(ValueError):
        partition_polymatroid([[0, 1], [1, 2]], [1, 1])
    with pytest.raises(ValueError):
        partition_polymatroid([[0, 2]], [1], n=3)
    with pytest.raises(ValueError):
        partition_polymatroid([[0], [1]], [1])


def rank_axioms_hold(P, n):
    universe = list(range(n))
    for r in range(n + 1):
        for sub in itertools.combinations(universe, r):
            s = set(sub)
            rs = P.rank(s)
            assert rs >= 0
            for e in universe:
                if e in s:
                    continue
                gain_e = P.rank(s | {e}) - rs
                assert gain_e >= 0
                for g in universe:
                    if g in s or g == e:
                        continue
                    wider = P.rank(s | {g} | {e}) - P.rank(s | {g})
                    assert wider <= gain_e
    assert P.rank(set()) == 0


def test_rank_axioms_for_families():
    rank_axioms_hold(uniform_polymatroid(5, 2, 6), 5)
    rank_axioms_hold(partition_polymatroid([[0, 1, 2], [3], [4, 5]], [2, 3, 1]), 6)


def test_table_polymatroid_roundtrip():
    base = uniform_polymatroid(4, 2, 5)
    table = {frozenset(s): base.rank(s)
             for r in range(5) for s in itertools.combinations(range(4), r)}
    P = table_polymatroid(4, table)
    for s in table:
        assert P.rank(s) == base.rank(s)
    for x in itertools.product(range(3), repeat=4):
        assert P.member(np.array(x)) == base.member(np.array(x))


def test_table_polymatroid_validation():
    with pytest.raises(ValueError):
        table_polymatroid(2, {frozenset(): 1,
                              frozenset({0}): 1, frozenset({1}): 1,
                              frozenset({0, 1}): 2})
    with pytest.raises(ValueError, match="monotone"):
        table_polymatroid(2, {frozenset(): 0,
                              frozenset({0}): 2, frozenset({1}): 1,
                              frozenset({0, 1}): 1})
    with pytest.raises(ValueError, match="submodular"):
        table_polymatroid(2, {frozenset(): 0,
                              frozenset({0}): 1, frozenset({1}): 1,
                              frozenset({0, 1}): 3})


@pytest.mark.parametrize("key", [(0, 5), (-1,)])
def test_table_polymatroid_rejects_a_key_outside_the_ground_set(key):
    with pytest.raises(ValueError, match=rf"key {re.escape(repr(key))}: .* \(n = 2\)"):
        table_polymatroid(2, {(0,): 1, key: 2})


@pytest.mark.parametrize("table", [[0, 1.5, 1, 2], {(0,): 1.7, (1,): 1, (0, 1): 2}],
                         ids=["list", "dict"])
def test_table_polymatroid_rejects_a_non_integer_rank(table):
    # truncating it would read rank 1 on {0}; the rounding relies on integral ranks
    value = table[1] if isinstance(table, list) else table[(0,)]
    with pytest.raises(ValueError, match=rf"key \(0,\): rank {value} is not an integer"):
        table_polymatroid(2, table)


def test_table_polymatroid_rejects_two_keys_naming_one_subset():
    # neither key may silently win
    table = {(0,): 1, frozenset({0}): 2, (1,): 1, (0, 1): 2}
    with pytest.raises(ValueError, match=re.escape("keys (0,) and frozenset({0}) name one subset")):
        table_polymatroid(2, table)
    # integer-valued floats and repeated elements of one key are still read
    assert table_polymatroid(2, [0, 1.0, 1, 2]).rank([0]) == 1
    assert table_polymatroid(2, {(0, 0): 1, (1,): 1, (0, 1): 2}).rank([0]) == 1


def _old_rank_axioms(n, rho):
    """The kinds the former per-mask axiom loop of table_polymatroid rejects rho for.

    The loop checked each single-element step for monotonicity and each
    pair of added elements for local submodularity; here it runs to the
    end instead of raising at the first failure, so the set holds every
    kind that rho violates.
    """
    kinds = set()
    for mask in range(1 << n):
        for e in range(n):
            if mask >> e & 1:
                continue
            up = mask | 1 << e
            if rho[up] < rho[mask]:
                kinds.add("monotone")
            for g in range(n):
                if g == e or mask >> g & 1:
                    continue
                with_g = mask | 1 << g
                if rho[with_g | 1 << e] - rho[with_g] > rho[up] - rho[mask]:
                    kinds.add("submodular")
    return kinds


def _random_coverage_rank(rng, n):
    """A truncated weighted coverage rank by subset mask: monotone and submodular."""
    weights = rng.integers(1, 4, size=5)
    covers = [rng.random(5) < 0.4 for _ in range(n)]
    cap = int(rng.integers(1, weights.sum() + 1))
    rho = []
    for mask in range(1 << n):
        covered = np.zeros(5, dtype=bool)
        for e in range(n):
            if mask >> e & 1:
                covered |= covers[e]
        rho.append(min(int(weights[covered].sum()), cap))
    return rho


def test_table_polymatroid_accepts_exactly_what_the_axiom_loop_accepted():
    rng = np.random.default_rng(2024)
    tally = {"accepted": 0, "monotone": 0, "submodular": 0}
    tables = 0
    for _ in range(400):
        n = int(rng.integers(1, 7))
        base = _random_coverage_rank(rng, n)
        # the valid rank, and one entry of it raised and one lowered
        for delta in (0, int(rng.integers(1, 4)), -int(rng.integers(1, 4))):
            rho = list(base)
            mask = int(rng.integers(1, 1 << n))
            rho[mask] += delta  # a negative rank fails monotonicity
            tables += 1
            violated = _old_rank_axioms(n, rho)
            if not violated:
                assert table_polymatroid(n, rho).rank(range(n)) == rho[-1]
                tally["accepted"] += 1
                continue
            with pytest.raises(ValueError, match="monotone|submodular") as exc:
                table_polymatroid(n, rho)
            named = "monotone" if "monotone" in str(exc.value) else "submodular"
            assert named in violated, (rho, str(exc.value))
            tally[named] += 1
    assert tables >= 1000
    assert min(tally.values()) >= 100, tally


def test_table_polymatroid_names_the_witness():
    # x and y are subsets as 0/1 vectors; the DR witness's element gains more on y
    with pytest.raises(ValueError) as exc:
        table_polymatroid(2, [0, 1, 1, 3])
    assert str(exc.value) == ("rank table violates dr_submodular: Witness(x=(0, 0), y=(0, 1),"
                              " element=0, step=1, lhs=1.0, rhs=2.0)")
    with pytest.raises(ValueError) as exc:
        table_polymatroid(2, [0, 2, 1, 1])
    assert str(exc.value) == ("rank table violates monotone: Witness(x=(1, 0), y=(1, 1),"
                              " element=None, step=None, lhs=1.0, rhs=2.0)")
    with pytest.raises(ValueError, match="violates monotone"):  # a negative rank
        table_polymatroid(1, [0, -1])


def test_make_polymatroid_dispatch():
    P = make_polymatroid("uniform", n=3, per_element=2, total=4)
    assert P.member(np.array([2, 2, 0]))
    Q = make_polymatroid("partition", parts=[[0], [1]], caps=[1, 2])
    assert Q.member(np.array([1, 2]))
    with pytest.raises(ValueError):
        make_polymatroid("mystery")


def test_instance_spec_roundtrip():
    spec = InstanceSpec("separable_concave",
                        {"coeffs": [1.0, 2.0], "powers": [0.5, 1.0], "cap": [3, 2]})
    back = InstanceSpec.from_dict(spec.to_dict())
    assert back == spec
    f = back.build()
    assert f.eval(np.array([1, 1])) == pytest.approx(3.0)


def test_instance_spec_named_table():
    spec = InstanceSpec("lattice_table", {"table": "coupled_kink_2d"})
    f = spec.build()
    assert f.eval(zeros(2)) == 0.0
    assert f.meta["strictly_non_dr"] is True


def test_instance_spec_unknown_family():
    with pytest.raises(ValueError):
        InstanceSpec("fourier_basis", {}).build()


# The scalar evaluations of the two families as they were written before
# they read their argument through x.tolist(); the reference for the test
# below.
def _old_separable_concave_fn(coeffs, powers, cap):
    coeff = np.asarray(coeffs, dtype=np.float64).tolist()
    power = np.asarray(powers, dtype=np.float64).tolist()
    capl = np.asarray(cap, dtype=np.int64).tolist()

    def fn(x):
        return sum(
            ai * min(int(xi), ci) ** pi
            for ai, pi, ci, xi in zip(coeff, power, capl, x)
        )

    return fn


def _old_budget_allocation_fn(edges):
    by_target = {}
    for s, t, q in edges:
        s, t, q = int(s), int(t), float(q)
        by_target.setdefault(t, []).append((s, 1.0 - q))
    groups = [
        (np.array([s for s, _ in lst]), np.array([om for _, om in lst]))
        for _, lst in sorted(by_target.items())
    ]

    def fn(x):
        tot = 0.0
        for srcs, omq in groups:
            prod = 1.0
            for s, om in zip(srcs, omq):
                prod *= om ** int(x[s])
            tot += 1.0 - prod
        return tot

    return fn


def test_scalar_evaluation_matches_the_old_code_bit_for_bit():
    rng = np.random.default_rng(61)
    sparse_rng = np.random.default_rng(62)  # apart, so rng draws what it always drew
    points = 0
    for _ in range(40):
        n = int(rng.integers(1, 17))
        cap = rng.integers(1, 1025, size=n)
        coeffs = rng.uniform(0.1, 3.0, size=n)
        powers = np.where(rng.random(n) < 0.5, rng.choice([0.3, 0.5, 1.0], size=n),
                          rng.uniform(0.05, 1.0, size=n))
        targets = int(rng.integers(1, 17))
        edges = [
            (s, t, float(rng.uniform(0.01, 0.99)))
            for s in range(n) for t in range(targets) if rng.random() < 0.6
        ] or [(0, 0, 0.5)]
        for f, old in (
            (make_separable_concave(coeffs, powers, cap),
             _old_separable_concave_fn(coeffs, powers, cap)),
            (make_budget_allocation(edges, cap), _old_budget_allocation_fn(edges)),
        ):
            # half over the whole box, half near 0, where (1 - q)^x(s) has
            # not yet underflowed and every factor counts
            X = rng.integers(0, cap + 1, size=(250, n))
            X[125:] = rng.integers(0, np.minimum(cap, 6) + 1, size=(125, n))
            # sparse rows, as greedy iterates are: about 1 coordinate in 5
            # non-zero, and the single-unit points of a sweep's first probes
            S = sparse_rng.integers(0, np.minimum(cap, 6) + 1, size=(100, n))
            S[sparse_rng.random(S.shape) < 0.8] = 0
            S[:n] = np.diag(np.minimum(cap, sparse_rng.integers(1, 4, size=n)))
            for x in np.concatenate([X, S]):
                assert f.eval(x).hex() == float(old(x)).hex()
            points += len(X) + len(S)
            # a shifted view fed unsigned points hands fn float64 sums
            y = rng.integers(0, cap + 1) // 2
            g = f.shifted(y)
            for x in rng.integers(0, cap - y + 1, size=(20, n)):
                want = float(old(x + y)) - float(old(y))
                assert g.eval(x.astype(np.uint64)).hex() == want.hex()
    assert points >= 20_000
    # the scalar separable-concave evaluation skips x(e) = 0 terms: the
    # all-zero point, caps that include 0 and zero (or -0.0) coefficients
    # still give the old float, and fn returns +0.0 where it skips every term
    zero_rng = np.random.default_rng(63)
    for _ in range(40):
        n = int(zero_rng.integers(1, 17))
        cap = zero_rng.integers(0, 5, size=n)
        cap[zero_rng.integers(n)] = 0
        coeffs = zero_rng.uniform(0.0, 3.0, size=n)
        coeffs[zero_rng.random(n) < 0.2] = zero_rng.choice([0.0, -0.0])
        powers = zero_rng.choice([0.05, 0.3, 0.5, 1.0], size=n)
        f = make_separable_concave(coeffs, powers, cap)
        old = _old_separable_concave_fn(coeffs, powers, cap)
        X = zero_rng.integers(0, cap + 1, size=(50, n))
        X[0] = 0
        for x in X:
            got = f.eval(x)
            assert type(got) is float and got.hex() == old(x).hex()
        assert f._fn(zeros(n)).hex() == "0x0.0p+0"
