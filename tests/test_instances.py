import itertools

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
    search_non_dr_table,
    table_polymatroid,
    uniform_polymatroid,
)


def test_separable_concave_values():
    f = make_separable_concave([2.0, 1.0], [0.5, 1.0], [4, 3])
    assert f.eval(np.array([0, 0])) == 0.0
    assert f.eval(np.array([4, 0])) == pytest.approx(4.0)
    assert f.eval(np.array([1, 3])) == pytest.approx(5.0)
    assert f.meta["dr_submodular"] is True


def test_separable_concave_batch_matches_scalar():
    f = make_separable_concave([1.5, 0.7, 0.2], [0.5, 0.3, 1.0], [3, 2, 4])
    pts = np.array(list(itertools.product(range(4), range(3), range(5))))
    batch = f.eval_batch(pts)
    for row, v in zip(pts, batch):
        assert v == pytest.approx(f.eval(row))


def test_separable_concave_validation():
    with pytest.raises(ValueError):
        make_separable_concave([-1.0], [0.5], [2])
    with pytest.raises(ValueError):
        make_separable_concave([1.0], [1.5], [2])
    with pytest.raises(ValueError):
        make_separable_concave([1.0], [0.0], [2])
    with pytest.raises(ValueError):
        make_separable_concave([1.0, 2.0], [0.5], [2, 2])


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


def test_search_non_dr_table_output_is_certified():
    table = search_non_dr_table((4, 4), seed=11)
    f = make_lattice_non_dr(table)
    assert f.meta["strictly_non_dr"] is True
    assert check_property_exhaustive(f, "lattice_submodular").passed


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
