"""Acceptance gate: every shipped guarantee, one verdict line per test.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Each test re-derives its baseline from brute force or closed forms, so a
pass certifies the guarantee at the stated scale and tolerance.
"""

import itertools
import math
from pathlib import Path

import numpy as np

from latticemax.bruteforce import brute_force_opt
from latticemax.cardinality import (
    CardinalityConstraint,
    SolverConfig,
    binary_search_lattice,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
)
from latticemax.core import ValueOracle, check_property_exhaustive
from latticemax.extension import extension_exact
from latticemax.harness import load_config, run_harness
from latticemax.instances import (
    NON_DR_TABLES,
    make_budget_allocation,
    make_lattice_non_dr,
    make_separable_concave,
    partition_polymatroid,
    random_budget_allocation,
    random_separable_concave,
    uniform_polymatroid,
)
from latticemax.knapsack import KnapsackInstance, maximize_knapsack, partial_enumeration
from latticemax.polymatroid import continuous_greedy, round_polymatroid

TOL = 1e-9


def verdict(label: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


def random_dr_oracle(i: int):
    """Deterministic instance family mix keyed by trial index."""
    rng = np.random.default_rng(10_000 + i)
    n = int(rng.integers(2, 6))
    if i % 2 == 0:
        return lambda: random_separable_concave(i, n, 4)
    targets = int(rng.integers(1, 5))
    return lambda: random_budget_allocation(i, n, targets, 4)


def test_cardinality_dr_ratio():
    bound = 1 - 1 / math.e - 0.1
    passed = 0
    total = 200
    worst = np.inf
    for i in range(total):
        make = random_dr_oracle(i)
        f = make()
        rng = np.random.default_rng(20_000 + i)
        budget = int(rng.integers(1, min(8, int(f.box.sum())) + 1))
        cons = CardinalityConstraint(tuple(int(b) for b in f.box), budget)
        y, _ = maximize_dr_cardinality(f, cons, SolverConfig(0.1, i))
        value = make().eval(y)
        exact = brute_force_opt(make(), cons)
        ratio = 1.0 if exact.opt_value <= TOL else value / exact.opt_value
        worst = min(worst, ratio)
        if value >= bound * exact.opt_value - TOL:
            passed += 1
    verdict(
        "cardinality dr ratio >= 1-1/e-0.1",
        passed == total,
        f"{passed}/{total} instances, worst ratio {worst:.4f}",
    )


def search_non_dr_table(shape: tuple[int, int], seed: int, attempts: int = 100) -> np.ndarray:
    """Randomized search for a certified non-DR lattice-submodular 2-d table.

    Tables are generated from non-negative margin increments and
    non-positive mixed second differences (which forces lattice
    submodularity), then certified; the first strictly non-DR table found
    is returned.
    """
    if len(shape) != 2:
        raise ValueError("search supports 2-d tables")
    rng = np.random.default_rng(seed)
    rows, cols = shape
    for _ in range(attempts):
        row_inc = rng.uniform(0.0, 2.0, size=rows - 1)
        col_inc = rng.uniform(0.0, 2.0, size=cols - 1)
        mixed = -rng.uniform(0.0, 0.5, size=(rows - 1, cols - 1))
        # keep increments non-negative after adding mixed terms
        for i in range(rows - 1):
            slack = row_inc[i]
            for j in range(cols - 1):
                mixed[i, j] = max(mixed[i, j], -slack)
                slack += mixed[i, j]
        for j in range(cols - 1):
            slack = col_inc[j]
            for i in range(rows - 1):
                mixed[i, j] = max(mixed[i, j], -slack)
                slack += mixed[i, j]
        table = np.zeros(shape)
        table[1:, 0] = np.cumsum(row_inc)
        table[0, 1:] = np.cumsum(col_inc)
        for i in range(1, rows):
            for j in range(1, cols):
                table[i, j] = (
                    table[i - 1, j] + table[i, j - 1] - table[i - 1, j - 1]
                    + mixed[i - 1, j - 1]
                )
        try:
            oracle = make_lattice_non_dr(table)
        except ValueError:
            continue
        if oracle.meta["strictly_non_dr"]:
            return table
    raise RuntimeError(f"no non-DR table found in {attempts} attempts")


def test_search_non_dr_table_output_is_certified():
    f = make_lattice_non_dr(search_non_dr_table((4, 4), seed=11))
    lattice = check_property_exhaustive(f, "lattice_submodular").passed
    verdict(
        "searched table is lattice-submodular and strictly non-DR",
        f.meta["strictly_non_dr"] is True and lattice,
        f"4x4 table, seed 11, strictly_non_dr={f.meta['strictly_non_dr']}",
    )


def test_cardinality_lattice_ratio():
    bound = 1 - 1 / math.e - 0.2
    tables = dict(NON_DR_TABLES)
    for seed in (11, 12, 13):
        tables[f"searched_{seed}"] = search_non_dr_table((4, 4), seed=seed)
    checked = 0
    passed = 0
    worst = np.inf
    for name, table in sorted(tables.items()):
        caps = tuple(d - 1 for d in np.asarray(table).shape)
        budgets = range(1, min(8, sum(caps)) + 1)
        for budget in budgets:
            cons = CardinalityConstraint(caps, budget)
            f = make_lattice_non_dr(table)
            y, _ = maximize_lattice_cardinality(f, cons, SolverConfig(0.1, 0))
            value = make_lattice_non_dr(table).eval(y)
            exact = brute_force_opt(make_lattice_non_dr(table), cons)
            ratio = 1.0 if exact.opt_value <= TOL else value / exact.opt_value
            worst = min(worst, ratio)
            checked += 1
            if value >= bound * exact.opt_value - TOL:
                passed += 1
    verdict(
        "cardinality lattice ratio >= 1-1/e-0.2",
        passed == checked,
        f"{passed}/{checked} table instances, worst ratio {worst:.4f}",
    )


def test_binary_search_level_guarantees():
    violations = 0
    total = 500
    for i in range(total):
        rng = np.random.default_rng(3_000 + i)
        k_max = int(rng.integers(1, 65))
        inc = rng.uniform(0.0, 1.0, k_max) * (rng.random(k_max) < 0.85)
        g_tab = np.concatenate([[0.0], np.cumsum(inc)])
        g = ValueOracle(lambda x, t=g_tab: float(t[int(x[0])]), np.array([k_max]))
        ks = np.arange(1, k_max + 1)
        densities = g_tab[1:] / ks
        d_max = float(densities.max())
        if d_max <= 0:
            theta = float(rng.uniform(0.1, 1.0))
        else:
            theta = float(rng.uniform(0.2, 1.8)) * d_max
        eps = (0.1, 0.25, 0.5)[i % 3]
        res = binary_search_lattice(g, 0, theta, k_max, eps)
        if res is not None:
            if not (1 <= res <= k_max):
                violations += 1
            elif g_tab[res] < (1 - eps) * res * theta - TOL:
                violations += 1
        else:
            exists = bool(np.any(g_tab[1:] >= ks * theta))
            if exists:
                violations += 1
    verdict(
        "level search: accepted steps meet (1-eps)k·theta, no false FAIL",
        violations == 0,
        f"{total} random monotone tables, {violations} violations",
    )


def test_extension_integral_and_multilinear():
    problems = []
    # integral agreement on full boxes up to 10^4 points
    grids = [
        (make_separable_concave([1.0, 2.0, 0.5, 0.8], [0.5, 1.0, 0.5, 1.0],
                                [9, 9, 9, 9]), (9, 9, 9, 9)),
        (make_budget_allocation([(0, 0, 0.5), (1, 0, 0.3), (2, 1, 0.7),
                                 (1, 1, 0.4)], [3, 2, 3]), (3, 2, 3)),
    ]
    checked_pts = 0
    for f, caps in grids:
        for x in itertools.product(*(range(c + 1) for c in caps)):
            v = np.array(x, dtype=np.float64)
            if abs(extension_exact(f, v) - f.eval(np.array(x))) > TOL:
                problems.append(("integral", x))
            checked_pts += 1

    # agreement with the classical multilinear extension on {0,1}^10
    edges = [(s, t, q) for s, (t, q) in enumerate(
        zip([0, 1, 0, 2, 1, 2, 0, 1, 2, 0],
            [0.3, 0.5, 0.7, 0.4, 0.6, 0.2, 0.8, 0.35, 0.55, 0.45]))]
    n = 10
    f01 = make_budget_allocation(edges, [1] * n)
    subsets = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    values = f01.eval_batch(subsets)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.uniform(0.0, 1.0, n)
        weights = np.prod(np.where(subsets == 1, p, 1.0 - p), axis=1)
        direct = float(weights @ values)
        if abs(extension_exact(f01, p) - direct) > TOL:
            problems.append(("multilinear", tuple(np.round(p, 3))))
    verdict(
        "extension equals f on grids and multilinear on {0,1}^n",
        not problems,
        f"{checked_pts} grid points + 20 product points, {len(problems)} mismatches",
    )


def test_extension_concavity_and_gradients():
    instances = [
        make_separable_concave([1.0, 1.5], [0.5, 1.0], [3, 4]),
        make_budget_allocation([(0, 0, 0.4), (1, 0, 0.6), (2, 1, 0.5)], [3, 3, 2]),
        make_separable_concave([0.7, 1.2, 0.4, 0.9], [0.5, 1.0, 0.5, 0.5],
                               [2, 3, 2, 2]),
    ]
    bad_mid = 0
    rng = np.random.default_rng(41)
    for t in range(1000):
        f = instances[t % len(instances)]
        box = f.box.astype(np.float64)
        a = rng.uniform(0.0, 1.0, f.n) * box
        d = rng.uniform(0.0, 1.0, f.n)
        if d.sum() <= 0:
            continue
        room = np.min(np.where(d > 1e-12, (box - a) / np.maximum(d, 1e-12), np.inf))
        step = 0.5 * rng.uniform(0.0, 1.0) * room
        lo, mid, hi = a, a + step * d, a + 2 * step * d
        if extension_exact(f, mid) < 0.5 * (extension_exact(f, lo)
                                            + extension_exact(f, hi)) - TOL:
            bad_mid += 1

    bad_grad = 0
    for t in range(1000):
        f = instances[t % len(instances)]
        box = f.box
        e = int(rng.integers(0, f.n))
        if box[e] < 2:
            e = int(np.argmax(box))
        x = rng.uniform(0.0, 1.0, f.n) * box
        x[e] = float(rng.integers(1, box[e]))
        # F is linear in x_e within a cell, so the one-sided slopes at the
        # plane are differences of F at the neighbouring cell faces
        lo, hi = x.copy(), x.copy()
        lo[e], hi[e] = x[e] - 1, x[e] + 1
        mid = extension_exact(f, x)
        minus, plus = mid - extension_exact(f, lo), extension_exact(f, hi) - mid
        if minus < plus - TOL:
            bad_grad += 1
    verdict(
        "extension midpoint-concave along d>=0 and grad- >= grad+ at planes",
        bad_mid == 0 and bad_grad == 0,
        f"1000 midpoints ({bad_mid} bad), 1000 plane points ({bad_grad} bad)",
    )


def test_continuous_greedy_and_rounding():
    eps = 0.25
    bound = 1 - 1 / math.e - 5 * eps  # negative at eps=1/4: certifies F >= 0 runs
    setups = [
        ("uniform", uniform_polymatroid(3, 2, 4),
         lambda: make_separable_concave([1.0, 1.5, 0.8], [0.5, 1.0, 0.5], [3, 3, 3])),
        ("partition", partition_polymatroid([[0, 1], [2]], [1, 2]),
         lambda: make_separable_concave([1.2, 0.9, 1.1], [0.5, 0.5, 1.0], [3, 3, 3])),
    ]
    ok = True
    details = []
    for name, P, make in setups:
        exact = brute_force_opt(make(), P)
        hits = 0
        runs = 30
        fractional = None
        for seed in range(runs):
            x = continuous_greedy(make(), P, SolverConfig(eps, seed))
            if extension_exact(make(), x) >= bound * exact.opt_value - TOL:
                hits += 1
            if seed == 0:
                fractional = x
        if hits < math.ceil(2 * runs / 3):
            ok = False

        f = make()
        rounded = np.array(
            [round_polymatroid(fractional, P, seed) for seed in range(5000)]
        )
        members = sum(P.member(r.astype(np.float64)) for r in rounded)
        if members != 5000:
            ok = False
        vals = f.eval_batch(rounded.astype(np.int64))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        target = extension_exact(f, fractional)
        if float(vals.mean()) < target - 3 * se:
            ok = False
        details.append(
            f"{name}: {hits}/{runs} runs, {members}/5000 in P,"
            f" mean {vals.mean():.4f} vs F {target:.4f} (se {se:.4f})"
        )
    verdict(
        "continuous greedy hits bound >= 2/3 runs; rounding stays in P",
        ok,
        "; ".join(details),
    )


def test_knapsack_ratio_and_enumeration():
    bound = 1 - 1 / math.e - 0.5
    grid = np.round(np.arange(0.05, 0.70, 0.05), 2)
    total = 100
    ratio_ok = 0
    enum_ok = 0
    worst = np.inf
    for i in range(total):
        rng = np.random.default_rng(50_000 + i)
        n = int(rng.integers(2, 5))
        if i % 2 == 0:
            caps = rng.integers(1, 4, size=n)
            coeffs = rng.uniform(0.2, 2.0, size=n)
            powers = rng.choice([0.3, 0.5, 1.0], size=n)
            make = lambda: make_separable_concave(coeffs, powers, caps)
        else:
            targets = int(rng.integers(1, 4))
            make = lambda: random_budget_allocation(i, n, targets, 3)
        f = make()
        weights = tuple(float(rng.choice(grid)) for _ in range(f.n))
        inst = KnapsackInstance(weights, tuple(int(c) for c in f.box))
        x, _ = maximize_knapsack(f, inst, SolverConfig(0.1, i))
        value = f.eval(x)
        exact = brute_force_opt(make(), inst)
        ratio = 1.0 if exact.opt_value <= TOL else value / exact.opt_value
        worst = min(worst, ratio)
        if value >= bound * exact.opt_value - TOL:
            ratio_ok += 1
        starts = partial_enumeration(make(), inst, 0.1)
        tuples = [tuple(p) for p in starts]
        if (
            (0,) * f.n in tuples
            and all(inst.fits(p) for p in starts)
            and all(np.count_nonzero(p) <= 3 for p in starts)
        ):
            enum_ok += 1
    verdict(
        "knapsack ratio >= 1-1/e-0.5 with valid start enumeration",
        ratio_ok == total and enum_ok == total,
        f"ratio {ratio_ok}/{total} (worst {worst:.4f}), enumeration {enum_ok}/{total}",
    )


def test_query_complexity_scaling():
    C = 8
    eps = 0.1
    ok = True
    rows = []
    for n in (2, 4, 8, 16):
        for cap in (4, 64, 1024):
            rng = np.random.default_rng(n * 1000 + cap)
            coeffs = rng.uniform(0.5, 2.0, size=n)
            powers = rng.choice([0.5, 1.0], size=n)
            f = make_separable_concave(coeffs, powers, [cap] * n)
            budget = 2 * n
            cons = CardinalityConstraint((cap,) * n, budget)
            maximize_dr_cardinality(f, cons, SolverConfig(eps, 0))
            allowed = C * (n / eps) * math.log2(cap + 1) * math.log((budget + 1) / eps)
            if f.calls > allowed:
                ok = False
            rows.append(f"n={n},c={cap}:{f.calls}<={int(allowed)}")
    verdict(
        "oracle calls within C·(n/eps)·log2(cap+1)·log((r+1)/eps), C=8",
        ok,
        " ".join(rows),
    )


def test_harness_reports_are_reproducible(tmp_path):
    config_path = Path(__file__).resolve().parents[1] / "scripts" / "demo_config.yaml"
    config = load_config(str(config_path))
    code_a = run_harness(config, str(tmp_path / "a"))
    code_b = run_harness(load_config(str(config_path)), str(tmp_path / "b"), workers=3)
    bytes_a = (tmp_path / "a" / "report.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "report.csv").read_bytes()
    verdict(
        "two harness runs emit byte-identical reports",
        bytes_a == bytes_b and code_a == code_b == 0,
        f"{len(bytes_a)} bytes, exit codes {code_a}/{code_b}",
    )
