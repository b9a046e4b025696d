"""Approximation-ratio sweep against brute force on random small instances.

For each epsilon, solves a batch of seeded instances per constraint type
and reports worst/mean value ratios. Everything is desk scale, so the
exact optimum comes from full enumeration.

    python3 scripts/ratio_sweep.py --trials 50 --epsilons 0.1 0.25 0.5
"""

import argparse
import csv
import math
from functools import partial

import numpy as np

from latticemax.bruteforce import brute_force_opt
from latticemax.cardinality import (
    CardinalityConstraint,
    SolverConfig,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
)
from latticemax.instances import (
    random_budget_allocation,
    random_separable_concave,
    uniform_polymatroid,
)
from latticemax.knapsack import KnapsackInstance, maximize_knapsack
from latticemax.polymatroid import maximize_polymatroid

GRID = np.round(np.arange(0.05, 0.70, 0.05), 2)


def dr_instance(i: int):
    rng = np.random.default_rng(10_000 + i)
    n = int(rng.integers(2, 5))
    targets = int(rng.integers(1, 4))
    if i % 2 == 0:
        return lambda: random_separable_concave(i, n, 4)
    return lambda: random_budget_allocation(i, n, targets, 4)


def sweep_cardinality(eps: float, trials: int, solve=maximize_dr_cardinality) -> list[float]:
    ratios = []
    for i in range(trials):
        make = dr_instance(i)
        f = make()
        rng = np.random.default_rng(20_000 + i)
        budget = int(rng.integers(1, min(8, int(f.box.sum())) + 1))
        cons = CardinalityConstraint(tuple(int(b) for b in f.box), budget)
        y, _ = solve(f, cons, SolverConfig(eps, i))
        exact = brute_force_opt(make(), cons)
        if exact.opt_value > 1e-9:
            ratios.append(make().eval(y) / exact.opt_value)
    return ratios


def sweep_knapsack(eps: float, trials: int) -> list[float]:
    ratios = []
    for i in range(trials):
        make = dr_instance(i)
        f = make()
        rng = np.random.default_rng(30_000 + i)
        weights = tuple(float(rng.choice(GRID)) for _ in range(f.n))
        inst = KnapsackInstance(weights, tuple(int(c) for c in f.box))
        x, _ = maximize_knapsack(f, inst, SolverConfig(eps, i))
        exact = brute_force_opt(make(), inst)
        if exact.opt_value > 1e-9:
            ratios.append(f.eval(x) / exact.opt_value)
    return ratios


def sweep_polymatroid(eps: float, trials: int) -> list[float]:
    ratios = []
    for i in range(trials):
        make = lambda: random_separable_concave(i, 3, 3)
        P = uniform_polymatroid(3, 2, 4)
        x, _ = maximize_polymatroid(make(), P, SolverConfig(eps, i))
        exact = brute_force_opt(make(), P)
        if exact.opt_value > 1e-9:
            ratios.append(make().eval(x) / exact.opt_value)
    return ratios


SWEEPS = {
    "cardinality_dr": sweep_cardinality,
    "knapsack": sweep_knapsack,
    "polymatroid": sweep_polymatroid,
    "cardinality_lattice": partial(sweep_cardinality, solve=maximize_lattice_cardinality),
}

# guarantee = 1 - 1/e - SLACK[solver] * eps: the lattice sweep loses one
# more eps to its (1 - eps) acceptance test
SLACK = {"cardinality_dr": 1, "cardinality_lattice": 2, "knapsack": 5, "polymatroid": 5}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--epsilons", type=float, nargs="+", default=[0.1, 0.25, 0.5])
    parser.add_argument(
        "--solvers", nargs="+", default=list(SWEEPS), choices=list(SWEEPS)
    )
    parser.add_argument("--csv", default=None)
    args = parser.parse_args(argv)

    rows = []
    for solver in args.solvers:
        trials = args.trials if solver != "polymatroid" else min(args.trials, 10)
        for eps in args.epsilons:
            ratios = SWEEPS[solver](eps, trials)
            guarantee = 1 - 1 / math.e - SLACK[solver] * eps
            rows.append(
                {
                    "solver": solver,
                    "epsilon": eps,
                    "trials": len(ratios),
                    "worst": round(min(ratios), 4),
                    "mean": round(float(np.mean(ratios)), 4),
                    "guarantee": round(max(guarantee, 0.0), 4),
                }
            )
            print(
                f"{solver:15s} eps={eps:<5} worst={rows[-1]['worst']:.4f}"
                f" mean={rows[-1]['mean']:.4f} guarantee={rows[-1]['guarantee']:.4f}"
                f" ({len(ratios)} trials)"
            )
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
