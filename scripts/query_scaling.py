"""Measure oracle-call growth of the threshold greedy across problem sizes.

Prints one row per (n, cap) cell with the measured call count of the DR
greedy, the reference envelope C * (n/eps) * log2(cap+1) * log((r+1)/eps)
and its headroom, and the call count of the lattice greedy on a fresh copy
of the same oracle.  Only the DR count is held to the envelope.

    python3 scripts/query_scaling.py --eps 0.1 --csv /tmp/scaling.csv
"""

import argparse
import csv
import math
import sys

import numpy as np

from latticemax.cardinality import (
    CardinalityConstraint,
    SolverConfig,
    maximize_dr_cardinality,
    maximize_lattice_cardinality,
)
from latticemax.instances import make_separable_concave


def run(ns, caps, eps: float, C: float):
    rows = []
    for n in ns:
        for cap in caps:
            rng = np.random.default_rng(n * 1000 + cap)
            coeffs = rng.uniform(0.5, 2.0, size=n)
            powers = rng.choice([0.5, 1.0], size=n)
            f, g = (make_separable_concave(coeffs, powers, [cap] * n) for _ in range(2))
            budget = 2 * n
            cons = CardinalityConstraint((cap,) * n, budget)
            maximize_dr_cardinality(f, cons, SolverConfig(eps, 0))
            maximize_lattice_cardinality(g, cons, SolverConfig(eps, 0))
            envelope = C * (n / eps) * math.log2(cap + 1) * math.log((budget + 1) / eps)
            rows.append(
                {
                    "n": n,
                    "cap": cap,
                    "budget": budget,
                    "oracle_calls": f.calls,
                    "envelope": round(envelope, 1),
                    "headroom": round(envelope / max(f.calls, 1), 1),
                    "lattice_calls": g.calls,
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", type=float, default=0.1)
    parser.add_argument("--constant", type=float, default=8.0, help="envelope constant C")
    parser.add_argument("--ns", type=int, nargs="+", default=[2, 4, 8, 16])
    parser.add_argument("--caps", type=int, nargs="+", default=[4, 64, 1024])
    parser.add_argument("--csv", default=None, help="optional output path")
    args = parser.parse_args(argv)

    rows = run(args.ns, args.caps, args.eps, args.constant)
    header = list(rows[0].keys())
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(row[h]).rjust(w) for h, w in zip(header, widths)))
    over = [r for r in rows if r["oracle_calls"] > r["envelope"]]
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    if over:
        print(f"{len(over)} cells exceeded the envelope", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
