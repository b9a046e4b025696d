"""Command line entry point for the experiment harness."""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, apply_overrides, load_config, run_harness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticemax",
        description="Run solver sweeps described by a YAML config and "
        "check the declared assertions.",
    )
    parser.add_argument("--config", required=True, help="path to the YAML config")
    parser.add_argument("--out", required=True, help="output directory for report.csv and summary.txt")
    parser.add_argument("--seed", type=int, default=None, help="override every cell seed")
    parser.add_argument("--algo", default=None, help="run only cells using this algorithm")
    parser.add_argument(
        "--no-bruteforce",
        action="store_true",
        help="skip exact baselines (ratio columns stay empty)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock times (report is no longer byte-reproducible)",
    )
    return parser


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        config = apply_overrides(config, algo=args.algo, seed=args.seed)
        code = run_harness(
            config, args.out, timings=args.timings, bruteforce=not args.no_bruteforce
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(code)


if __name__ == "__main__":
    main()
