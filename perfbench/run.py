"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload greedy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
the checkout this file sits in, never from an installed copy.  Each run is
a closed loop: one caller in one process and one thread runs the
workload's units one after another, repeating the list until ``--seconds``
have passed (the first pass always completes, so per-seed counts cover
every unit).

Wall time on a shared host drifts with the host's CPU speed, so every unit
is timed between two runs of a fixed reference loop and reported in
reference units: unit time divided by the mean of the two adjacent
reference times.  Raw seconds are printed for information only.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced passes; the last line
holds the per-layer metrics of set-up plus the first traced pass, and the
tracing overhead (traced over untraced time of the same units, minus 1).
The line before the last always holds every measured figure as JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# Untimed units before measuring.  The first large numpy arrays a process
# frees raise glibc's mmap threshold; until then every batch allocation
# page-faults afresh, which made the first pass of `continuous` ~10% slower.
WARMUP_S = 3.0

# Metrics on the last line with --trace 0 (those that are never zero);
# the detail line also carries membership_calls, ratio_min and failed_frac.
END_TO_END = (
    "setup_s",
    "solve_ref",
    "solve_ref_p50",
    "solve_ref_p90",
    "oracle_calls",
    "value_sum",
    "peak_rss_mb",
)
UNITS = {
    "setup_s": "s",
    "solve_ref": "ref-units",
    "solve_ref_p50": "ref-units",
    "solve_ref_p90": "ref-units",
    "oracle_calls": "calls",
    "membership_calls": "calls",
    "value_sum": "f-units",
    "ratio_min": "ratio",
    "failed_frac": "fraction",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import latticemax from this checkout's src/, or exit with status 2."""
    src = ROOT / "src"
    if not (src / "latticemax" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import latticemax

    if Path(latticemax.__file__).resolve().parent != (src / "latticemax").resolve():
        print(f"perfbench: imported {latticemax.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return latticemax


# -- reference loop ----------------------------------------------------------


REF_REPS = 800
REF_BULK_SHAPE = (180_000, 3)


def reference_loop(data) -> float:
    """A fixed mix of the two kinds of work the workloads do.

    About 2 ms of small numpy reductions plus Python arithmetic (the scalar
    oracle path), then one pass over freshly allocated arrays the size of a
    continuous-greedy sample batch (batched evaluation, which is bound by
    memory and page faults more than by the interpreter).
    """
    acc = 0.0
    for i in range(REF_REPS):
        acc += float(data.sum()) - float(data.max()) * 0.5 + (i % 7) * 0.25
    import numpy as np

    draws = np.random.default_rng(0).random(REF_BULK_SHAPE) < 0.5
    return acc + float((draws.astype(np.int64) + 1).sum())


class ReferenceClock:
    def __init__(self):
        import numpy as np

        self._data = np.linspace(0.0, 1.0, 48)
        reference_loop(self._data)

    def measure(self) -> float:
        t0 = time.perf_counter()
        reference_loop(self._data)
        return time.perf_counter() - t0


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- set-up ---------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child process: import, build the inputs, print the monotonic clock."""
    import_library()
    import workloads

    units = workloads.make_units(args.workload, args.seed, workdir(args))
    units = units[: args.units] if args.units else units
    stamp = time.monotonic()
    if args.workload == "certify":
        workloads.cleanup_certify(units)
    print(repr(stamp))
    return 0


def measure_setup(args) -> list[float]:
    """Process start to first timed unit, in seconds, in fresh processes."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--units", str(args.units), "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return samples


def workdir(args) -> str:
    return str(ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}")


# -- the measured loop ------------------------------------------------------------


def run(args) -> dict:
    lib = import_library()
    import tracing
    import workloads

    setup_samples = [] if args.trace else measure_setup(args)

    tracer = tracing.Tracer(lib) if args.trace else None
    if tracer:
        tracer.install()
    units = workloads.make_units(args.workload, args.seed, workdir(args))
    units = units[: args.units] if args.units else units
    if tracer:
        tracer.uninstall()
    try:
        return measure(args, units, tracer, setup_samples)
    finally:
        if args.workload == "certify":
            workloads.cleanup_certify(units)


def warm_up(units) -> None:
    """Run units from the start of the list, untimed, for about WARMUP_S."""
    start = time.perf_counter()
    for unit in units:
        if time.perf_counter() - start >= WARMUP_S:
            break
        try:
            unit.run()
        except Exception:  # the timed pass runs it again and records the failure
            pass


def measure(args, units, tracer, setup_samples) -> dict:
    import tracing
    import workloads

    count = len(units)
    min_passes = 2 if tracer else 1
    norm = [[] for _ in units]  # untraced unit times, reference units
    norm_traced = [[] for _ in units]
    wall = [[] for _ in units]  # untraced unit times, seconds
    first: list = [None] * count
    runs: list[tuple[int, bool]] = []  # (unit, ran and matched its first output)
    layer = None

    warm_up(units)
    clock = ReferenceClock()
    start = time.perf_counter()
    ref_before = clock.measure()
    for i in itertools.count():
        p, u = divmod(i, count)
        if p >= min_passes and time.perf_counter() - start >= args.seconds:
            break
        traced = bool(tracer) and p % 2 == 1
        if tracer and u == 0:
            # layer metrics cover set-up and the first traced pass only
            if p == 2:
                layer = tracer.layer_metrics()
            if p >= 2:
                tracer.reset()
            (tracer.install if traced else tracer.uninstall)()
        if traced:
            tracer.begin_unit()
        t0 = time.perf_counter()
        try:
            out = units[u].run()
        except Exception:
            out = None
            print(f"unit {u} raised:\n{traceback.format_exc(limit=4)}", file=sys.stderr)
        dt = time.perf_counter() - t0
        ref_after = clock.measure()
        (norm_traced if traced else norm)[u].append(dt / ((ref_before + ref_after) / 2))
        if not traced:
            wall[u].append(dt)
        ref_before = ref_after
        if out is not None and first[u] is None:
            first[u] = out
        runs.append((u, out is not None and out.solution == first[u].solution))
    if tracer:
        layer = layer or tracer.layer_metrics()
        tracer.uninstall()
    elapsed = time.perf_counter() - start

    # output checks, outside timing and tracing
    value_sum, ratios, rejected = 0.0, [], set()
    for u, out in enumerate(first):
        if out is None:
            continue
        try:
            verdict = units[u].check(out)
        except Exception as exc:  # e.g. a solution outside the oracle's box
            verdict = workloads.Verdict(0.0, None, f"check raised {exc!r}")
        value_sum += verdict.value
        if verdict.ratio is not None:
            ratios.append(verdict.ratio)
        if verdict.error:
            rejected.add(u)
            print(f"unit {u} failed its check: {verdict.error}", file=sys.stderr)
    failed = sum(1 for u, ok in runs if not ok or u in rejected)

    per_unit = [statistics.median(s) for s in norm if s]
    done = [o for o in first if o is not None]
    metrics = {
        "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
        "solve_ref": sum(per_unit),
        "solve_ref_p50": statistics.median(per_unit),
        "solve_ref_p90": percentile(per_unit, 90),
        "oracle_calls": sum(o.oracle_calls for o in done),
        "membership_calls": sum(o.membership_calls for o in done),
        "value_sum": value_sum,
        "ratio_min": min(ratios, default=0.0),
        "failed_frac": failed / len(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "units": count,
        "samples": len(per_unit),
        "executions": len(runs),
        "measured_s": elapsed,
        "solve_wall_s": sum(statistics.median(s) for s in wall if s),
        "setup_samples_s": setup_samples,
        "machine": machine(),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed}
    if tracer:
        paired = [u for u in range(count) if norm[u] and norm_traced[u]]
        untraced = sum(statistics.median(norm[u]) for u in paired)
        traced_ref = sum(statistics.median(norm_traced[u]) for u in paired)
        layer["trace.overhead_frac"] = traced_ref / untraced - 1.0
        detail["trace"] = {
            "paired_units": len(paired), "untraced_ref": untraced, "traced_ref": traced_ref
        }
        result["metrics"] = {
            k: {"value": layer[k], "unit": unit} for k, unit in tracing.LAYER_METRICS.items()
        }
    else:
        result["metrics"] = {k: {"value": metrics[k], "unit": UNITS[k]} for k in END_TO_END}
    result["detail"] = detail
    return result


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("greedy", "continuous", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int, default=0, help="use only the first N units (tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    result = run(args)
    detail = result.pop("detail")
    for name, entry in detail["metrics"].items():
        print(f"{args.workload:>10}  {name:<16} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
