"""Span wrappers around latticemax's public functions, and per-layer metrics.

The tracer replaces selected public functions and methods of the library
with wrappers that time each call and count what it did.  Nothing inside
the library changes: a wrapped module-level function is swapped in every
``latticemax`` module namespace that holds it (the modules import each
other's functions by name), and a wrapped method is swapped on its class.
``uninstall`` restores the originals.

A span's self time is its duration minus the duration of the wrapped calls
made inside it.  Private helpers (``_max_step_with_gain``,
``_marginal_estimate``, ``ValueOracle._validate`` ...) are not wrapped, so
their time is self time of the public caller.  The tracer's own
book-keeping in the counting hooks is kept out of every span's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

# (metric prefix, module, attribute); "Class.method" wraps a method.  Only
# calls that feed a metric below are wrapped.
TARGETS = [
    ("core.eval", "core", "ValueOracle.eval"),
    ("core.eval_batch", "core", "ValueOracle.eval_batch"),
    ("core.shifted", "core", "ValueOracle.shifted"),
    ("core.check_property_exhaustive", "core", "check_property_exhaustive"),
    ("cardinality.maximize_dr_cardinality", "cardinality", "maximize_dr_cardinality"),
    ("cardinality.maximize_lattice_cardinality", "cardinality", "maximize_lattice_cardinality"),
    ("cardinality.binary_search_lattice", "cardinality", "binary_search_lattice"),
    ("knapsack.partial_enumeration", "knapsack", "partial_enumeration"),
    ("knapsack.increase_support", "knapsack", "increase_support"),
    ("knapsack.greedy_knapsack", "knapsack", "greedy_knapsack"),
    ("extension.sample_rounding", "extension", "sample_rounding"),
    ("polymatroid.direction_polymatroid", "polymatroid", "direction_polymatroid"),
    ("polymatroid.binary_search_polymatroid", "polymatroid", "binary_search_polymatroid"),
    ("polymatroid.k_max_in_polymatroid", "polymatroid", "k_max_in_polymatroid"),
    ("polymatroid.member", "polymatroid", "PolymatroidOracle.member"),
    ("polymatroid.rounding_state", "polymatroid", "rounding_state"),
    ("polymatroid.round_polymatroid", "polymatroid", "round_polymatroid"),
    ("instances.build", "instances", "InstanceSpec.build"),
    ("bruteforce.brute_force_opt", "bruteforce", "brute_force_opt"),
    ("harness.load_config", "harness", "load_config"),
    ("harness.run_cell", "harness", "run_cell"),
    ("harness.run_harness", "harness", "run_harness"),
]

# Per-layer metrics reported by a traced run, with their units.  Every
# workload reports all of them; a layer the workload leaves idle reads 0.
LAYER_METRICS = {
    "core.eval.calls": "count",
    "core.eval.self_s": "s",
    "core.eval.us_per_call": "us",
    "core.eval.repeat_frac": "fraction",
    "core.eval_batch.calls": "count",
    "core.eval_batch.points": "points",
    "core.eval_batch.self_s": "s",
    "core.shifted.calls": "count",
    "core.check_property_exhaustive.calls": "count",
    "core.check_property_exhaustive.self_s": "s",
    "core.check_property_exhaustive.evals": "count",
    "core.check_property_exhaustive.repeat_frac": "fraction",
    "cardinality.maximize_dr_cardinality.self_s": "s",
    "cardinality.maximize_lattice_cardinality.self_s": "s",
    "cardinality.binary_search_lattice.calls": "count",
    "cardinality.binary_search_lattice.self_s": "s",
    "cardinality.binary_search_lattice.fail_frac": "fraction",
    "cardinality.steps_accepted": "count",
    "knapsack.partial_enumeration.self_s": "s",
    "knapsack.increase_support.calls": "count",
    "knapsack.increase_support.self_s": "s",
    "knapsack.starts": "count",
    "knapsack.greedy_knapsack.calls": "count",
    "knapsack.greedy_knapsack.self_s": "s",
    "knapsack.greedy_knapsack.rejected_frac": "fraction",
    "extension.sample_rounding.calls": "count",
    "extension.sample_rounding.draws": "count",
    "extension.sample_rounding.self_s": "s",
    "polymatroid.direction_polymatroid.calls": "count",
    "polymatroid.direction_polymatroid.self_s": "s",
    "polymatroid.binary_search_polymatroid.calls": "count",
    "polymatroid.binary_search_polymatroid.self_s": "s",
    "polymatroid.k_max_in_polymatroid.calls": "count",
    "polymatroid.k_max_in_polymatroid.self_s": "s",
    "polymatroid.member.calls": "count",
    "polymatroid.member.self_s": "s",
    "polymatroid.rounding_state.self_s": "s",
    "polymatroid.round_polymatroid.self_s": "s",
    "instances.build.calls": "count",
    "instances.build.self_s": "s",
    "bruteforce.brute_force_opt.calls": "count",
    "bruteforce.brute_force_opt.self_s": "s",
    "bruteforce.points": "count",
    "bruteforce.repeat_frac": "fraction",
    "harness.load_config.self_s": "s",
    "harness.run_cell.calls": "count",
    "harness.run_cell.self_s": "s",
    "harness.run_harness.self_s": "s",
    "trace.overhead_frac": "fraction",
}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Collects span statistics and layer counters while installed."""

    def __init__(self, package):
        self._package = package
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.reset()

    # -- statistics -----------------------------------------------------

    def reset(self) -> None:
        """Start a fresh set of statistics (installed wrappers stay)."""
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, float] = {}
        self.begin_unit()

    def begin_unit(self) -> None:
        """Forget per-unit state: evaluated points, views and solved pairs."""
        self._views: dict[int, tuple[int, np.ndarray, object]] = {}
        self._roots: dict[int, object] = {}
        self._seen: set = set()
        self._check_seen: set | None = None
        self._solved: set = set()
        self._built: dict[int, tuple[str, object]] = {}

    def _add(self, key: str, k: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        pkg = self._package
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == pkg.__name__ or name.startswith(pkg.__name__ + "."))
        ]
        for prefix, module_name, attr in TARGETS:
            module = getattr(pkg, module_name)
            hook = getattr(self, "_hook_" + prefix.replace(".", "_"), None)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(prefix, original, hook))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(prefix, original, hook)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, prefix: str, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                h0 = clock()
                after = hook(args, kwargs)
                if stack:
                    stack[-1][0] += clock() - h0
            else:
                after = None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats = self.spans.get(prefix)
                if stats is None:
                    stats = self.spans[prefix] = SpanStats()
                stats.calls += 1
                stats.self_s += dt - frame[0]
            if after is not None:
                h0 = clock()
                after(result)
                if stack:
                    stack[-1][0] += clock() - h0
            return result

        return wrapper

    # -- counting hooks: called with the call's arguments, may return a
    #    callback that receives the result --------------------------------

    def _point_key(self, oracle, x) -> tuple:
        if id(oracle) not in self._views:
            # hold the oracle for the unit so its id is not reused
            self._roots.setdefault(id(oracle), oracle)
        root, offset, _ = self._views.get(id(oracle), (id(oracle), None, None))
        point = np.asarray(x)
        if offset is not None:
            point = point + offset
        return (root, tuple(point.tolist()))

    def _hook_core_eval(self, args, kwargs):
        key = self._point_key(args[0], args[1] if len(args) > 1 else kwargs["x"])
        if key in self._seen:
            self._add("core.eval.repeats")
        else:
            self._seen.add(key)
        if self._check_seen is not None:
            self._add("core.check_property_exhaustive.evals")
            if key in self._check_seen:
                self._add("core.check_property_exhaustive.repeats")
            else:
                self._check_seen.add(key)
        return None

    def _hook_core_eval_batch(self, args, kwargs):
        X = args[1] if len(args) > 1 else kwargs["X"]
        self._add("core.eval_batch.points", int(np.shape(X)[0]))
        return None

    def _hook_core_shifted(self, args, kwargs):
        parent = args[0]
        y = np.asarray(args[1] if len(args) > 1 else kwargs["y"], dtype=np.int64)
        root, offset, _ = self._views.get(id(parent), (id(parent), None, None))
        offset = y if offset is None else offset + y

        def record(view):
            # the view is kept alive with its entry so its id is not reused
            self._views[id(view)] = (root, offset, view)

        return record

    def _hook_core_check_property_exhaustive(self, args, kwargs):
        outer = self._check_seen
        self._check_seen = set()

        def restore(_result):
            self._check_seen = outer

        return restore

    def _hook_cardinality_maximize_dr_cardinality(self, args, kwargs):
        return self._count_accepted

    _hook_cardinality_maximize_lattice_cardinality = _hook_cardinality_maximize_dr_cardinality

    def _count_accepted(self, result) -> None:
        _, trace = result
        self._add("cardinality.steps_accepted", sum(1 for s in trace.steps if s.accepted))

    def _hook_cardinality_binary_search_lattice(self, args, kwargs):
        def record(k):
            if k is None:
                self._add("cardinality.binary_search_lattice.fails")

        return record

    def _hook_knapsack_partial_enumeration(self, args, kwargs):
        return lambda starts: self._add("knapsack.starts", len(starts))

    def _hook_knapsack_greedy_knapsack(self, args, kwargs):
        def record(result):
            _, trace = result
            self._add("knapsack.greedy_knapsack.steps", len(trace.steps))
            self._add(
                "knapsack.greedy_knapsack.rejected",
                sum(1 for s in trace.steps if not s.accepted),
            )

        return record

    def _hook_extension_sample_rounding(self, args, kwargs):
        count = args[2] if len(args) > 2 else kwargs["count"]
        self._add("extension.sample_rounding.draws", int(count))
        return None

    def _hook_instances_build(self, args, kwargs):
        spec = args[0]
        key = json.dumps(spec.to_dict(), sort_keys=True, default=str)
        return lambda oracle: self._built.__setitem__(id(oracle), (key, oracle))

    def _hook_bruteforce_brute_force_opt(self, args, kwargs):
        f = args[0]
        constraint = args[1] if len(args) > 1 else kwargs["constraint"]
        oracle_key = self._built.get(id(f), (id(f), None))[0]
        if hasattr(constraint, "rank_total"):  # PolymatroidOracle has no value equality
            constraint_key = (constraint.name, constraint.n, constraint.rank_total)
        else:
            constraint_key = repr(constraint)
        key = (oracle_key, constraint_key)
        if key in self._solved:
            self._add("bruteforce.repeats")
        else:
            self._solved.add(key)
        return lambda exact: self._add("bruteforce.points", exact.points_enumerated)

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every name in LAYER_METRICS except ``trace.overhead_frac``."""
        spans, counts = self.spans, self.counts

        def calls(name):
            return spans[name].calls if name in spans else 0

        def self_s(name):
            return spans[name].self_s if name in spans else 0.0

        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            if name.endswith(".calls"):
                out[name] = calls(name[: -len(".calls")])
            elif name.endswith(".self_s"):
                out[name] = self_s(name[: -len(".self_s")])
        evals = calls("core.eval")
        out["core.eval.us_per_call"] = _frac(self_s("core.eval") * 1e6, evals)
        out["core.eval.repeat_frac"] = _frac(counts.get("core.eval.repeats", 0), evals)
        out["core.eval_batch.points"] = counts.get("core.eval_batch.points", 0)
        check_evals = counts.get("core.check_property_exhaustive.evals", 0)
        out["core.check_property_exhaustive.evals"] = check_evals
        out["core.check_property_exhaustive.repeat_frac"] = _frac(
            counts.get("core.check_property_exhaustive.repeats", 0), check_evals
        )
        out["cardinality.binary_search_lattice.fail_frac"] = _frac(
            counts.get("cardinality.binary_search_lattice.fails", 0),
            calls("cardinality.binary_search_lattice"),
        )
        out["cardinality.steps_accepted"] = counts.get("cardinality.steps_accepted", 0)
        out["knapsack.starts"] = counts.get("knapsack.starts", 0)
        out["knapsack.greedy_knapsack.rejected_frac"] = _frac(
            counts.get("knapsack.greedy_knapsack.rejected", 0),
            counts.get("knapsack.greedy_knapsack.steps", 0),
        )
        out["extension.sample_rounding.draws"] = counts.get("extension.sample_rounding.draws", 0)
        out["bruteforce.points"] = counts.get("bruteforce.points", 0)
        out["bruteforce.repeat_frac"] = _frac(
            counts.get("bruteforce.repeats", 0), calls("bruteforce.brute_force_opt")
        )
        return out
