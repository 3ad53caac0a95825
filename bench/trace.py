"""Tracer for the traced benchmark run.

``Tracer.install`` replaces public functions of the program where their
callers look them up (``mginv.invariants.network_for``,
``mginv.bounds.quick_report``, ...) with wrappers that record one span per
call: name, start, end, parent span and op id. Spans stay in memory; self
times and counts are derived from them after the run. ``Tracer.restore``
puts the original objects back. A target that no longer exists is listed
in ``Tracer.absent`` and its metrics read zero, so a refactor that renames
or removes a function does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from functools import cached_property


def _route(default: str):
    def label(args, kwargs):
        return args[1] if len(args) > 1 else kwargs.get("route", default)
    return label


def _matrix_size(args, kwargs):
    return len(args[0])


def _backend(args, kwargs):
    return args[0].graph.backend


# (owner, attribute, span name, label, tag). The owner is a module or
# "module:Class". ``label(args, kwargs)`` extends the span name (the route
# of phi and lambda); ``tag(args, kwargs)`` is kept with the span.
TARGETS = (
    ("mginv.cli", "main", "cli.main", None, None),
    ("mginv.cli", "pm_graph_from_json", "graphs.parse", None, None),
    ("mginv.graphs:MetrizedGraph", "normalized", "graphs.normalized", None, None),
    ("mginv.graphs:MetrizedGraph", "structure", "graphs.structure", None, None),
    ("mginv.graphs:MetrizedGraph", "contract_edge", "graphs.contract_edge", None, None),
    ("mginv.network", "invert_matrix", "network.invert", None, _matrix_size),
    ("mginv.network", "network_for", "network.network_for", None, None),
    ("mginv.invariants", "network_for", "network.network_for", None, None),
    ("mginv.network:Network", "__init__", "network.Network", None, None),
    ("mginv.network:Network", "circuit", "network.circuit", None, None),
    ("mginv.network", "matmul", "network.matmul", None, None),
    ("mginv.invariants", "tau_edges", "invariants.tau.edges", None, None),
    ("mginv.invariants", "tau_laplacian", "invariants.tau.laplacian", None, None),
    ("mginv.invariants", "tau_crossterm", "invariants.tau.crossterm", None, None),
    ("mginv.invariants", "tau_contraction", "invariants.tau.contraction", None, None),
    ("mginv.invariants", "theta_definition", "invariants.theta.definition", None, None),
    ("mginv.invariants", "theta_second", "invariants.theta.second", None, None),
    ("mginv.invariants", "theta_third", "invariants.theta.third", None, None),
    ("mginv.invariants", "theta_fourth", "invariants.theta.fourth", None, None),
    ("mginv.invariants", "phi", "invariants.phi", _route("main1"), None),
    ("mginv.invariants", "lambda_invariant", "invariants.lambda", _route("cor"), None),
    ("mginv.invariants", "xy", "invariants.xy", None, None),
    ("mginv.cli", "invariant_report", "invariants.invariant_report", None, None),
    ("mginv.invariants", "invariant_report", "invariants.invariant_report", None, None),
    ("mginv.bounds", "quick_report", "invariants.quick_report", None, None),
    ("mginv.cli", "identity_checks", "invariants.identity_checks", None, None),
    ("mginv.cli", "bound_suite", "bounds.bound_suite", None, _backend),
    ("mginv.bounds", "bound_suite", "bounds.bound_suite", None, _backend),
    ("mginv.bounds", "random_pm_graph", "bounds.random_pm_graph", None, None),
)


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
    return getattr(module, cls_name, None) if cls_name else module


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []   # [name, start, end, parent, op, tag]
        self.op: int | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for owner_name, attr, name, label, tag in self.targets:
            owner = _resolve(owner_name)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{owner_name}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            if isinstance(original, cached_property):
                wrapped = cached_property(self._wrap(original.func, name, label, tag))
                wrapped.__set_name__(owner, attr)
            else:
                wrapped = self._wrap(original, name, label, tag)
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, label, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name if label is None else f"{name}.{label(args, kwargs)}",
                    time.perf_counter(), None, stack[-1] if stack else None,
                    self.op, None if tag is None else tag(args, kwargs)]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper


def program_caches() -> list:
    """Every functools cache in the program's modules, so that the traced
    run can start each pass of an op from the same empty caches."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "mginv" or name.startswith("mginv."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def layer_stats(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total time (outermost spans of the name only,
    so recursion is not counted twice), self time (duration minus the time
    of direct children) and the list of tags."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _op, _tag in spans:
        if parent is not None:
            children[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, _op, tag) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0, "tags": []})
        st["calls"] += 1
        st["self_s"] += end - start - children[i]
        st["tags"].append(tag)
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            st["total_s"] += end - start
    return stats


_TIMED = [f"invariants.{inv}.{route}" for inv, routes in (
    ("tau", ("edges", "laplacian", "crossterm", "contraction")),
    ("theta", ("definition", "second", "third", "fourth")),
    ("phi", ("main1", "direct")),
    ("lambda", ("cor", "prop_lambda", "second", "second2"))) for route in routes]

# Which end-to-end metric each layer should move, and on which workload:
# - invariants.tau.contraction.total_s, graphs.contract_edge.calls and
#   network.invert.n3_sum (the sum of n^3 over inversions, computed from the
#   matrix sizes): latency on compute_exact; zero on search_exact.
# - network.invert.*, network.network_for.calls, network.Network.calls and
#   network.cache_hit_ratio (base: network_for calls): ops_per_s on
#   search_exact and latency on compute_exact; on verify_exact the hit
#   ratio must not fall.
# - bounds.bound_suite.* and bounds.recheck_ratio (exact bound_suite calls
#   over samples, base bounds.random_pm_graph.calls): ops_per_s on
#   search_exact.
# - graphs.parse, graphs.normalized, graphs.structure and
#   bounds.random_pm_graph: search_exact.
# - network.matmul.total_s and invariants.identity_checks.total_s: latency
#   on verify_exact.
# - the tau/theta/phi/lambda routes, xy, network.circuit, the reports,
#   bound_suite and cli.main.self_s (argparse, JSON and I/O): latency on
#   whichever workload runs them.

#: every per-layer metric, as (name, unit, better)
PER_LAYER = (
    [(f"{n}.{kind}", "s", "lower") for n in _TIMED for kind in ("total_s", "self_s")]
    + [("invariants.xy.calls", "count", "lower"),
       ("invariants.xy.total_s", "s", "lower"),
       ("invariants.invariant_report.total_s", "s", "lower"),
       ("invariants.quick_report.total_s", "s", "lower"),
       ("invariants.identity_checks.total_s", "s", "lower"),
       ("graphs.parse.total_s", "s", "lower"),
       ("graphs.normalized.calls", "count", "lower"),
       ("graphs.normalized.total_s", "s", "lower"),
       ("graphs.structure.total_s", "s", "lower"),
       ("graphs.contract_edge.calls", "count", "lower"),
       ("network.invert.calls", "count", "lower"),
       ("network.invert.total_s", "s", "lower"),
       ("network.invert.n3_sum", "count", "lower"),
       ("network.network_for.calls", "count", "lower"),
       ("network.Network.calls", "count", "lower"),
       ("network.cache_hit_ratio", "ratio", "higher"),
       ("network.circuit.calls", "count", "lower"),
       ("network.circuit.total_s", "s", "lower"),
       ("network.matmul.total_s", "s", "lower"),
       ("bounds.bound_suite.calls", "count", "lower"),
       ("bounds.bound_suite.exact_calls", "count", "lower"),
       ("bounds.bound_suite.total_s", "s", "lower"),
       ("bounds.random_pm_graph.calls", "count", "lower"),
       ("bounds.random_pm_graph.total_s", "s", "lower"),
       ("bounds.recheck_ratio", "ratio", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")])


def layer_metrics(stats: dict[str, dict], overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from the span statistics; a layer that never
    ran reads zero."""
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    lookups = get("network.network_for", "calls")
    built = get("network.Network", "calls")
    exact = sum(1 for t in get("bounds.bound_suite", "tags") or () if t == "rational")
    samples = get("bounds.random_pm_graph", "calls")
    derived = {
        "network.invert.n3_sum": sum(n ** 3 for n in get("network.invert", "tags") or ()),
        "network.cache_hit_ratio": (lookups - built) / lookups if lookups else 0.0,
        "bounds.bound_suite.exact_calls": exact,
        "bounds.recheck_ratio": exact / samples if samples else 0.0,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        else:
            span, _, key = name.rpartition(".")
            out[name] = get(span, key)
    return out
