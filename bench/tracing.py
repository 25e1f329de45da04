"""Spans around the package's functions, installed from outside the package.

A :class:`Tracer` replaces each traced function by a wrapper that records a
span: name, parent span, start and end.  Spans stay in memory as flat arrays
and are reduced by :func:`aggregate` when the worker ends.  Nothing in the
package knows about tracing; a target that a refactor removed is reported as
missing and the run goes on.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import math
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

PACKAGE = "quadricbundles"

#: Modules whose public functions are all traced.
LAYERS = ("reports", "biforms", "linalg", "rings", "covers", "bundles", "brauer")

#: Wrapped besides the metric targets: the CLI entry point, so that its
#: glue is covered by a span.
ENTRY_TARGETS = ("cli.main",)


def _gamma_key(args, kwargs):
    exponent = args[0] if args else None
    return str(getattr(exponent, "gamma_exponent", exponent))


#: Targets whose spans are split by an argument: the two witness exponents.
KEYED = {
    "biforms.witness_curve": _gamma_key,
    "biforms.nonflatness_witness": _gamma_key,
}

#: Targets whose results are summed into a counter named after the target.
OBSERVED = {
    "rings.LaurentPolynomial.__mul__": lambda result: len(getattr(result, "terms", ())),
    "brauer.forms_similar": lambda result: int(bool(result[0])),
}


class Tracer:
    """Span store for one single-threaded worker."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.observed = Counter()
        self.installed = []
        self.missing = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name):
        index = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(self._name_id(name))
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def finish(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def wrap(self, name, fn):
        key = KEYED.get(name)
        observe = OBSERVED.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name if key is None else "%s[%s]" % (name, key(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(index)
            if observe is not None:
                tracer.observed[name] += observe(result)
            return result

        traced.__traced_original__ = fn
        return traced


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or inspect.isclass(value):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isgeneratorfunction(value) or not callable(value):
            continue
        yield attr


def _resolve(target):
    """``(owner, original)`` for ``module.attr`` or ``module.Class.attr``."""
    parts = target.split(".")
    owner = sys.modules.get("%s.%s" % (PACKAGE, parts[0]))
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    original = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if original is None or not callable(original):
        return None
    return owner, original


def _module_state(layer):
    """``"loaded"``, ``"unloaded"`` (exists, not imported by this worker) or ``"gone"``."""
    name = "%s.%s" % (PACKAGE, layer)
    if name in sys.modules:
        return "loaded"
    try:
        return "unloaded" if importlib.util.find_spec(name) else "gone"
    except ImportError:
        return "gone"


def install(tracer, layers=LAYERS, named=None):
    """Wrap every public function of ``layers`` and each ``named`` target.

    ``named`` defaults to the entry points and every target a per-layer
    metric reads.  The wrapper replaces every reference to the original held
    by a module of the package (``from .linalg import rref`` binds a second
    name) and every alias on a class (``__rmul__ = __mul__``).  A target
    whose module was not imported is left alone; one that cannot be found
    is appended to ``tracer.missing``.
    """
    if named is None:
        named = ENTRY_TARGETS + metric_targets()
    targets = []
    for layer in layers:
        if _module_state(layer) == "loaded":
            module = sys.modules["%s.%s" % (PACKAGE, layer)]
            targets.extend("%s.%s" % (layer, attr) for attr in _public_functions(module))
    targets.extend(t for t in named if t not in targets)
    modules = _package_modules()
    for target in targets:
        state = _module_state(target.split(".", 1)[0])
        resolved = _resolve(target) if state == "loaded" else None
        if resolved is None:
            if state != "unloaded":
                tracer.missing.append(target)
            continue
        owner, original = resolved
        wrapper = tracer.wrap(target, original)
        for holder in [owner] if isinstance(owner, type) else modules:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
        tracer.installed.append(target)
    return tracer


def cache_misses(target):
    """Misses of the ``lru_cache`` behind ``target``: 0 when its module was
    not imported, None when the target is gone or no longer cached."""
    if _module_state(target.split(".", 1)[0]) == "unloaded":
        return 0
    resolved = _resolve(target)
    fn = resolved and getattr(resolved[1], "__traced_original__", resolved[1])
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def aggregate(names, parent, name, start, end):
    """Reduce spans to per-name calls and times, and per-module self time.

    ``incl`` sums durations of spans with no ancestor of the same name, so a
    recursive function is not counted twice.  A span's self time is its
    duration minus the durations of its children; ``self_by_layer`` groups it
    by the text before the first dot of the span name.  Spans must be in
    start order, parents before children, as a :class:`Tracer` records them.
    """
    n = len(start)
    duration = [end[i] - start[i] for i in range(n)]
    children = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]] += duration[i]
    calls = Counter()
    incl = Counter()
    self_time = Counter()
    self_by_layer = Counter()
    path = []
    active = Counter()
    for i in range(n):
        while path and path[-1] != parent[i]:
            active[name[path.pop()]] -= 1
        label = names[name[i]]
        calls[label] += 1
        if not active[name[i]]:
            incl[label] += duration[i]
        own = duration[i] - children[i]
        self_time[label] += own
        self_by_layer[label.split(".", 1)[0]] += own
        path.append(i)
        active[name[i]] += 1
    return {
        "calls": dict(calls),
        "incl": dict(incl),
        "self": dict(self_time),
        "self_by_layer": dict(self_by_layer),
    }


def summarize(tracer, root):
    """Aggregates of a finished tracer plus coverage of the ``root`` span."""
    summary = aggregate(tracer.names, tracer.parent, tracer.name, tracer.start, tracer.end)
    wall = tracer.end[root] - tracer.start[root]
    root_self = summary["self"][tracer.names[tracer.name[root]]]
    summary["coverage"] = (wall - root_self) / wall if wall > 0 else 0.0
    summary["observed"] = dict(tracer.observed)
    summary["missing"] = list(tracer.missing)
    summary["oracle_misses"] = cache_misses("brauer._solubility_search")
    return summary


# -- per-layer metrics --------------------------------------------------------
#
# Each metric is an expression over one worker's summary:
#   ("incl", label)     time in spans of that label, outermost only
#   ("calls", label)    number of spans of that label
#   ("observed", label) sum of the target's observed results
#   ("self", layer)     self time of every span of that layer
#   ("value", key)      a number of the summary itself
#   ("sum", e...), ("diff", e, f), ("ratio", e, f)
# A label is a target, with ``[key]`` for keyed targets.  An expression on a
# target in ``missing`` is absent (None); one never reached reads 0.

SELF_LAYERS = ("cli",) + LAYERS


def _witness(exponent):
    return ("sum", ("incl", "biforms.witness_curve[%s]" % exponent),
            ("incl", "biforms.nonflatness_witness[%s]" % exponent))


_ORACLE_CALLS = ("calls", "brauer._solubility_search")

PER_LAYER = (
    ("cli.import_deps_s", "s", ("incl", "cli.import_deps")),
    ("cli.json_s", "s", ("incl", "cli._write_json")),
    ("reports.normal-forms_s", "s", ("incl", "reports.run_normal_forms")),
    ("reports.section5_s", "s", ("incl", "reports.run_section5")),
    ("reports.brauer_s", "s", ("incl", "reports.run_brauer")),
    ("reports.appendix_s", "s", ("incl", "reports.run_appendix")),
    ("biforms.containment_s", "s", ("incl", "biforms.verify_containment")),
    ("biforms.freeness_s", "s", ("incl", "biforms.freeness_certificate")),
    ("biforms.graded_s", "s", ("incl", "biforms.verify_graded_intersection")),
    ("biforms.witness_m2_s", "s", _witness(-2)),
    ("biforms.witness_m1_s", "s", _witness(-1)),
    ("biforms.local_module_s", "s", ("incl", "biforms.local_module")),
    ("biforms.local_module_calls", "count", ("calls", "biforms.local_module")),
    ("biforms.graded_subspace_calls", "count", ("calls", "biforms.graded_subspace")),
    ("linalg.rref_calls", "count", ("calls", "linalg.rref")),
    ("linalg.rref_s", "s", ("incl", "linalg.rref")),
    ("linalg.determinant_s", "s", ("incl", "linalg.determinant")),
    ("rings.parse_calls", "count", ("calls", "rings.parse")),
    ("rings.parse_s", "s", ("incl", "rings.parse")),
    ("rings.mul_calls", "count", ("calls", "rings.LaurentPolynomial.__mul__")),
    ("rings.mul_terms_out", "count", ("observed", "rings.LaurentPolynomial.__mul__")),
    ("rings.mul_s", "s", ("incl", "rings.LaurentPolynomial.__mul__")),
    ("rings.exact_div_s", "s", ("incl", "rings.LaurentPolynomial.exact_div")),
    ("covers.pullback_s", "s", ("incl", "covers.pullback_factorization")),
    ("covers.equivariance_s", "s", ("incl", "covers.verify_projective_equivariance")),
    ("covers.inverse_s", "s", ("incl", "covers.generic_fiber_inverse")),
    ("bundles.normal_form_item_s", "s", ("incl", "reports.normal_form_item")),
    ("brauer.hilbert_symbol_calls", "count", ("calls", "brauer.hilbert_symbol")),
    ("brauer.hilbert_symbol_s", "s", ("incl", "brauer.hilbert_symbol")),
    ("brauer.oracle_calls", "count", _ORACLE_CALLS),
    ("brauer.oracle_miss_calls", "count", ("value", "oracle_misses")),
    ("brauer.oracle_hit_ratio", "ratio",
     ("ratio", ("diff", _ORACLE_CALLS, ("value", "oracle_misses")), _ORACLE_CALLS)),
    ("brauer.oracle_s", "s", ("incl", "brauer.hilbert_symbol_search")),
    ("brauer.factorint_calls", "count", ("calls", "brauer.factorint")),
    ("brauer.factorint_s", "s", ("incl", "brauer.factorint")),
    ("brauer.relevant_places_s", "s", ("incl", "brauer.relevant_places")),
    ("brauer.forms_similar_s", "s", ("incl", "brauer.forms_similar")),
    ("brauer.similarity_tries", "count", ("calls", "brauer.forms_equivalent")),
    ("brauer.similarity_hit_ratio", "ratio",
     ("ratio", ("observed", "brauer.forms_similar"), ("calls", "brauer.forms_equivalent"))),
    ("brauer.descent_s", "s", ("incl", "brauer.verify_quaternion_descent_instance")),
) + tuple(("%s.self_s" % layer, "s", ("self", layer)) for layer in SELF_LAYERS) + (
    ("trace.coverage_ratio", "ratio", ("value", "coverage")),
)

#: Spans the worker opens by hand, not function targets.
MANUAL_SPANS = ("worker", "import", "cli.import_deps")


def _target(label):
    return label.split("[", 1)[0]


def metric_targets():
    """Every function target a per-layer metric reads, in order."""
    found = []

    def walk(expr):
        op, *args = expr
        if op in ("incl", "calls", "observed"):
            target = _target(args[0])
            if target not in MANUAL_SPANS and target not in found:
                found.append(target)
        elif op in ("sum", "diff", "ratio"):
            for arg in args:
                walk(arg)

    for _, _, expr in PER_LAYER:
        walk(expr)
    return tuple(found)


def evaluate(expr, summary):
    """Value of one metric expression, or None when a target is missing."""
    op, *args = expr
    if op in ("incl", "calls", "observed"):
        if _target(args[0]) in summary["missing"]:
            return None
        return summary[op].get(args[0], 0)
    if op == "self":
        return summary["self_by_layer"].get(args[0], 0.0)
    if op == "value":
        return summary[args[0]]
    values = [evaluate(arg, summary) for arg in args]
    if None in values:
        return None
    if op == "sum":
        return math.fsum(values)
    if op == "diff":
        return values[0] - values[1]
    return values[0] / values[1] if values[1] else 0.0


def per_layer_metrics(summaries):
    """Median over workers of every per-layer metric, and the absent names.

    ``summaries`` holds ``(summary, scale)`` pairs; times are multiplied by
    the worker's scale, as the end-to-end times are.
    """
    metrics, absent = {}, []
    for name, unit, expr in PER_LAYER:
        values = [
            v * scale if unit == "s" else v
            for v, scale in ((evaluate(expr, s), scale) for s, scale in summaries)
            if v is not None
        ]
        if not values:
            absent.append(name)
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    return metrics, absent
