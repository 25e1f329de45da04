"""One benchmark iteration in a fresh interpreter.

    python3 bench/worker.py MODE INPUT OUTPUT TRACE

MODE is ``cli``, ``appendix`` or ``brauer``; INPUT is a JSON file with the
generated inputs; the worker writes its results to the JSON file OUTPUT.
``setup_at`` is the ``time.monotonic()`` reading once the package modules
the mode needs are imported; the parent subtracts its spawn time.  A
``speed.Sampler`` runs throughout; the worker's own times exclude its
samples, and ``scale``, ``spent`` and ``setup_spent`` let the parent scale
and correct the times it takes from outside.  With
TRACE 1 the package's functions are wrapped (see ``tracing``) after import
and the results carry the span aggregates.  The package must be importable
(the parent puts its ``src`` directory on ``PYTHONPATH``).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import hashlib
import json
import runpy
import sys
from contextlib import nullcontext
from fractions import Fraction

import speed
import tracing


def _digest(payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(inputs, result, sampler):
    """``python -m quadricbundles ARGV``, with the import timed first."""
    import quadricbundles.cli  # noqa: F401

    yield
    sys.argv = ["quadricbundles"] + inputs["argv"]
    try:
        runpy.run_module("quadricbundles", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    result["exit_code"] = code


def run_appendix(inputs, result, sampler):
    from quadricbundles import reports

    yield
    started, spent = time.perf_counter(), sampler.spent
    report = reports.run_appendix(window=inputs["window"])
    spent = sampler.spent - spent
    result["op_s"] = time.perf_counter() - started - spent
    graded = next(item for item in report["items"] if item["check"] == "graded-equality")
    result.update(
        status=report["status"],
        checked=graded["checked"],
        saturated=graded["saturated"],
        digest=_digest(report),
    )


def _place(brauer, text):
    return brauer.REAL if text == "real" else brauer.Place.prime(int(text))


def answer(brauer, query):
    """The library calls of one query, and the answer they give."""
    kind = query["kind"]
    if kind == "local":
        a, b = Fraction(query["a"]), Fraction(query["b"])
        place = _place(brauer, query["place"])
        return [brauer.hilbert_symbol(a, b, place), brauer.hilbert_symbol_search(a, b, place)]
    if kind == "product":
        a, b = Fraction(query["a"]), Fraction(query["b"])
        return [
            [str(place), brauer.hilbert_symbol(a, b, place)]
            for place in brauer.relevant_places([a, b])
        ]
    report = brauer.verify_quaternion_descent_instance(query["p"], query["q"], query["r"], query["d"])
    return [
        report.similar,
        report.scale,
        report.splits_over_extension,
        report.hypothesis_division_split,
        report.consistent,
    ]


def run_brauer(inputs, result, sampler):
    from quadricbundles import brauer

    yield
    answers, latencies = [], []
    clock = time.perf_counter
    # Read the clock before the sampler at the start of an interval and
    # after it at the end, so a sample never counts against the interval
    # unless it fell inside it.
    started, spent = clock(), sampler.spent
    for query in inputs["queries"]:
        t0, before = clock(), sampler.spent
        answers.append(answer(brauer, query))
        during = sampler.spent - before
        latencies.append(clock() - t0 - during)
    spent = sampler.spent - spent
    result["op_s"] = clock() - started - spent
    result["answers"] = answers
    result["latencies"] = latencies


MODES = {"cli": run_cli, "appendix": run_appendix, "brauer": run_brauer}


def main(argv):
    mode, in_path, out_path, trace = argv
    sampler = speed.Sampler()
    sampler.start()
    tracer = tracing.Tracer() if trace == "1" else None
    if tracer:
        root = tracer.begin("worker")
        tracer.start[root] = STARTED
    with open(in_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    result = {}
    # Each mode is a generator: its first step imports what it needs, its
    # second runs the operation and fills ``result``.
    steps = MODES[mode](inputs, result, sampler)
    if tracer:
        with tracer.span("cli.import_deps"):
            import numpy  # noqa: F401
            import sympy  # noqa: F401
    with tracer.span("import") if tracer else nullcontext():
        next(steps)
    result["setup_spent"] = sampler.spent
    result["setup_at"] = time.monotonic()
    if tracer:
        tracing.install(tracer)
    next(steps, None)
    sampler.stop()
    result["spent"] = sampler.spent  # the parent's wall time ends after this
    result["scale"] = sampler.scale()
    if tracer:
        tracer.finish(root)
        result["trace"] = tracing.summarize(tracer, root)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
