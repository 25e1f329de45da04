"""Self-tests of the benchmark's own logic (not part of the package tests).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_batches_are_deterministic_and_distinct():
    assert inputs.batch(11, 3) == inputs.batch(11, 3)
    assert inputs.batch(11, 3) != inputs.batch(11, 4)
    assert inputs.batch(11, 3) != inputs.batch(12, 3)
    queries = inputs.batch(11, 0)
    kinds = [q["kind"] for q in queries]
    assert {kind: kinds.count(kind) for kind in inputs.KIND_COUNTS} == inputs.KIND_COUNTS
    assert len(queries) == sum(inputs.KIND_COUNTS.values())
    assert sum(q.get("semiprime", False) for q in queries) == inputs.SEMIPRIMES_PER_BATCH


def test_is_prime_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(2000) if inputs.is_prime(n)] == [n for n in range(2000) if trial(n)]
    assert not inputs.is_prime(10000019 * 10000079)


@pytest.mark.parametrize("n", [100, 101, 500, 1000, 12345])
def test_tail_keeps_ten_samples_beyond_in_one_worker(n):
    values = [float(i) for i in range(n)][::-1]
    value, percentile, beyond = run.tail([values])
    assert beyond == 10
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_is_read_off_all_workers():
    groups = [[float(i) + shift for i in range(500)] for shift in (0, 0.5, 0.25, 0.75)]
    value, percentile, beyond = run.tail(groups)
    assert (percentile, beyond) == (98.0, 10)
    pooled = sorted(t for g in groups for t in g)
    assert sum(t > value for t in pooled) == 40


def test_tail_of_few_samples_is_the_maximum():
    assert run.tail([[3.0], [1.0, 2.0], []]) == (3.0, 100.0, 0)


def _spans(rows):
    """Tracer-shaped arrays from ``(name, parent, start, end)`` rows."""
    names = sorted({row[0] for row in rows})
    return (
        names,
        array("q", [row[1] for row in rows]),
        array("q", [names.index(row[0]) for row in rows]),
        array("d", [row[2] for row in rows]),
        array("d", [row[3] for row in rows]),
    )


def test_self_time_on_a_synthetic_tree():
    # worker 0..10 -> a.f 1..4 -> a.f 2..3 (recursive), worker -> b.g 5..9 -> a.f 6..7
    rows = [
        ("worker", -1, 0.0, 10.0),
        ("a.f", 0, 1.0, 4.0),
        ("a.f", 1, 2.0, 3.0),
        ("b.g", 0, 5.0, 9.0),
        ("a.f", 3, 6.0, 7.0),
    ]
    summary = tracing.aggregate(*_spans(rows))
    assert summary["calls"] == {"worker": 1, "a.f": 3, "b.g": 1}
    assert summary["incl"] == {"worker": 10.0, "a.f": 4.0, "b.g": 4.0}
    assert summary["self"] == {"worker": 3.0, "a.f": 4.0, "b.g": 3.0}
    assert summary["self_by_layer"] == {"worker": 3.0, "a": 4.0, "b": 3.0}


@pytest.fixture
def restore_package():
    import quadricbundles.biforms  # noqa: F401

    modules = tracing._package_modules()
    saved = [(m, dict(vars(m))) for m in modules]
    from quadricbundles.rings import LaurentPolynomial

    saved_class = dict(vars(LaurentPolynomial))
    yield
    for module, namespace in saved:
        vars(module).update(namespace)
    for attr in ("__mul__", "__rmul__", "exact_div"):
        setattr(LaurentPolynomial, attr, saved_class[attr])


def test_missing_target_is_reported_and_tolerated(restore_package):
    from quadricbundles import linalg

    tracer = tracing.Tracer()
    root = tracer.begin("worker")
    tracing.install(tracer, layers=("linalg",), named=("linalg.rref", "linalg.gone", "nomodule.f"))
    assert tracer.missing == ["linalg.gone", "nomodule.f"]
    assert linalg.rational_rank([[1, 2], [2, 4]]) == 1
    tracer.finish(root)
    summary = tracing.summarize(tracer, root)
    assert summary["calls"]["linalg.rref"] >= 1
    assert tracing.evaluate(("calls", "linalg.gone"), summary) is None
    assert tracing.evaluate(("ratio", ("calls", "linalg.rref"), ("calls", "linalg.gone")), summary) is None
    metrics, absent = tracing.per_layer_metrics([(summary, 1.0)])
    assert metrics["linalg.rref_calls"]["value"] >= 1
    assert "linalg.rref_calls" not in absent


def test_every_metric_target_exists(restore_package):
    import quadricbundles.cli  # noqa: F401
    import quadricbundles.reports  # noqa: F401

    tracer = tracing.install(tracing.Tracer())
    assert tracer.missing == []
    assert set(tracing.metric_targets()) <= set(tracer.installed)


def test_benchmark_json_names_the_metrics_the_runs_print():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(name, unit) for name, unit, _ in tracing.PER_LAYER] + [
        ("trace.overhead_ratio", "ratio"),
        ("trace.absent_metrics", "count"),
    ]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_sampler_scale_and_spent_time():
    import time

    import speed

    sampler = speed.Sampler()
    assert sampler.scale() == 1.0
    sampler.start()
    try:
        deadline = time.monotonic() + 3 * speed.SAMPLE_INTERVAL_S
        while time.monotonic() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.ratios) >= 2
    assert 0 < sampler.spent < 3 * speed.SAMPLE_INTERVAL_S
    assert sampler.scale() == sum(sampler.ratios) / len(sampler.ratios)


def test_worker_past_its_limit_is_killed_and_fails(tmp_path):
    it = run.spawn("appendix", {"window": run.APPENDIX_WINDOW}, 0, tmp_path, 0.2)
    assert it.result is None and it.exit_code != 0
    outcome = run.AppendixWindow(7, tmp_path).check({}, it)
    assert (outcome.attempted, outcome.failed, outcome.latencies) == (1, 1, [])
