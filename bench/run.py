"""Benchmark of the quadricbundles verification package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every iteration is a fresh worker
process (``bench/worker.py``), started one after another from this process:
a closed loop with one client, so at most one child runs at a time.  The
loop starts iterations until ``--seconds`` have passed.  Each worker's
answers are checked against pinned digests and invariants; a worker that
crashes, exceeds its wall-clock limit or answers wrongly counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every iteration runs twice, plain
and traced, and the object holds the per-layer metrics.  Lines before it
give the environment, each metric with its unit, and the failure base.
See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "quadricbundles" / "__init__.py"
PINS = json.loads((BENCH / "pins.json").read_text())

#: Every run ends, its workers included, this long after it started.
RUN_LIMIT_S = 170.0
#: Samples a run needs before its tail is a percentile rather than the maximum.
TAIL_MIN_SAMPLES = 100
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s"}

APPENDIX_WINDOW = 6
APPENDIX_POINTS = (APPENDIX_WINDOW + 1) ** 3
CLI_STATUSES = ["pass", "pass", "pass", "attention"]


@dataclass
class Iteration:
    """One finished worker, as seen from outside."""

    result: dict | None  # what the worker wrote, None if it wrote nothing
    exit_code: int
    wall_s: float
    rss_mb: float
    setup_s: float | None
    scale: float  # share of quiet-machine speed the worker got (speed.Sampler)


def spawn(mode, payload, trace, tmp, limit_s):
    """Run one worker to completion or until ``limit_s``; reap it with wait4.

    Times taken from outside exclude the worker's speed samples.
    """
    in_path, out_path, err_path = tmp / "in.json", tmp / "out.json", tmp / "err.txt"
    in_path.write_text(json.dumps(payload))
    out_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(BENCH / "worker.py"), mode, str(in_path), str(out_path), str(trace)]
    with open(err_path, "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(limit_s, 0.0))
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(out_path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):  # no result, or cut short by the kill
        result = None
    if result is None or proc.returncode != 0:
        last_lines = err_path.read_text().strip().splitlines()[-5:]
        print("worker %s failed (exit %d%s): %s" % (
            mode, proc.returncode, ", killed at limit" if not ready else "", " | ".join(last_lines)
        ), file=sys.stderr)
    if result is None:
        return Iteration(None, proc.returncode, wall, usage.ru_maxrss / 1024.0, None, 1.0)
    return Iteration(
        result=result,
        exit_code=proc.returncode,
        wall_s=wall - result["spent"],
        rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=result["setup_at"] - started - result["setup_spent"],
        scale=result["scale"],
    )


@dataclass
class Outcome:
    """What one iteration contributed: operations and their latencies."""

    attempted: int
    failed: int
    latencies: list  # seconds, one per correct operation
    busy_s: float  # time the operations kept the client busy


def _sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliCold:
    """``python -m quadricbundles run all --seed S --json FILE``, cold each time."""

    mode = "cli"
    operation = "one cold CLI process"
    limit_s = 60.0

    def __init__(self, seed, tmp):
        self.seed, self.tmp = seed, tmp
        self.pinned = PINS["cli-cold"].get(str(seed))
        self.first_digest = None

    def payload(self, index):
        path = self.tmp / ("report-%d.json" % index)
        path.unlink(missing_ok=True)
        return {"argv": ["run", "all", "--seed", str(self.seed), "--json", str(path)]}

    def check(self, payload, it):
        path = Path(payload["argv"][-1])
        ok = it.result is not None and it.exit_code == 0 and path.exists()
        if ok:
            digest = _sha256_file(path)
            report = json.loads(path.read_text())
            self.first_digest = self.first_digest or digest
            ok = (
                [suite["status"] for suite in report["suites"]] == CLI_STATUSES
                and report["seed"] == self.seed
                and digest == self.first_digest
                and self.pinned in (None, digest)
            )
            if not ok:
                print("cli-cold: report %s does not match its pins" % digest, file=sys.stderr)
        return Outcome(1, 0 if ok else 1, [it.wall_s] if ok else [], it.wall_s)

    def op_time(self, it):
        return it.wall_s


class AppendixWindow:
    """One ``reports.run_appendix(window=6)`` per fresh worker."""

    mode = "appendix"
    operation = "one run_appendix call"
    limit_s = 60.0

    def __init__(self, seed, tmp):
        self.pinned = PINS["appendix-window"]

    def payload(self, index):
        return {"window": APPENDIX_WINDOW}

    def check(self, payload, it):
        r = it.result
        ok = (
            r is not None
            and r["status"] == "attention"
            and r["checked"] == APPENDIX_POINTS
            and r["saturated"] is True
            and r["digest"] == self.pinned
        )
        if r is not None and not ok:
            print("appendix-window: report %s does not match its pins" % r["digest"], file=sys.stderr)
        return Outcome(1, 0 if ok else 1, [r["op_s"]] if ok else [], r["op_s"] if r else it.wall_s)

    def op_time(self, it):
        return it.result["op_s"]


def query_ok(query, answer):
    """Invariants every answer must satisfy, whatever the seed."""
    kind = query["kind"]
    if kind == "local":
        return answer[0] == answer[1] and answer[0] in (1, -1)
    if kind == "product":
        places = [place for place, _ in answer]
        symbols = [symbol for _, symbol in answer]
        return places[:2] == ["real", "2"] and math.prod(symbols) == 1
    similar, scale, _, _, consistent = answer
    return consistent is True and (scale is not None) == similar


def answers_digest(answers):
    return hashlib.sha256(json.dumps(answers, separators=(",", ":")).encode()).hexdigest()


class BrauerFresh:
    """Batches of seeded library queries, one batch per fresh worker."""

    mode = "brauer"
    operation = "one library query"
    limit_s = 30.0

    def __init__(self, seed, tmp):
        self.seed = seed
        self.pinned = PINS["brauer-fresh"].get(str(seed), [])
        self.time_by_kind = {}

    def payload(self, index):
        return {"index": index, "queries": inputs.batch(self.seed, index)}

    def check(self, payload, it):
        queries = payload["queries"]
        r = it.result
        if r is None:
            return Outcome(len(queries), len(queries), [], it.wall_s)
        index = payload["index"]
        if index < len(self.pinned) and answers_digest(r["answers"]) != self.pinned[index]:
            print("brauer-fresh: batch %d does not match its pin" % index, file=sys.stderr)
            return Outcome(len(queries), len(queries), [], r["op_s"])
        good = [query_ok(q, a) for q, a in zip(queries, r["answers"])]
        latencies = [t for t, g in zip(r["latencies"], good) if g]
        for query, t in zip(queries, r["latencies"]):
            key = "semiprime local" if query.get("semiprime") else query["kind"]
            self.time_by_kind[key] = self.time_by_kind.get(key, 0.0) + t
        return Outcome(len(queries), len(queries) - len(latencies), latencies, r["op_s"])

    def notes(self):
        total = sum(self.time_by_kind.values())
        shares = ", ".join(
            "%s %.3f" % (key, t / total) for key, t in sorted(self.time_by_kind.items())
        )
        return ["share of query time: %s" % shares] if total else []

    def op_time(self, it):
        return it.result["op_s"]


WORKLOADS = {"cli-cold": CliCold, "appendix-window": AppendixWindow, "brauer-fresh": BrauerFresh}


def tail(groups):
    """``(value, percentile, samples beyond per worker)`` of the latency tail.

    The percentile is the highest one with at least ten samples beyond it
    in one worker's samples (p98.6 of 720 queries); it is then read off all
    samples of the run together, so it neither creeps up when a faster
    program fits more workers into the run nor rests on ten samples.  When
    workers hold fewer than ``TAIL_MIN_SAMPLES`` samples (one CLI run or
    one appendix call each) there is no such percentile, and the run
    reports the maximum of all its samples.
    """
    groups = [g for g in groups if g]
    per_worker = statistics.median_low(map(len, groups))
    pooled = sorted(t for g in groups for t in g)
    if per_worker < TAIL_MIN_SAMPLES:
        return pooled[-1], 100.0, 0
    percentile = 100.0 * (per_worker - TAIL_BEYOND) / per_worker
    index = min(len(pooled) - 1, math.ceil(len(pooled) * percentile / 100.0) - 1)
    return pooled[index], percentile, TAIL_BEYOND


# -- the run ------------------------------------------------------------------

def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    versions = {}
    for name in ("sympy", "numpy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = "absent"
    return {
        "commit": commit,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload_name, seed, seconds, trace):
    """Iterate until ``seconds`` have passed; return counts, metrics, notes.

    Times are multiplied by their worker's scale: times at quiet speed.
    """
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    attempted = failed = 0
    groups, rates, setups, rss, scales = [], [], [], [], []
    raw_latencies, raw_setups = [], []
    summaries, overheads = [], []
    try:
        workload = WORKLOADS[workload_name](seed, tmp)
        index = 0
        while index == 0 or time.monotonic() - started < seconds:
            payload = workload.payload(index)
            runs, outcomes = [], []
            for traced in range(1 + trace):
                limit = workload.limit_s * (3 if traced else 1)
                it = spawn(workload.mode, payload, traced, tmp, min(limit, deadline - time.monotonic()))
                outcome = workload.check(payload, it)
                attempted += outcome.attempted
                failed += outcome.failed
                rss.append(it.rss_mb)
                scales.append(it.scale)
                runs.append(it)
                outcomes.append(outcome)
            outcome = outcomes[0]
            plain = runs[0]
            if plain.setup_s is not None:
                setups.append(plain.setup_s * plain.scale)
                raw_setups.append(plain.setup_s)
            if trace:
                if all(it.result is not None for it in runs):
                    traced = runs[1]
                    summaries.append((traced.result["trace"], traced.scale))
                    overheads.append(
                        workload.op_time(traced) * traced.scale / (workload.op_time(plain) * plain.scale)
                    )
            elif outcome.latencies:
                groups.append([t * plain.scale for t in outcome.latencies])
                rates.append(len(outcome.latencies) / (outcome.busy_s * plain.scale))
                raw_latencies.extend(outcome.latencies)
            index += 1
            if deadline - time.monotonic() <= 0:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    notes = ["scale: median %.4f over %d workers" % (_median(scales), len(scales))]
    if isinstance(workload, BrauerFresh) and not trace:
        notes.extend(workload.notes())
    if trace:
        metrics, absent = tracing.per_layer_metrics(summaries)
        metrics["trace.overhead_ratio"] = {"value": _median(overheads), "unit": "ratio"}
        metrics["trace.absent_metrics"] = {"value": len(absent), "unit": "count"}
        notes.append("absent (target gone): %s" % (", ".join(absent) or "none"))
    else:
        latencies = [t for g in groups for t in g]
        value, percentile, beyond = tail(groups) if groups else (0.0, 0.0, 0)
        values = (_median(setups), _median(rss), 1000 * _median(latencies), 1000 * value, _median(rates))
        metrics = {
            name: {"value": v, "unit": unit} for (name, unit), v in zip(END_TO_END.items(), values)
        }
        notes.append("op_tail_ms is p%.2f (%d beyond per worker) of %d samples from %d workers" % (
            percentile, beyond, len(latencies), len(groups)
        ))
        notes.append("unscaled: setup_s %.6f, op_p50_ms %.6f" % (
            _median(raw_setups), 1000 * _median(raw_latencies)
        ))
    notes.append("failed_ratio %d/%d = %.4f (base: operations attempted, %s)" % (
        failed, attempted, failed / attempted if attempted else math.nan, WORKLOADS[workload_name].operation
    ))
    return attempted, failed, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE_INIT.exists():
        print("no package source at %s: run from a source checkout" % PACKAGE_INIT.parent, file=sys.stderr)
        return 2
    print("env %s" % json.dumps(environment(), sort_keys=True))
    # Bytecode is written once, as an installation would; the workers then
    # pay cold imports, not compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)], check=True,
                   stdout=subprocess.DEVNULL)
    attempted, failed, metrics, notes = run(args.workload, args.seed, args.seconds, args.trace)
    for name, metric in metrics.items():
        print("metric %-32s %14.6f %s" % (name, metric["value"], metric["unit"]))
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
