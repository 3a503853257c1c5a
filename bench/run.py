"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload lattice-survey --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the library is imported from
``src/`` next to this directory. The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured untraced
for ``--seconds`` (and at least one pass over the pool); with
``--trace 1`` they are the per-layer ones, from an untraced pass and a
traced pass over the pool, and ``--seconds`` is not used.
Details, spans and the per-case baseline timings are written to
``.bench_out/``.

Job latencies are CPU time of this process (``time.process_time``): the
jobs are single-threaded and do no I/O, and CPU time leaves out the time the
process waits for a core on a shared machine. A shared machine also changes
how fast that CPU time runs, by up to half for tens of seconds, so the
benchmark times a fixed kernel of its own between jobs and reports every
time in reference units: CPU time x CAL_REF_S / the kernel's time next to it
(see ``Calibrator``). Spans use the wall clock.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import baselines
import exact
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
clock = time.process_time

# Calibration kernel: the benchmark's own exact arithmetic, the same mix of
# Python int, Fraction and list work as the library's, independent of it.
CAL_GRAM = exact.a_gram(8)
CAL_MAT = [[x + (i * j) % 3 for j, x in enumerate(row)]
           for i, row in enumerate(exact.a_gram(12))]
CAL_REF_S = 0.003  # times are reported for a host where the kernel takes this long
CAL_EVERY_S = 0.05  # job CPU time between kernel runs
CAL_NEAR = 2  # kernel runs taken on each side of a job


def calibration_kernel():
    exact.inverse(CAL_GRAM)
    for _ in range(4):
        exact.matmul(CAL_MAT, CAL_MAT)
    exact.det(CAL_MAT)


class Calibrator:
    """How fast this process's CPU time runs at the moment, as a series of
    timings of a fixed kernel.

    A time measured next to kernel runs that took ``c`` seconds is reported
    as ``time * CAL_REF_S / c``: the time it would take on a host where the
    kernel takes CAL_REF_S. ``c`` is the median of the CAL_NEAR runs before
    and the CAL_NEAR runs after the measurement, so a slow spell of the host
    scales jobs and kernel alike, and a later change to the library does not
    move the kernel. The collector is off while the kernel runs, so garbage
    the jobs leave behind is not collected on the kernel's clock.
    """

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            calibration_kernel()
            self.samples.append(clock() - t0)
        finally:
            if enabled:
                gc.enable()

    def mark(self):
        """Position of a measurement that starts now."""
        return len(self.samples)

    def scale(self, seconds, mark):
        near = self.samples[max(0, mark - CAL_NEAR):mark + CAL_NEAR]
        return seconds * CAL_REF_S / statistics.median(near)


def fresh_import():
    """Import evenlat from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "evenlat" or m.startswith("evenlat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("evenlat")
    mods = {layer: importlib.import_module(f"evenlat.{layer}") for layer in tracing.LAYERS}
    return SimpleNamespace(package=pkg, **mods)


def setup(workload, seed):
    """Import, generate the seeded inputs and build the reused objects.

    Repeated, and the median reported in reference seconds, so that set-up
    time is steady; the state of the last repetition is the one the jobs use.
    """
    cal = Calibrator()
    runs = []
    for _ in range(SETUP_REPEATS):
        for _ in range(CAL_NEAR):
            cal.sample()
        mark = cal.mark()
        t0 = clock()
        ev = fresh_import()
        jobs = workload.generate(random.Random(f"{workload.name}:{seed}"))
        ctx = workload.build(ev)
        runs.append((clock() - t0, mark))
    for _ in range(CAL_NEAR):
        cal.sample()
    return ev, jobs, ctx, statistics.median(cal.scale(t, k) for t, k in runs)


class Loop:
    """Runs jobs one after another and keeps the verdict of each.

    A job's output is checked the first time it runs; later runs of the same
    job must reproduce it byte for byte. The calibration kernel runs after
    every CAL_EVERY_S of job CPU time; ``finish`` adds the runs after the last
    job.
    """

    def __init__(self, workload, ev, ctx, tracer=None):
        self.workload, self.ev, self.ctx = workload, ev, ctx
        self.tracer = tracer
        self.cal = Calibrator()
        self.since_cal = 0.0
        self.latencies = {}  # job index -> (CPU seconds, calibration mark) of each run
        self.attempted = 0
        self.failed = 0
        self.capped = 0
        self.errors = []
        self.seen = {}  # job index -> (fingerprint, verdict) of its first run
        self.digest = hashlib.sha256()  # fingerprints of first runs, in order

    def step(self, job):
        w = self.workload
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job = job.index
        try:
            t0 = clock()
            out = w.run(self.ev, self.ctx, job)
            t1 = clock()
            if self.tracer is not None:
                self.tracer.job = -1
            fp = w.fingerprint(out)
            first = self.seen.get(job.index)
            if first is None:
                verdict = w.check(job, out)
                self.seen[job.index] = (fp, verdict)
                self.digest.update(fp.encode() + b"\0")
            elif first[0] != fp:
                raise AssertionError(f"{job.case}: output changed on a repeated job")
            else:
                verdict = first[1]
        except Exception as exc:  # a failed job is counted and the loop goes on
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{job.case}: {exc!r}\n{traceback.format_exc(limit=4)}")
            return
        finally:
            if self.tracer is not None:
                self.tracer.job = -1
        self.latencies.setdefault(job.index, []).append((t1 - t0, self.cal.mark()))
        if verdict == "capped":
            self.capped += 1
        self.since_cal += t1 - t0
        if self.since_cal >= CAL_EVERY_S:
            self.cal.sample()
            self.since_cal = 0.0

    def finish(self):
        for _ in range(CAL_NEAR):
            self.cal.sample()

    def per_job(self):
        """Each job's latency in reference seconds: the median of its runs.
        A median, not the least, so that the estimate does not fall as a
        faster host fits more runs into the same seconds. The first run is
        kept: set-up has imported everything, and the library keeps no
        caches between jobs, so it is not slower than the others."""
        return [statistics.median(self.cal.scale(t, k) for t, k in v)
                for v in self.latencies.values()]

    def raw_per_job(self):
        """Each job's median CPU seconds, not scaled."""
        return [statistics.median(t for t, _ in v) for v in self.latencies.values()]


def timed_run(workload, ev, ctx, jobs, seconds):
    loop = Loop(workload, ev, ctx)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(jobs) or time.perf_counter() < deadline:  # at least one pass
        loop.step(jobs[i % len(jobs)])
        i += 1
    loop.finish()
    return loop


def traced_run(workload, ev, ctx, jobs):
    plain = Loop(workload, ev, ctx)
    for job in jobs:  # also checks the outputs
        plain.step(job)
    plain.finish()
    tracer = tracing.Tracer(ev.quadmod.CapExceeded)
    tracer.install(ev)
    traced = Loop(workload, ev, ctx, tracer)
    for job in jobs:
        traced.step(job)
    traced.finish()
    if traced.digest.digest() != plain.digest.digest():
        traced.failed += 1
        traced.errors.append("traced pass output differs from the untraced pass")
    return plain, traced, tracer


def metric(value, unit):
    return {"value": value, "unit": unit}


def write_spans(path, tracer, cases):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"names": names, "jobs": cases,
                   "fields": ["name", "start_ns", "end_ns", "parent", "job", "self_ns"],
                   "spans": [[index[s[0]], *s[1:]] for s in tracer.spans]}, fh)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "evenlat" / "__init__.py").is_file():
        print(f"error: no evenlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]()
    ev, jobs, ctx, setup_s = setup(workload, args.seed)
    workload.cross_check(ev, ctx, random.Random(f"{workload.name}:{args.seed}:cross"))

    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "jobs_in_pool": len(jobs), "setup_s": setup_s}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        plain, loop, tracer = traced_run(workload, ev, ctx, jobs)
        attempted = plain.attempted + loop.attempted
        failed = plain.failed + loop.failed
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = metric(
            sum(loop.per_job()) / sum(plain.per_job()), "ratio")
        metrics["failed_ratio"] = metric(failed / attempted, "ratio")
        metrics["capped_ratio"] = metric(loop.capped / loop.attempted, "ratio")
        cases = [job.case for job in jobs]
        detail["baselines"] = baselines.measure(workload.name, tracer, cases)
        detail["errors"] = plain.errors + loop.errors
        write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.json.gz", tracer, cases)
    else:
        loop = timed_run(workload, ev, ctx, jobs, args.seconds)
        attempted, failed = loop.attempted, loop.failed
        lat = loop.per_job()
        metrics = {
            "jobs_per_s": metric(len(lat) / sum(lat), "1/s"),
            "job_p50_ms": metric(1000 * statistics.median(lat), "ms"),
            "job_p90_ms": metric(1000 * statistics.quantiles(lat, n=10)[-1], "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        detail["raw_cpu_ms"] = {"p50": 1000 * statistics.median(loop.raw_per_job()),
                                "calibration_median": 1000 * statistics.median(loop.cal.samples)}
        detail["failed_ratio"] = failed / attempted
        detail["capped_ratio"] = loop.capped / attempted
        detail["errors"] = loop.errors
    detail["latency_samples"] = len(loop.per_job())
    detail["job_runs"] = sum(len(v) for v in loop.latencies.values())
    detail["output_digest"] = loop.digest.hexdigest()
    detail["metrics"] = metrics
    (OUT / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))

    for err in detail["errors"]:
        print(err, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>14.6g} {m['unit']}")
    print(f"latency samples {detail['latency_samples']} (jobs, each the median of "
          f"its runs, in reference units), job runs {detail['job_runs']}, attempted {attempted}, "
          f"failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
