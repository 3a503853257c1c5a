"""Run every workload once untraced and twice traced, and print all metrics.

    python3 bench/report.py [--seed 1] [--seconds 40]

Each run is its own process (``bench/run.py``), one after another. The two
traced runs share a seed and must agree exactly on every count metric and
on the digest of the outputs (for lattice-survey, the CLI JSON); the
untraced run must produce the same digest. Exits 1 when a run fails, a
check fails or the determinism check does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNTS = ("failed_ratio", "capped_ratio")


def is_count(name):
    return name.endswith((".calls", ".count", ".word_len")) or name in COUNTS


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    out = ROOT / ".bench_out" / f"run-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text())


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)

    problems = []
    for name in WORKLOADS:
        plain = run(name, args.seed, args.seconds, 0)
        traced = [run(name, args.seed, args.seconds, 1) for _ in range(2)]
        print(f"\n== {name} (seed {args.seed}, {plain['jobs_in_pool']} jobs per pass)")
        print(f"end to end, untraced: {plain['latency_samples']} latency samples "
              f"(one per job, the median of its runs, in reference units), "
              f"{plain['job_runs']} job runs")
        rows = list(plain["metrics"].items())
        rows += [("failed_ratio", {"value": plain["failed_ratio"], "unit": "ratio"}),
                 ("capped_ratio", {"value": plain["capped_ratio"], "unit": "ratio"})]
        for metric, m in rows:
            print(f"  {metric:45s} {m['value']:>14.6g} {m['unit']}")
        print(f"per layer, traced: {traced[0]['latency_samples']} jobs, one pass")
        for metric, m in traced[0]["metrics"].items():
            print(f"  {metric:45s} {m['value']:>14.6g} {m['unit']}")
        print("baseline cases, traced (seconds; reference range from ROADMAP.md):")
        for row in traced[0]["baselines"]:
            flag = "  differs by more than 2x" if row["off_by_2x"] else ""
            lo, hi = row["reference_s"]
            ref = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
            print(f"  {row['case']:32s} {row['seconds']:10.4f} over {row['jobs']} jobs"
                  f" (reference {ref}){flag}")

        for r in (plain, *traced):
            if r["errors"]:
                problems.append(f"{name}: {r['errors'][0]}")
        if plain["failed_ratio"] or traced[0]["metrics"]["failed_ratio"]["value"]:
            problems.append(f"{name}: failed_ratio is not 0")
        a, b = (t["metrics"] for t in traced)
        for metric in a:
            if is_count(metric) and a[metric]["value"] != b[metric]["value"]:
                problems.append(f"{name}: {metric} differs between two traced runs")
        digests = {r["output_digest"] for r in (plain, *traced)}
        if len(digests) != 1:
            problems.append(f"{name}: outputs differ between runs of one seed")
        else:
            print(f"determinism: count metrics and output digest {digests.pop()[:16]} "
                  "agree across runs")
        if name == "lattice-survey" and not plain["capped_ratio"]:
            problems.append("lattice-survey: no job hit a cap")
        if name == "wide-verify" and a["ogroup.classify.calls"]["value"] < traced[0][
                "latency_samples"]:
            problems.append("wide-verify: fewer classify calls than jobs")

    print()
    for line in problems:
        print("PROBLEM", line)
    print("all checks hold" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
