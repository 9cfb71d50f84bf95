"""Benchmark entry point: one workload, one seed, one result line.

From the root of a source checkout::

    python3 perfbench/run.py --workload pool-growth --seed 1 --seconds 10 --trace 0

Runs ``prepare.py`` (artifact + request list) in one process and then
``serve.py`` (the measured serving process) in five processes, each serving
a fifth of the request list; with ``--trace 1``, one traced serving process
serves the first fifth.  Prints each metric by name with its unit, and one
JSON object as the last line of standard output.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
WORKLOADS = ("point-lookups", "pool-growth", "cluster-subplans")
#: The first run in a checkout trains the CRN and labels both pools.
PREPARE_TIMEOUT = {"cold": 840, "cached": 40}
#: Shared by a run's serving processes, so a run ends within 180 s.
SERVE_TIMEOUT = 135
#: Serving processes per untraced run, each serving an interleaved fifth of
#: the list.  Some processes run far slower than others (see README, known
#: faults); the median over the windows of five processes keeps one or two
#: such processes from deciding a run's figures.
PARTS = 5


def source_key() -> str:
    """Hash of the program's and the benchmark's sources: names the prepared-input cache."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def percentile(values, q: int) -> float:
    """The ``q``-th percentile with linear interpolation (NumPy's default)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(results: list[dict]) -> dict:
    """One run's outcome from its serving processes' samples.

    Timings are medians over the time windows of all processes; q-errors
    are percentiles over every estimate served; ``rss_mb`` is the median
    process peak.
    """
    samples = [result["samples"] for result in results]

    def pooled(name):
        return [value for sample in samples for value in sample[name]]

    q_errors = pooled("q_errors")
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "problems": [problem for result in results for problem in result["problems"]],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, value, unit in (
                ("setup_s", statistics.median(pooled("setup_s")), "s"),
                ("throughput_qps", statistics.median(pooled("window_rate")), "1/s"),
                ("latency_p50_ms", statistics.median(pooled("window_p50_ms")), "ms"),
                ("latency_p90_ms", statistics.median(pooled("window_p90_ms")), "ms"),
                ("q_error_p50", percentile(q_errors, 50), "ratio"),
                ("q_error_p90", percentile(q_errors, 90), "ratio"),
                ("rss_mb", statistics.median(sample["rss_mb"] for sample in samples), "MB"),
            )
        },
    }


def run_child(command: list[str], timeout: float) -> None:
    """Run one stage in its own session; kill the whole session on timeout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    process = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"{Path(command[1]).name} did not finish within {timeout:.0f} s")
    if code != 0:
        raise SystemExit(f"{Path(command[1]).name} exited with code {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    cache_dir = WORK_DIR / "cache" / source_key()
    run_dir = WORK_DIR / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run_child(
            [sys.executable, str(BENCH_DIR / "prepare.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--run-dir", str(run_dir), "--cache-dir", str(cache_dir)],
            PREPARE_TIMEOUT["cached" if cache_dir.is_dir() else "cold"],
        )
        # A traced run serves the first part only: one process shaped like
        # each process of an untraced run.
        served = range(1) if args.trace else range(PARTS)
        for part in served:
            run_child(
                [sys.executable, str(BENCH_DIR / "serve.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--run-dir", str(run_dir), "--trace", str(args.trace),
                 "--part", str(part), "--parts", str(PARTS)],
                SERVE_TIMEOUT / len(served),
            )
        results = [json.loads((run_dir / f"result-{part}.json").read_text()) for part in served]
        outcome = results[0] if args.trace else summarize(results)
        if args.trace:
            traces = WORK_DIR / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(run_dir / "spans.jsonl", traces / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in outcome.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in outcome["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"attempted {outcome['attempted']}, failed {outcome['failed']}, correct {outcome['correct']}")
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
