"""The measured serving process: cold boots, one fixed request list, checks.

Run by ``run.py`` after ``prepare.py`` has written the run directory::

    PYTHONPATH=src python3 perfbench/serve.py --workload pool-growth \\
        --seed 1 --run-dir .perfbench/run --trace 0

It boots ``ServingClient.from_artifact`` on the promoted generation several
times, serves its part of the request list (every ``--parts``-th call from
``--part``) on the last boot, checks every answer, and writes
``result-<part>.json`` into the run directory: raw samples that ``run.py``
merges over the parts, or with ``--trace 1`` the per-layer metrics of spans
around the program's public calls.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from reference import ReferenceEstimator, StarJoinCounter  # noqa: E402

#: Requests whose true cardinality is recounted, and calls whose estimates
#: are recomputed, apart from the program in every run.
RECOUNT_SAMPLE = 100
RECOMPUTE_CALLS = {"bursts": 12, "single": 120}
#: Calls of cluster-subplans re-served by a local client for the identity check.
CLUSTER_IDENTITY_CALLS = 60
#: Requests of pool-growth re-estimated by a client booted on the final pool.
GROWTH_IDENTITY_QUERIES = 200
#: Equal time windows each process's load is split into for throughput and latency.
WINDOWS = 5


def probe_query(database):
    """The predicate-free 6-table star: a frame query of every pool."""
    from repro.sql.query import JoinClause, Query, TableRef

    schema = database.schema
    tables = [TableRef(table.name, table.alias) for table in schema.tables]
    alias = {table.name: table.alias for table in schema.tables}
    joins = [
        JoinClause(alias[fk.table], fk.column, alias[fk.referenced_table], fk.referenced_column)
        for fk in schema.foreign_keys
    ]
    return Query.create(tables, joins)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Run:
    """One run of one workload; see the module docstring."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = wl.WORKLOADS[args.workload]
        self.database = wl.build_database()
        calls, self.labels = wl.read_requests(args.run_dir / "requests.json")
        # Every part serves an interleaved share of the fixed list.
        self.calls = calls[args.part :: args.parts]
        self.store_root = args.run_dir / "store"
        self.probe = probe_query(self.database)
        self.recorder = None
        if args.trace:
            from tracing import SpanRecorder

            self.recorder = SpanRecorder()
            self.recorder.install()
        self.attempted = 0
        self.failed = 0
        self.drains: list[int] = []
        self.problems: list[str] = []

    # ------------------------------------------------------------------ #
    # boots

    def boot(self):
        from repro.serving import ServingClient

        started = time.perf_counter()
        client = ServingClient.from_artifact(self.store_root, database=self.database)
        client.__enter__()
        client.estimate(self.probe)
        return client, time.perf_counter() - started

    def shutdown(self, client) -> None:
        """Shut a client down; in cluster mode, record how each worker exited.

        A worker drains gracefully when it exits with code 0.  Whether it
        does is a race inside the worker (see README, known faults), so the
        outcome is reported as a per-layer count, not as failed operations.
        """
        workers = []
        if client.supervisor is not None:
            pids = {entry["pid"] for entry in client.supervisor.status()["workers"]}
            workers = [child for child in multiprocessing.active_children() if child.pid in pids]
            if len(workers) != len(pids):
                self.problems.append(f"found {len(workers)} of {len(pids)} worker processes")
        client.shutdown()
        for worker in workers:
            worker.join(timeout=30)
            self.drains.append(worker.exitcode)

    # ------------------------------------------------------------------ #
    # load

    def serve(self, client):
        """Serve every call once.

        Returns each call's results (None when it raised), latency and
        completion time since the start, and the wall time of the load.
        """
        calls = self.calls
        results: list = [None] * len(calls)
        latencies = [0.0] * len(calls)
        finished = [0.0] * len(calls)
        bursts = self.workload.shape == "bursts"
        pool = client.config.pool if self.workload.grow_pool else None
        labels = self.labels
        recorder = self.recorder
        failures: list[str] = []

        def caller(indices) -> None:
            clock = time.perf_counter
            for index in indices:
                call = calls[index]
                if recorder is not None:
                    recorder.set_request(index)
                started = clock()
                try:
                    if bursts:
                        results[index] = client.estimate_many(call)
                    else:
                        results[index] = [client.estimate(call[0])]
                except Exception as error:  # noqa: BLE001 - counted as a failed operation
                    failures.append(f"call {index}: {type(error).__name__}: {error}")
                finished[index] = clock()
                latencies[index] = finished[index] - started
                if pool is not None:
                    try:
                        pool.add(call[0], labels[call[0]])
                    except Exception as error:  # noqa: BLE001 - counted as a failed operation
                        failures.append(f"add {index}: {type(error).__name__}: {error}")
                if recorder is not None:
                    recorder.set_request(-1)

        callers = self.workload.callers
        threads = [
            threading.Thread(target=caller, args=(range(k, len(calls), callers),))
            for k in range(callers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        for failure in failures[:20]:
            print(f"failed: {failure}", file=sys.stderr)
        self.attempted += len(calls) * (2 if pool is not None else 1)
        self.failed += len(failures)
        return results, latencies, [moment - started for moment in finished], wall

    # ------------------------------------------------------------------ #
    # checks

    def check_answers(self, results) -> list[float]:
        """Every call answered in order with a finite estimate >= 0; q-errors."""
        q_errors = []
        for call, answered in zip(self.calls, results):
            if answered is None:
                continue
            if len(answered) != len(call):
                self.problems.append(f"{len(answered)} answers for {len(call)} queries")
                continue
            for query, result in zip(call, answered):
                estimate = result.estimate
                if result.query != query:
                    self.problems.append("an answer is for another query")
                if not math.isfinite(estimate) or estimate < 0:
                    self.problems.append(f"estimate {estimate!r} is not finite and >= 0")
                    continue
                e = max(estimate, 1.0)
                t = max(float(self.labels[query]), 1.0)
                q_errors.append(max(e, t) / min(e, t))
        return q_errors

    def check_labels(self, rng) -> None:
        """Recount the true cardinality of sampled requests with our own counter."""
        counter = StarJoinCounter(self.database)
        queries = list({query: None for call in self.calls for query in call})
        for index in rng.choice(len(queries), size=min(RECOUNT_SAMPLE, len(queries)), replace=False):
            query = queries[index]
            recount = counter.count(query)
            if recount != self.labels[query]:
                self.problems.append(
                    f"label {self.labels[query]} but recount {recount} for {query}"
                )

    def check_estimates(self, results, rng) -> None:
        """Recompute sampled estimates with the benchmark's own CRN forward pass."""
        from reference import query_record

        reference = ReferenceEstimator(self.store_root / "gen-1", self.database)
        sample = set(
            rng.choice(
                len(self.calls),
                size=min(RECOMPUTE_CALLS[self.workload.shape], len(self.calls)),
                replace=False,
            ).tolist()
        )
        for index, (call, answered) in enumerate(zip(self.calls, results)):
            if index in sample and answered is not None:
                for query, result in zip(call, answered):
                    expected = reference.estimate(query)
                    if not reference.agrees(result.estimate, expected):
                        self.problems.append(
                            f"served {result.estimate!r}, recomputed {expected!r} for {query}"
                        )
            if self.workload.grow_pool:
                reference.add(query_record(call[0]), self.labels[call[0]])

    def check_growth_identity(self, client, rng) -> None:
        """Estimates after incremental pool growth equal a fresh boot's on the final pool."""
        from repro.artifacts import ArtifactStore
        from repro.serving import ServingClient

        queries = [self.calls[i][0] for i in rng.choice(
            len(self.calls), size=min(GROWTH_IDENTITY_QUERIES, len(self.calls)), replace=False)]
        grown = [client.estimate(query).estimate for query in queries]
        ArtifactStore(self.store_root).save(
            model=client.config.model,
            pool=client.config.pool,
            config_mapping=client.config.to_mapping(),
            generation=2,
            source="final-pool",
        )
        fresh = ServingClient.from_artifact(self.store_root, database=self.database, generation=2)
        try:
            rebooted = [fresh.estimate(query).estimate for query in queries]
        finally:
            fresh.shutdown()
        mismatched = sum(a != b for a, b in zip(grown, rebooted))
        if mismatched:
            self.problems.append(
                f"{mismatched} of {len(queries)} estimates differ between the grown pool "
                f"and a fresh boot on it"
            )

    def check_cluster_identity(self, results, rng) -> None:
        """Cluster estimates equal a local client's on the same artifact."""
        from repro.serving import ServingClient

        # Restoring every signature is the worker boot path over the whole
        # pool: a local-mode client on the same bundle.
        local = ServingClient.from_artifact(
            self.store_root, database=self.database, signatures=_all_signatures(self.store_root)
        )
        try:
            for index in rng.choice(
                len(self.calls), size=min(CLUSTER_IDENTITY_CALLS, len(self.calls)), replace=False
            ):
                if results[index] is None:
                    continue
                expected = [r.estimate for r in local.estimate_many(self.calls[index])]
                served = [r.estimate for r in results[index]]
                if expected != served:
                    self.problems.append(f"cluster and local estimates differ on call {index}")
        finally:
            local.shutdown()

    # ------------------------------------------------------------------ #

    def execute(self) -> dict:
        workload = self.workload
        recorder = self.recorder
        setup = []
        boot_mark = recorder.mark() if recorder else 0
        for boot in range(workload.boots):
            client, seconds = self.boot()
            self.attempted += 1
            setup.append(seconds)
            if boot < workload.boots - 1:
                self.shutdown(client)
                del client
                gc.collect()
        counters_before = _counters(client)
        if recorder is not None:
            load_mark = recorder.mark()
            recorder.take_observed()
        results, latencies, finished, wall = self.serve(client)
        if recorder is not None:
            end_mark = recorder.mark()
            observed = recorder.take_observed()
        counters_after = _counters(client, counters_before)
        rss = vm_hwm_mb()
        if client.supervisor is not None:
            for entry in client.supervisor.status()["workers"]:
                rss += vm_hwm_mb(entry["pid"])
        rng = np.random.default_rng([self.args.seed, self.args.part])
        q_errors = self.check_answers(results)
        self.check_labels(rng)
        self.check_estimates(results, rng)
        if workload.grow_pool:
            self.check_growth_identity(client, rng)
        self.shutdown(client)
        if client.supervisor is not None:
            self.check_cluster_identity(results, rng)

        outcome = {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
        }
        if recorder is None:
            rates, p50s, p90s = windowed(finished, np.array(latencies) * 1000.0, self.calls, wall)
            outcome["samples"] = {
                "setup_s": setup,
                "window_rate": rates,
                "window_p50_ms": p50s,
                "window_p90_ms": p90s,
                "q_errors": q_errors,
                "rss_mb": rss,
                "wall_s": wall,
            }
            return outcome
        from tracing import PER_LAYER_UNITS, per_layer_metrics

        counters_after["failed_drains"] = float(sum(code != 0 for code in self.drains))
        metrics = per_layer_metrics(
            observed,
            recorder.spans(boot_mark, load_mark),
            recorder.spans(load_mark, end_mark),
            recorder.spans(end_mark),
            counters_after,
            wall,
        )
        outcome["metrics"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
        }
        recorder.uninstall()
        recorder.write(self.args.run_dir / "spans.jsonl")
        return outcome


def windowed(finished, latencies_ms, calls, wall):
    """Throughput, p50 and p90 latency in each of :data:`WINDOWS` equal time windows.

    Each call belongs to the window in which it completed.  ``run.py``
    reports the median over the windows of all serving processes of a run,
    so a stretch of a run that a shared machine slowed down does not move
    the run's figure, while every window still serves the fixed list.
    """
    width = wall / WINDOWS
    window = np.minimum((np.asarray(finished) / width).astype(int), WINDOWS - 1)
    estimates = np.array([len(call) for call in calls])
    rates, p50s, p90s = [], [], []
    for w in range(WINDOWS):
        rates.append(float(estimates[window == w].sum() / width))
        if (window == w).any():
            p50s.append(float(np.percentile(latencies_ms[window == w], 50)))
            p90s.append(float(np.percentile(latencies_ms[window == w], 90)))
    return rates, p50s, p90s


def _all_signatures(store_root: Path):
    from repro.artifacts import ArtifactStore

    return ArtifactStore(store_root).load().pool.from_signatures()


def _counters(client, before: dict | None = None) -> dict:
    """The program's own counters, as deltas from ``before`` when given."""
    stats = client.stats()
    if client.stack is not None:
        for name, cache in (
            ("featurization", client.stack.featurization_cache),
            ("encoding", client.stack.encoding_cache),
        ):
            stats[f"{name}_hits"] = float(cache.stats.hits)
            stats[f"{name}_misses"] = float(cache.stats.misses)
    if before is None:
        return stats
    delta = dict(stats)
    for name in ("pool_index_appended_rows", "pool_index_rebuilds", "cluster_retries",
                 "featurization_hits", "featurization_misses", "encoding_hits", "encoding_misses",
                 "completed", "coalesced_batches"):
        delta[name] = stats.get(name, 0.0) - before.get(name, 0.0)
    batches = delta["coalesced_batches"]
    delta["mean_batch_size"] = delta["completed"] / batches if batches else 0.0
    for name in ("featurization", "encoding"):
        lookups = delta[f"{name}_hits"] + delta[f"{name}_misses"]
        delta[f"{name}_hit_ratio"] = delta[f"{name}_hits"] / lookups if lookups else 0.0
    return delta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args()
    outcome = Run(args).execute()
    (args.run_dir / f"result-{args.part}.json").write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
