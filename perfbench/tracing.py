"""Spans around the program's public calls, recorded from outside the program.

A traced run installs a :class:`SpanRecorder` before the first boot.  It
replaces each public method or function named in :data:`TIMED_CALLS` with a
wrapper that records one span per call: its name, start, end, the span that
was open on the same thread when it began (its parent), and the request id
the load generator set on that thread.  Spans stay in memory and are written
out once, when the run ends.  Forked cluster workers stop recording at fork;
their side is read from the results they return.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

#: (module, owner, attribute, span name).  ``owner`` None wraps a function
#: of the module itself.
TIMED_CALLS = (
    ("repro.serving.dispatcher", "ServingDispatcher", "estimate", "dispatcher.estimate"),
    ("repro.serving.service", "EstimationService", "submit_batch", "service.submit_batch"),
    ("repro.serving.planner", "BatchPlanner", "plan", "planner.plan"),
    ("repro.serving.cache", "FeaturizationCache", "featurize", "cache.featurize"),
    ("repro.serving.cache", "EncodingCache", "get", "cache.encoding_get"),
    ("repro.core.featurization", "QueryFeaturizer", "featurize", "featurize"),
    ("repro.core.crn", "CRNEstimator", "encode_query", "crn.encode_query"),
    ("repro.core.crn", "CRNEstimator", "rates_against_pools", "crn.rates_against_pools"),
    ("repro.serving.inference_plan", "InferencePlan", "rates_against_slab", "plan.rates_against_slab"),
    ("repro.serving.inference_plan", "InferencePlan", "encode_set", "plan.encode_set"),
    ("repro.serving.inference_plan", None, "compile_plan", "plan.compile"),
    ("repro.serving.client", None, "compile_plan", "plan.compile"),
    ("repro.serving.pool_index", "PoolEncodingIndex", "resolve", "pool_index.resolve"),
    ("repro.serving.pool_index", "PoolEncodingIndex", "warm", "pool_index.warm"),
    ("repro.core.cnt2crd", "Cnt2CrdEstimator", "estimate_values_from_rates", "cnt2crd.values"),
    ("repro.core.cnt2crd", "Cnt2CrdEstimator", "collapse_values", "cnt2crd.collapse"),
    ("repro.core.queries_pool", "QueriesPool", "add", "pool.add"),
    ("repro.artifacts.store", "ArtifactStore", "load", "artifacts.load"),
    ("repro.observability.recorder", "EventRecorder", "emit", "observability.emit"),
    ("repro.observability.recorder", "EventRecorder", "flush", "observability.flush"),
    ("repro.cluster.router", "ClusterRouter", "estimate", "router.estimate"),
    ("repro.cluster.router", "ClusterRouter", "estimate_many", "router.estimate_many"),
    ("repro.cluster.protocol", None, "encode_frame", "protocol.encode_frame"),
    ("repro.cluster.protocol", None, "decode_frame", "protocol.decode_frame"),
    ("repro.cluster.supervisor", "ClusterSupervisor", "stop", "supervisor.stop"),
)

#: Every per-layer metric a traced run reports, with its unit.  A layer the
#: workload does not run reports 0.
PER_LAYER_UNITS = {
    "dispatcher.queue_wait_s": "s",
    "dispatcher.queue_wait_p50_ms": "ms",
    "dispatcher.batch_size_mean": "count",
    "service.calls": "count",
    "service.self_s": "s",
    "planner.self_s": "s",
    "cache.featurization_hit_ratio": "ratio",
    "cache.encoding_hit_ratio": "ratio",
    "cache.self_s": "s",
    "featurize.calls": "count",
    "featurize.self_s": "s",
    "crn.encode_calls": "count",
    "crn.encode_self_s": "s",
    "crn.score_self_s": "s",
    "crn.pairs_scored": "count",
    "plan.slab_calls": "count",
    "plan.slab_self_s": "s",
    "plan.slab_rows": "count",
    "plan.gflop": "GFLOP",
    "plan.encode_self_s": "s",
    "setup.plan_compile_s": "s",
    "pool_index.resolve_self_s": "s",
    "pool_index.appended_rows": "count",
    "pool_index.rebuilds": "count",
    "setup.index_warm_s": "s",
    "cnt2crd.self_s": "s",
    "pool.add_calls": "count",
    "pool.add_self_s": "s",
    "artifacts.load_s": "s",
    "observability.events": "count",
    "observability.self_s": "s",
    "router.calls": "count",
    "router.overhead_s": "s",
    "router.retries": "count",
    "protocol.codec_self_s": "s",
    "protocol.bytes": "bytes",
    "worker.service_s": "s",
    "supervisor.stop_s": "s",
    "supervisor.failed_drains": "count",
    "trace.wall_s": "s",
}


class SpanRecorder:
    """In-memory spans of wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans: dict[int, tuple] = {}
        self._slots = itertools.count()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self.enabled = True
        # Objects passed to a call, kept for metrics that need more than
        # timings (results, row counts, payload sizes).
        self.observed: dict[str, list] = defaultdict(list)
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------ #
    # recording

    def set_request(self, request_id: int) -> None:
        """Tag spans begun on this thread with ``request_id`` (-1: none)."""
        self._local.request_id = request_id

    def install(self) -> None:
        """Wrap every call in :data:`TIMED_CALLS`."""
        import importlib

        for module_name, owner_name, attribute, span_name in TIMED_CALLS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _wrap(self, original, name: str):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self._names):
            self._names.append(name)
        recorder = self
        observed = self.observed[name]
        keep = name in _OBSERVERS
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            slot = next(recorder._slots)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder._spans[slot] = (
                    name_id, start, end, parent, getattr(local, "request_id", -1)
                )
            if keep:
                observed.append(_OBSERVERS[name](args, kwargs, result))
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # reading

    def take_observed(self) -> dict[str, list]:
        """What calls observed since the last take, and start afresh."""
        taken = {}
        for name, values in self.observed.items():
            taken[name] = list(values)
            values.clear()
        return taken

    def mark(self) -> int:
        """A position in the span sequence: spans after it begin later."""
        return next(self._slots)

    def spans(self, start: int = 0, stop: int | None = None):
        """``(name, start, end, parent, request_id, self_seconds)`` in [start, stop)."""
        selected = {
            slot: span
            for slot, span in self._spans.items()
            if slot >= start and (stop is None or slot < stop)
        }
        child_time: dict[int, float] = defaultdict(float)
        for span in selected.values():
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        rows = []
        for slot in sorted(selected):
            name_id, begin, end, parent, request = selected[slot]
            rows.append(
                (self._names[name_id], begin, end, parent, request,
                 (end - begin) - child_time.get(slot, 0.0))
            )
        return rows

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as stream:
            for slot in sorted(self._spans):
                name_id, begin, end, parent, request = self._spans[slot]
                stream.write(
                    json.dumps(
                        {"id": slot, "name": self._names[name_id], "start": begin,
                         "end": end, "parent": parent, "request": request},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _shape_rows(args, kwargs, result):
    # InferencePlan.rates_against_slab(self, query_first, query_second, pool_first, ...)
    pool_first = args[3] if len(args) > 3 else kwargs["pool_first"]
    return int(pool_first.shape[0]), int(pool_first.shape[1])


def _block_rates(args, kwargs, result):
    return sum(len(block) for block in result)


def _frame_bytes(args, kwargs, result):
    return len(result)


def _payload_bytes(args, kwargs, result):
    return len(args[0])


def _queue_wait(args, kwargs, result):
    return result.queue_wait_seconds


def _router_results(args, kwargs, result):
    router = args[0]
    results = result if isinstance(result, list) else [result]
    return [(router.shard_for(item.query), item.latency_seconds) for item in results]


_OBSERVERS = {
    "plan.rates_against_slab": _shape_rows,
    "crn.rates_against_pools": _block_rates,
    "protocol.encode_frame": _frame_bytes,
    "protocol.decode_frame": _payload_bytes,
    "dispatcher.estimate": _queue_wait,
    "router.estimate": _router_results,
    "router.estimate_many": _router_results,
}


def _median_duration(rows, name: str) -> float:
    durations = [end - begin for span_name, begin, end, *_ in rows if span_name == name]
    return statistics.median(durations) if durations else 0.0


def per_layer_metrics(observed, boot_rows, load_rows, end_rows, counters, wall_s):
    """The per-layer metrics of one traced run.

    ``boot_rows``, ``load_rows`` and ``end_rows`` are :meth:`SpanRecorder.spans`
    of the boot phase, the load phase and what follows it (checks and the
    last shutdown); ``counters`` holds what the program's own ``stats()``
    said over the load phase, plus the count of failed worker drains;
    ``observed`` is :meth:`SpanRecorder.take_observed` at the end of the load.
    """
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, _, _, _, _, own in load_rows:
        self_time[name] += own
        calls[name] += 1
    waits = observed.get("dispatcher.estimate", [])
    rows_widths = observed.get("plan.rates_against_slab", [])
    slab_rows = sum(rows for rows, _ in rows_widths)
    # Dense pair-head work the slab calls stand for, per scored pair: the
    # Expand layer (4H -> 2H) and the output layer (2H -> 1), 2 FLOP per MAC.
    flop = sum(2 * rows * 2 * (4 * h * 2 * h + 2 * h) for rows, h in rows_widths)
    router_overhead = 0.0
    worker_service = 0.0
    router_calls = [
        (end - begin, name)
        for name, begin, end, *_ in load_rows
        if name in ("router.estimate", "router.estimate_many")
    ]
    router_results = observed.get("router.estimate", []) + observed.get("router.estimate_many", [])
    for (duration, _), shard_latencies in zip(router_calls, router_results):
        per_shard: dict[int, float] = defaultdict(float)
        for shard, latency in shard_latencies:
            per_shard[shard] += latency
            worker_service += latency
        router_overhead += duration - max(per_shard.values(), default=0.0)
    return {
        "dispatcher.queue_wait_s": float(sum(waits)),
        "dispatcher.queue_wait_p50_ms": float(np.median(waits) * 1000.0) if waits else 0.0,
        "dispatcher.batch_size_mean": counters.get("mean_batch_size", 0.0),
        "service.calls": float(calls["service.submit_batch"]),
        "service.self_s": self_time["service.submit_batch"],
        "planner.self_s": self_time["planner.plan"],
        "cache.featurization_hit_ratio": counters.get("featurization_hit_ratio", 0.0),
        "cache.encoding_hit_ratio": counters.get("encoding_hit_ratio", 0.0),
        "cache.self_s": self_time["cache.featurize"] + self_time["cache.encoding_get"],
        "featurize.calls": float(calls["featurize"]),
        "featurize.self_s": self_time["featurize"],
        "crn.encode_calls": float(calls["crn.encode_query"]),
        "crn.encode_self_s": self_time["crn.encode_query"],
        "crn.score_self_s": self_time["crn.rates_against_pools"],
        "crn.pairs_scored": float(sum(observed.get("crn.rates_against_pools", []))),
        "plan.slab_calls": float(calls["plan.rates_against_slab"]),
        "plan.slab_self_s": self_time["plan.rates_against_slab"],
        "plan.slab_rows": float(slab_rows),
        "plan.gflop": flop / 1e9,
        "plan.encode_self_s": self_time["plan.encode_set"],
        "setup.plan_compile_s": _median_duration(boot_rows, "plan.compile"),
        "pool_index.resolve_self_s": self_time["pool_index.resolve"],
        "pool_index.appended_rows": counters.get("pool_index_appended_rows", 0.0),
        "pool_index.rebuilds": counters.get("pool_index_rebuilds", 0.0),
        "setup.index_warm_s": _median_duration(boot_rows, "pool_index.warm"),
        "cnt2crd.self_s": self_time["cnt2crd.values"] + self_time["cnt2crd.collapse"],
        "pool.add_calls": float(calls["pool.add"]),
        "pool.add_self_s": self_time["pool.add"],
        "artifacts.load_s": _median_duration(boot_rows, "artifacts.load"),
        "observability.events": float(calls["observability.emit"]),
        "observability.self_s": self_time["observability.emit"] + self_time["observability.flush"],
        "router.calls": float(len(router_calls)),
        "router.overhead_s": router_overhead,
        "router.retries": counters.get("cluster_retries", 0.0),
        "protocol.codec_self_s": self_time["protocol.encode_frame"] + self_time["protocol.decode_frame"],
        "protocol.bytes": float(
            sum(observed.get("protocol.encode_frame", [])) + sum(observed.get("protocol.decode_frame", []))
        ),
        "worker.service_s": worker_service,
        "supervisor.stop_s": _median_duration(boot_rows + end_rows, "supervisor.stop"),
        "supervisor.failed_drains": counters.get("failed_drains", 0.0),
        "trace.wall_s": wall_s,
    }
