"""The benchmark's four workloads and the inputs they share.

Imported by both ``prepare.py`` (which writes a run's inputs) and
``serve.py`` (which serves them), so the two processes agree on the
database, the pools and each workload's serving configuration.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

#: The synthetic IMDb snapshot every workload serves (42,963 rows).
DATABASE_TITLES = 2000
DATABASE_SEED = 7

#: The CRN every workload serves, trained once per source tree.
HIDDEN_SIZE = 64
MODEL_SEED = 2
TRAINING_PAIRS = 3000
TRAINING_PAIRS_SEED = 12
TRAINING_EPOCHS = 25

#: The paper's 300-entry queries pool.  It includes the predicate-free frame
#: query of every FROM signature, so every request has a same-FROM match.
POOL_SIZE = 300
POOL_SEED = 17

#: Joins per generated request: crd_test2's 0-5, in equal shares.
MAX_JOINS = 5

#: Every request is drawn from one of two labelled query corpora, built once
#: per source tree with these generator seeds.  A workload serves a fixed
#: prefix of its corpus (``queries_per_second`` x :data:`CORPUS_SECONDS`
#: queries) in an order, and for other ``--seconds`` a length, chosen by
#: ``--seed``.  The q-error metrics therefore describe one fixed query set,
#: as the paper's fixed test workloads do.
CORPUS_SEEDS = {"bursts": 101, "singles": 202}
CORPUS_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    """How one workload is served and how much it asks per run-second.

    Attributes:
        corpus: which of :data:`CORPUS_SEEDS` the requests come from.
        shape: ``"bursts"`` (one ``estimate_many`` of every connected
            sub-plan of a query) or ``"single"`` (one ``estimate`` per query).
        callers: closed-loop caller threads.
        queries_per_second: generated queries per second of ``--seconds``;
            the run's request list is fixed by this and ``--seconds``.
        boots: cold boots per serving process; ``setup_s`` is the median
            boot of a run.
        grow_pool: add each query, with its true cardinality, to the pool
            right after estimating it.
        config: the :meth:`ServingConfig.to_mapping` sections that differ
            from the program's defaults.
    """

    corpus: str
    shape: str
    callers: int
    queries_per_second: int
    boots: int
    grow_pool: bool
    config: dict


COMPILED_F32 = {"mode": "compiled", "slab_dtype": "float32"}

WORKLOADS: dict[str, Workload] = {
    "point-lookups": Workload(
        corpus="singles",
        shape="single",
        callers=2,
        queries_per_second=420,
        boots=2,
        grow_pool=False,
        config={
            "observability": {"enabled": True},
            "tracing": {"enabled": True},
        },
    ),
    "pool-growth": Workload(
        corpus="singles",
        shape="single",
        callers=1,
        queries_per_second=1200,
        boots=2,
        grow_pool=True,
        config={"inference": COMPILED_F32, "dispatcher": {"enabled": False}},
    ),
    "cluster-subplans": Workload(
        corpus="bursts",
        shape="bursts",
        callers=1,
        queries_per_second=200,
        boots=1,
        grow_pool=False,
        config={
            "inference": COMPILED_F32,
            # Each worker that does not drain costs a shutdown
            # drain_timeout_seconds; at the default 10 s a run's five boots
            # would not fit its time budget.  Failed drains are reported
            # either way (supervisor.failed_drains).
            "cluster": {"mode": "cluster", "num_workers": 2, "drain_timeout_seconds": 1.0},
        },
    ),
}


def corpus_size(corpus: str) -> int:
    """Queries in ``corpus``: enough for its largest workload."""
    return max(
        workload.queries_per_second * CORPUS_SECONDS
        for workload in WORKLOADS.values()
        if workload.corpus == corpus
    )


def build_database():
    """The synthetic IMDb snapshot (deterministic, ~20 ms)."""
    from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb

    return build_synthetic_imdb(
        SyntheticIMDbConfig(num_titles=DATABASE_TITLES, seed=DATABASE_SEED)
    )


def connected_subplans(query):
    """Every connected sub-plan of ``query``: 1 to 37 of them.

    A sub-plan keeps a connected subset of the query's tables with the joins
    and predicates among them, as a cost-based optimizer would cost it.  The
    6-table star has 6 single tables and 31 title-rooted stars.
    """
    from repro.sql.query import Query

    tables = query.tables
    subplans = []
    for size in range(1, len(tables) + 1):
        for subset in itertools.combinations(tables, size):
            aliases = {table.alias for table in subset}
            joins = [
                join
                for join in query.joins
                if join.left_alias in aliases and join.right_alias in aliases
            ]
            if len(joins) != size - 1:
                continue  # in a star, only title-rooted subsets are connected
            predicates = [p for p in query.predicates if p.alias in aliases]
            subplans.append(Query.create(subset, joins, predicates))
    return subplans


def mapping_with_overrides(mapping: dict, overrides: dict) -> dict:
    """``mapping`` with each section updated by ``overrides``."""
    merged = {key: dict(value) for key, value in mapping.items()}
    for section, fields in overrides.items():
        merged.setdefault(section, {}).update(fields)
    return merged


def read_requests(path: Path):
    """The request list ``prepare.py`` wrote, as Query objects.

    Returns ``(calls, labels)``: ``calls`` is a list of query lists (one
    list per call), ``labels`` maps each query to its true cardinality.
    """
    from repro.artifacts.bundle import query_from_mapping

    payload = json.loads(Path(path).read_text())
    queries = [query_from_mapping(mapping) for mapping in payload["queries"]]
    labels = dict(zip(queries, payload["cardinalities"]))
    calls = [[queries[index] for index in call] for call in payload["calls"]]
    return calls, labels
