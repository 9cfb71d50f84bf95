"""Write one run's serving inputs: a promoted artifact generation and a request list.

Run by ``run.py`` in its own process, before the measured one::

    PYTHONPATH=src python3 perfbench/prepare.py --workload pool-growth \\
        --seed 1 --seconds 10 --run-dir .perfbench/run --cache-dir .perfbench/cache/KEY

The trained CRN, the labelled pool and the two labelled query corpora
do not depend on the seed; they are built once into ``--cache-dir`` (named
by a hash of the program's and the benchmark's sources) and reused.  The
request list is drawn from a corpus with ``--seed`` on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def build_base(cache_dir: Path, database) -> None:
    """Train the CRN, label the pool and both corpora into ``cache_dir`` (once)."""
    from repro.artifacts import ArtifactStore
    from repro.core import CRNConfig, QueriesPool, QueryFeaturizer, TrainingConfig, train_crn
    from repro.datasets import build_queries_pool_queries, build_training_pairs
    from repro.db import TrueCardinalityOracle
    from repro.serving import ServingConfig

    staging = cache_dir.with_name(f"{cache_dir.name}.staging-{os.getpid()}")
    staging.mkdir()
    oracle = TrueCardinalityOracle(database)
    featurizer = QueryFeaturizer(database)
    trained = train_crn(
        featurizer,
        build_training_pairs(
            database, count=wl.TRAINING_PAIRS, seed=wl.TRAINING_PAIRS_SEED, oracle=oracle
        ),
        crn_config=CRNConfig(hidden_size=wl.HIDDEN_SIZE, seed=wl.MODEL_SEED),
        training_config=TrainingConfig(epochs=wl.TRAINING_EPOCHS, batch_size=64),
    )
    for corpus in wl.CORPUS_SEEDS:
        calls, labels = build_corpus(database, corpus, oracle)
        write_requests(staging / f"{corpus}.json", calls, labels)
    labelled = build_queries_pool_queries(
        database, count=wl.POOL_SIZE, seed=wl.POOL_SEED, oracle=oracle
    )[: wl.POOL_SIZE]
    pool = QueriesPool.from_labeled_queries(labelled)
    config = ServingConfig(model=trained.model, featurizer=featurizer, pool=pool)
    ArtifactStore(staging / "pool").save(
        model=trained.model,
        pool=pool,
        config_mapping=config.to_mapping(),
        generation=1,
        source="build",
        promote=True,
    )
    try:
        staging.rename(cache_dir)
    except OSError:
        # Another run built the same inputs first; its copy is identical.
        shutil.rmtree(staging)


def build_corpus(database, corpus: str, oracle):
    """A shuffled, labelled crd_test2-style corpus: one call per query.

    A ``bursts`` call is every connected sub-plan of the query; a
    ``singles`` call is the query itself.
    """
    from repro.datasets import WorkloadSpec, build_query_workload

    total = wl.corpus_size(corpus)
    joins = wl.MAX_JOINS + 1
    distribution = {j: total // joins + (1 if j < total % joins else 0) for j in range(joins)}
    seed = wl.CORPUS_SEEDS[corpus]
    generated = build_query_workload(
        database, WorkloadSpec(corpus, distribution, seed=seed), oracle=oracle
    ).queries
    order = np.random.default_rng(seed).permutation(len(generated))
    queries = [generated[index].query for index in order]
    if corpus == "bursts":
        calls = [wl.connected_subplans(query) for query in queries]
    else:
        calls = [[query] for query in queries]
    labels = {}
    for call in calls:
        for query in call:
            if query not in labels:
                labels[query] = oracle.cardinality(query)
    return calls, labels


def select_calls(calls, workload: wl.Workload, seed: int, seconds: int):
    """The run's call list: the workload's corpus prefix, in a seeded order."""
    fixed = calls[: workload.queries_per_second * wl.CORPUS_SECONDS]
    order = np.random.default_rng(seed).permutation(len(fixed))
    count = workload.queries_per_second * seconds
    return [fixed[order[index % len(fixed)]] for index in range(count)]


def write_requests(path: Path, calls, labels) -> None:
    from repro.artifacts.bundle import query_to_mapping

    unique = list(labels)
    position = {query: index for index, query in enumerate(unique)}
    payload = {
        "queries": [query_to_mapping(query) for query in unique],
        "cardinalities": [int(labels[query]) for query in unique],
        "calls": [[position[query] for query in call] for call in calls],
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))


def write_store(store_root: Path, base_store: Path, workload: wl.Workload) -> None:
    """Save the workload's deployment as generation 1 and promote it."""
    from repro.artifacts import ArtifactStore

    bundle = ArtifactStore(base_store).load()
    mapping = wl.mapping_with_overrides(bundle.config_mapping, workload.config)
    store = ArtifactStore(store_root)
    store.save(
        model=bundle.model,
        pool=bundle.pool,
        config_mapping=mapping,
        generation=1,
        source="build",
    )
    store.promote(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--cache-dir", type=Path, required=True)
    args = parser.parse_args()
    workload = wl.WORKLOADS[args.workload]
    database = wl.build_database()
    if not args.cache_dir.is_dir():
        args.cache_dir.parent.mkdir(parents=True, exist_ok=True)
        build_base(args.cache_dir, database)
    args.run_dir.mkdir(parents=True, exist_ok=True)
    calls, labels = wl.read_requests(args.cache_dir / f"{workload.corpus}.json")
    calls = select_calls(calls, workload, args.seed, args.seconds)
    labels = {query: labels[query] for call in calls for query in call}
    write_requests(args.run_dir / "requests.json", calls, labels)
    write_store(args.run_dir / "store", args.cache_dir / "pool", workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
