"""Checks made apart from the program: true cardinalities and Cnt2Crd estimates.

Nothing here calls the program's executor, featurizer, model or estimator.
The counter reads the raw column arrays of the database; the estimator reads
the bundle's ``model.npz``, ``pool.json`` and ``config.json`` files and runs
its own NumPy forward pass of the CRN.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_OPERATORS = {"<": np.less, "=": np.equal, ">": np.greater}


def query_record(query):
    """A query as plain tuples, in the query's own clause order."""
    return (
        tuple((table.name, table.alias) for table in query.tables),
        tuple(
            (join.left_alias, join.left_column, join.right_alias, join.right_column)
            for join in query.joins
        ),
        tuple(
            (p.alias, p.column, p.operator.value, float(p.value)) for p in query.predicates
        ),
    )


def _record_from_mapping(mapping) -> tuple:
    return (
        tuple(tuple(pair) for pair in mapping["tables"]),
        tuple(tuple(join) for join in mapping["joins"]),
        tuple((a, c, op, float(v)) for a, c, op, v in mapping["predicates"]),
    )


class StarJoinCounter:
    """Exact result sizes of star joins on the movie key, from raw columns.

    Every join of the benchmark's queries equates ``title.id`` or some
    ``<fact>.movie_id`` with another such key, so the result size is
    ``sum over movies m of prod over tables T of |rows of T with key m that
    pass T's predicates|``.  One ``bincount`` per table gives the factors.
    """

    def __init__(self, database) -> None:
        self._database = database
        self._keys = {}
        for schema in database.schema.tables:
            column = "id" if schema.name == "title" else "movie_id"
            self._keys[schema.name] = column
        self._movies = int(database.table("title").column("id").max()) + 1

    def count(self, query) -> int:
        tables, joins, predicates = query_record(query)
        alias_table = dict((alias, name) for name, alias in tables)
        for left_alias, left_column, right_alias, right_column in joins:
            if (
                left_column != self._keys[alias_table[left_alias]]
                or right_column != self._keys[alias_table[right_alias]]
            ):
                raise ValueError(f"join {left_alias}.{left_column} is not on the movie key")
        if len(joins) != len(tables) - 1:
            raise ValueError("the counter handles tree-shaped star joins only")
        product = None
        for name, alias in tables:
            table = self._database.table(name)
            mask = np.ones(table.num_rows, dtype=bool)
            for pred_alias, column, operator, value in predicates:
                if pred_alias == alias:
                    mask &= _OPERATORS[operator](table.column(column), value)
            if len(tables) == 1:
                return int(mask.sum())
            keys = table.column(self._keys[name])[mask]
            counts = np.bincount(keys, minlength=self._movies).astype(np.int64)
            product = counts if product is None else product * counts
        if product.min() < 0:
            raise OverflowError("star-join count overflowed int64")
        return int(product.sum())


class ReferenceEstimator:
    """Cnt2Crd(CRN) recomputed from a bundle's files (paper Sections 3.2 and 5).

    Featurization follows the paper's Table 1 layout: one vector per table,
    join and predicate; one-hot table, join-left column, join-right column,
    predicate column and operator segments, then the predicate value
    min-max normalized over the column.  The CRN encodes each set with
    ``relu(V W + b)`` and masked average pooling, expands the two encodings
    to ``[a, b, |a - b|, a * b]``, and applies ``MLPout`` with a sigmoid.
    The estimate is the median of ``x_rate / y_rate * |Qold|`` over the
    same-FROM pool entries with a non-empty result and ``y_rate > epsilon``,
    or 0 when none is left.
    """

    def __init__(self, bundle_dir: Path, database) -> None:
        bundle_dir = Path(bundle_dir)
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        architecture = manifest["model"]
        if architecture["pooling"] != "average" or not architecture["use_expand"]:
            raise ValueError(f"unexpected CRN architecture {architecture}")
        with np.load(bundle_dir / "model.npz") as archive:
            self._weights = {
                name: np.asarray(archive[name], dtype=np.float64)
                for name in archive.files
                if not name.startswith("__")
            }
        config = json.loads((bundle_dir / "config.json").read_text())
        self.epsilon = float(config["estimator"]["epsilon"])
        inference = config["inference"]
        self.float32 = inference["mode"] == "compiled" and inference["slab_dtype"] == "float32"
        self.tolerance = float(inference["tolerance"])
        pool = json.loads((bundle_dir / "pool.json").read_text())
        # Keyed by the query record: a repeated add replaces the cardinality.
        self._pool: dict[tuple, dict[tuple, int]] = {}
        for entry in pool["entries"]:
            self.add(_record_from_mapping(entry["query"]), int(entry["cardinality"]))
        schema = database.schema
        self._table_index = {table.alias: i for i, table in enumerate(schema.tables)}
        columns = [
            f"{table.alias}.{column.name}" for table in schema.tables for column in table.columns
        ]
        self._column_index = {name: i for i, name in enumerate(columns)}
        self._ranges = {}
        for table in schema.tables:
            data = database.table(table.name)
            for column in table.columns:
                values = data.column(column.name)
                self._ranges[f"{table.alias}.{column.name}"] = (
                    float(values.min()), float(values.max())
                )
        self._width = len(self._table_index) + 3 * len(columns) + len(_OPERATORS) + 1
        self._encodings: dict[tuple, np.ndarray] = {}

    def add(self, record: tuple, cardinality: int) -> None:
        """Add (or update) one pool entry, as ``QueriesPool.add`` would."""
        self._pool.setdefault(record[0], {})[record] = cardinality

    def _vectors(self, record: tuple) -> np.ndarray:
        tables, joins, predicates = record
        tables_n = len(self._table_index)
        columns_n = len(self._column_index)
        rows = np.zeros((len(tables) + len(joins) + len(predicates), self._width))
        row = 0
        for _, alias in tables:
            rows[row, self._table_index[alias]] = 1.0
            row += 1
        for left_alias, left_column, right_alias, right_column in joins:
            rows[row, tables_n + self._column_index[f"{left_alias}.{left_column}"]] = 1.0
            rows[row, tables_n + columns_n + self._column_index[f"{right_alias}.{right_column}"]] = 1.0
            row += 1
        operators = list(_OPERATORS)
        for alias, column, operator, value in predicates:
            name = f"{alias}.{column}"
            low, high = self._ranges[name]
            rows[row, tables_n + 2 * columns_n + self._column_index[name]] = 1.0
            rows[row, tables_n + 3 * columns_n + operators.index(operator)] = 1.0
            rows[row, -1] = 0.5 if high == low else min(max((value - low) / (high - low), 0.0), 1.0)
            row += 1
        return rows

    def _encode(self, record: tuple) -> np.ndarray:
        """Both set encodings of one query, stacked as a (2, H) array."""
        cached = self._encodings.get(record)
        if cached is None:
            vectors = self._vectors(record)
            w = self._weights
            cached = np.stack(
                [
                    np.maximum(vectors @ w[f"set_encoder{k}.weight"] + w[f"set_encoder{k}.bias"], 0.0).mean(axis=0)
                    for k in (1, 2)
                ]
            )
            self._encodings[record] = cached
        return cached

    def _rates(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        w = self._weights
        expanded = np.concatenate([first, second, np.abs(first - second), first * second], axis=1)
        hidden = np.maximum(expanded @ w["out_hidden.weight"] + w["out_hidden.bias"], 0.0)
        logits = (hidden @ w["out_final.weight"] + w["out_final.bias"])[:, 0]
        return 1.0 / (1.0 + np.exp(-logits))

    def estimate(self, query) -> float:
        record = query_record(query)
        bucket = [
            (old, cardinality)
            for old, cardinality in self._pool.get(record[0], {}).items()
            if cardinality > 0
        ]
        if not bucket:
            return 0.0
        new = self._encode(record)
        old = np.stack([self._encode(entry) for entry, _ in bucket])
        count = len(bucket)
        # x_rate = Qold contained in Qnew; y_rate = Qnew contained in Qold.
        x_rates = self._rates(old[:, 0], np.repeat(new[1:2], count, axis=0))
        y_rates = self._rates(np.repeat(new[0:1], count, axis=0), old[:, 1])
        cardinalities = np.array([c for _, c in bucket], dtype=np.float64)
        keep = y_rates > self.epsilon
        values = x_rates[keep] / y_rates[keep] * cardinalities[keep]
        return float(np.median(values)) if values.size else 0.0

    def agrees(self, served: float, expected: float) -> bool:
        """Float32 serving within the plan's q-error tolerance; float64 to rounding."""
        if served == expected:
            return True
        if served <= 0.0 or expected <= 0.0:
            return False
        ratio = max(served, expected) / min(served, expected)
        return ratio <= 1.0 + (self.tolerance if self.float32 else 1e-9)
