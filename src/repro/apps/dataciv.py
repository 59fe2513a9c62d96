"""Data Civilizer's polystore workload: TPC-H Q5 across three stores.

The paper's Figure 2(d) experiment: LINEITEM and ORDERS live on HDFS,
CUSTOMER/SUPPLIER/REGION in Postgres, NATION on the local file system.
Rheem runs the join/groupby/orderby pipeline across the stores directly;
the "common practice" baselines either bulk-load everything into Postgres
first or dump everything to HDFS and use Spark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.batch import RecordBatch, pair_sum_reduce
from ..core.context import DataQuanta, RheemContext
from ..core.executor import ExecutionResult
from ..workloads.tpch import (
    ROW_BYTES,
    SF1_ROWS,
    TpchLite,
    parse_batch,
    parse_row,
)

#: Bandwidths used to charge the baselines' data migration (match the
#: conversion operators registered by the platforms).
PG_LOAD_MB_PER_S = 12.0
PG_EXPORT_MB_PER_S = 40.0
HDFS_WRITE_MB_PER_S = 1000.0


def _table_mb(table: str, sf: float) -> float:
    return SF1_ROWS[table] * sf * ROW_BYTES[table] / 1e6


SourceFactory = Callable[[RheemContext, str], DataQuanta]


def _pg_source(ctx: RheemContext, table: str) -> DataQuanta:
    return ctx.read_table(table)


def _hdfs_source(ctx: RheemContext, table: str) -> DataQuanta:
    return (ctx.read_text_file(f"hdfs://tpch/{table}.csv")
            .map(lambda line, __t=table: parse_row(__t, line),
                 name=f"parse-{table}", bytes_per_record=ROW_BYTES[table],
                 batch_udf=lambda b, __t=table: parse_batch(__t, b)))


def _local_source(ctx: RheemContext, table: str) -> DataQuanta:
    return (ctx.read_text_file(f"file://tpch/{table}.csv")
            .map(lambda line, __t=table: parse_row(__t, line),
                 name=f"parse-{table}", bytes_per_record=ROW_BYTES[table],
                 batch_udf=lambda b, __t=table: parse_batch(__t, b)))


#: Table -> source factory, per placement scenario.
PLACEMENTS: dict[str, dict[str, SourceFactory]] = {
    "polystore": {
        "lineitem": _hdfs_source, "orders": _hdfs_source,
        "nation": _local_source,
        "customer": _pg_source, "supplier": _pg_source, "region": _pg_source,
    },
    "all_pgres": {t: _pg_source for t in SF1_ROWS},
    "all_hdfs": {t: _hdfs_source for t in SF1_ROWS},
}


def q5_quanta(ctx: RheemContext, sf: float,
              placement: str = "polystore",
              sources: dict[str, SourceFactory] | None = None) -> DataQuanta:
    """Build TPC-H Q5 (revenue per nation, region ASIA, one order year).

    ``sources`` overrides the placement's table -> source factories (the
    throughput bench injects in-memory collection sources this way).
    """
    if sources is None:
        try:
            sources = PLACEMENTS[placement]
        except KeyError:
            raise ValueError(f"unknown placement {placement!r}; "
                             f"choose from {sorted(PLACEMENTS)}") from None

    def src(table: str) -> DataQuanta:
        return sources[table](ctx, table)

    n_customer = SF1_ROWS["customer"] * sf
    n_orders = SF1_ROWS["orders"] * sf
    n_supplier = SF1_ROWS["supplier"] * sf

    # Every step also declares its columnar twin (``batch_udf`` /
    # ``*_key_column`` / ``batch_impl`` / ``batch_key``): record-wise
    # equivalent kernels the engines run instead of the row UDFs.  Plans,
    # results and simulated runtimes equal those of the undeclared plan.
    region_asia = src("region").filter_range("name", "ASIA", "ASIA",
                                             selectivity=0.2)
    nation_asia = (src("nation")
                   .join(region_asia, lambda n: n["regionkey"],
                         lambda r: r["regionkey"], selectivity=0.2,
                         left_key_column="regionkey",
                         right_key_column="regionkey")
                   .map(lambda p: {"nationkey": p[0]["nationkey"],
                                   "nname": p[0]["name"]},
                        name="nation-cols", bytes_per_record=40,
                        batch_udf=lambda b: RecordBatch.from_columns(
                            ("nationkey", "nname"),
                            (b.left.col("nationkey"), b.left.col("name")))))
    cust_asia = (src("customer")
                 .join(nation_asia, lambda c: c["nationkey"],
                       lambda n: n["nationkey"], selectivity=1.0 / 25,
                       left_key_column="nationkey",
                       right_key_column="nationkey")
                 .map(lambda p: {"custkey": p[0]["custkey"],
                                 "cnationkey": p[0]["nationkey"],
                                 "nname": p[1]["nname"]},
                      name="cust-cols", bytes_per_record=48,
                      batch_udf=lambda b: RecordBatch.from_columns(
                          ("custkey", "cnationkey", "nname"),
                          (b.left.col("custkey"), b.left.col("nationkey"),
                           b.right.col("nname")))))
    orders_window = src("orders").filter_range(
        "orderyear", 1994, 1994, selectivity=1.0 / 3)
    orders_asia = (orders_window
                   .join(cust_asia, lambda o: o["custkey"],
                         lambda c: c["custkey"],
                         selectivity=1.0 / n_customer,
                         left_key_column="custkey",
                         right_key_column="custkey")
                   .map(lambda p: {"orderkey": p[0]["orderkey"],
                                   "cnationkey": p[1]["cnationkey"],
                                   "nname": p[1]["nname"]},
                        name="order-cols", bytes_per_record=48,
                        batch_udf=lambda b: RecordBatch.from_columns(
                            ("orderkey", "cnationkey", "nname"),
                            (b.left.col("orderkey"), b.right.col("cnationkey"),
                             b.right.col("nname")))))
    line_asia = (src("lineitem")
                 .join(orders_asia, lambda l: l["orderkey"],
                       lambda o: o["orderkey"], selectivity=1.0 / n_orders,
                       left_key_column="orderkey",
                       right_key_column="orderkey")
                 .map(lambda p: {"suppkey": p[0]["suppkey"],
                                 "revenue": p[0]["extendedprice"]
                                 * (1.0 - p[0]["discount"]),
                                 "cnationkey": p[1]["cnationkey"],
                                 "nname": p[1]["nname"]},
                      name="line-cols", bytes_per_record=56,
                      batch_udf=lambda b: RecordBatch.from_columns(
                          ("suppkey", "revenue", "cnationkey", "nname"),
                          (b.left.col("suppkey"),
                           np.asarray(b.left.col("extendedprice"))
                           * (1.0 - np.asarray(b.left.col("discount"))),
                           b.right.col("cnationkey"),
                           b.right.col("nname")))))
    with_supp = (line_asia
                 .join(src("supplier"), lambda l: l["suppkey"],
                       lambda s: s["suppkey"], selectivity=1.0 / n_supplier,
                       left_key_column="suppkey",
                       right_key_column="suppkey")
                 .filter(lambda p: p[0]["cnationkey"] == p[1]["nationkey"],
                         name="same-nation",
                         batch_udf=lambda b:
                         np.asarray(b.left.col("cnationkey"))
                         == np.asarray(b.right.col("nationkey")))
                 .map(lambda p: (p[0]["nname"], p[0]["revenue"]),
                      name="rev-pair", bytes_per_record=32,
                      batch_udf=lambda b: RecordBatch.from_tuple_columns(
                          (b.left.col("nname"), b.left.col("revenue")))))
    revenue = with_supp.reduce_by_key(lambda t: t[0],
                                      lambda a, b: (a[0], a[1] + b[1]),
                                      batch_impl=pair_sum_reduce(0, 1))
    return revenue.sort(key=lambda t: -t[1],
                        batch_key=lambda b: -np.asarray(b.col(1)))


@dataclass
class Q5Outcome:
    """Runtime (including any migration charge) + query answer."""

    runtime: float
    migration_s: float
    result: list
    raw: ExecutionResult


def run_polystore(ctx: RheemContext, sf: float, **kw) -> Q5Outcome:
    """Rheem over the three stores, no manual migration."""
    TpchLite(sf).place_for_q5(ctx)
    res = q5_quanta(ctx, sf, "polystore").execute(**kw)
    return Q5Outcome(res.runtime, 0.0, res.output, res)


def run_all_into_pgres(ctx: RheemContext, sf: float) -> Q5Outcome:
    """Common practice 1: bulk-load the lake into Postgres, query inside."""
    TpchLite(sf).place_all_in_pgres(ctx)
    migration = sum(_table_mb(t, sf) for t in ("lineitem", "orders", "nation")
                    ) / PG_LOAD_MB_PER_S
    res = q5_quanta(ctx, sf, "all_pgres").execute(
        allowed_platforms={"pgres", "driver"})
    return Q5Outcome(res.runtime + migration, migration, res.output, res)


def find_similar_columns(
    ctx: RheemContext,
    columns: dict[str, DataQuanta],
    threshold: float = 0.5,
    num_hashes: int = 64,
    seed: int = 7,
) -> list[tuple[str, str, float]]:
    """Data discovery: columns (wherever they live) with similar value sets.

    Each column's MinHash signature is computed IN PLACE as a map+reduce
    over its values — one multi-sink Rheem plan covers every column, and the
    optimizer decides per column whether to hash inside the relational
    store, on a distributed engine, or in process.  Signatures are then
    compared pairwise on the driver.

    Args:
        columns: Column label -> DataQuanta of that column's values.
        threshold: Minimum estimated Jaccard similarity to report.

    Returns:
        ``(label_a, label_b, similarity)`` triples, most similar first.
    """
    from ..algorithms.minhash import (
        hash_family,
        jaccard_estimate,
        merge_signatures,
        value_hashes,
    )
    from ..core.operators import CollectionSink
    from ..core.plan import RheemPlan

    family = hash_family(num_hashes, seed)
    labels = sorted(columns)
    sinks = []
    for label in labels:
        quanta = (columns[label]
                  .map(lambda v, __f=family: value_hashes(v, __f),
                       name=f"hash[{label}]", bytes_per_record=8.0 * num_hashes)
                  .reduce(merge_signatures))
        sink = CollectionSink(name=f"signature[{label}]")
        sink.connect(0, quanta.op)
        sinks.append(sink)
    result = ctx.execute(RheemPlan(sinks))
    signatures = {label: output[0] if output else ()
                  for label, output in zip(labels, result.outputs)}
    pairs = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if signatures[a] and signatures[b]:
                score = jaccard_estimate(signatures[a], signatures[b])
                if score >= threshold:
                    pairs.append((a, b, score))
    return sorted(pairs, key=lambda t: -t[2])


def run_all_on_spark(ctx: RheemContext, sf: float) -> Q5Outcome:
    """Common practice 2: dump everything to HDFS, run Spark over it."""
    TpchLite(sf).place_all_on_hdfs(ctx)
    pg_mb = sum(_table_mb(t, sf) for t in ("customer", "supplier", "region"))
    migration = pg_mb / PG_EXPORT_MB_PER_S + pg_mb / HDFS_WRITE_MB_PER_S
    res = q5_quanta(ctx, sf, "all_hdfs").execute(
        allowed_platforms={"sparklite", "driver"})
    return Q5Outcome(res.runtime + migration, migration, res.output, res)
