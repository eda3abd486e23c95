"""Quad-level exact dedup: map-side combine + hash-bucketed shuffle.

The pattern (SURVEY.md §2.7/§7.3):
  1. partial dedup inside each batch — vectorized, removes the bulk of
     duplicates before any data moves (map-side combiner);
  2. add a 64-bit quad-hash column and a coarse ``bucket = hash % B``
     shuffle key — B is small (≈ partitions), so each group is a healthy
     block, NOT one group per distinct quad (row-granular map_groups
     would be a per-row Python call — the anti-pattern);
  3. ``groupby(bucket)`` shuffle + vectorized ``drop_duplicates`` per
     bucket with a deterministic winner (min content_sha256, then path),
     so output is identical at any parallelism level.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

QUAD_COLS = ["subject", "predicate", "object_kind", "object_value",
             "datatype", "language", "graph"]

DEFAULT_BUCKETS = 64


def _dedup_df(df: pd.DataFrame, subset=QUAD_COLS) -> pd.DataFrame:
    df = df.sort_values(["content_sha256", "path"], kind="stable")
    return df.drop_duplicates(subset=subset, keep="first")


def partial_dedup_batch(batch: pa.Table) -> pa.Table:
    """Map-side combiner: drop duplicate quads within one batch and one
    partition — the scope the partition sink dedups on. A quad that
    several partitions share stays once in each of them, whatever the
    batch size."""
    df = _dedup_df(batch.to_pandas(), QUAD_COLS + ["partition_id"])
    return pa.Table.from_pandas(df, preserve_index=False,
                                schema=batch.schema)


def add_quad_hash(batch: pa.Table,
                  num_buckets: int | None = DEFAULT_BUCKETS) -> pa.Table:
    """Vectorized hash of the quad tuple (+ optional coarse shuffle
    bucket). Hashes column-by-column and mixes — 2.6x faster than
    materializing a concatenated key string per row.

    Emits TWO independent 64-bit mixes (``quad_hash``, ``quad_hash2``)
    so hash-keyed dedup state (the streaming sink's cross-flush seen
    set) can key on the 128-bit pair: 64-bit birthday collisions are
    ~50% at ~5e9 quads — real at design scale — while 128 bits are
    negligible past 10^15."""
    import numpy as np
    df = batch.select(QUAD_COLS).to_pandas()
    acc = np.zeros(len(df), dtype=np.uint64)
    acc2 = np.full(len(df), 0x6A09E667F3BCC908, dtype=np.uint64)
    mult = np.uint64(0x9E3779B97F4A7C15)
    mult2 = np.uint64(0xC2B2AE3D27D4EB4F)
    for c in QUAD_COLS:
        col = df[c]
        if col.dtype == object:
            hc = pd.util.hash_array(
                col.fillna("\x01").to_numpy(dtype=object))
        else:
            hc = pd.util.hash_array(col.to_numpy())
        hc = hc.astype(np.uint64)
        acc = (acc * mult) ^ hc
        acc2 = (acc2 * mult2) ^ (hc * mult)
    batch = batch.append_column("quad_hash", pa.array(acc, pa.uint64()))
    batch = batch.append_column("quad_hash2", pa.array(acc2, pa.uint64()))
    if num_buckets is None:
        return batch
    return batch.append_column(
        "dedup_bucket", pa.array((acc % num_buckets).astype("int32"),
                                 pa.int32()))


def _dedup_bucket(group: pd.DataFrame) -> pd.DataFrame:
    return _dedup_df(group)


def dedup_quads(ds, num_buckets: int = DEFAULT_BUCKETS):
    """Dataset-level exact dedup (global, streaming shuffle)."""
    ds = ds.map_batches(partial_dedup_batch, batch_format="pyarrow")
    ds = ds.map_batches(lambda b: add_quad_hash(b, num_buckets),
                        batch_format="pyarrow")
    ds = ds.groupby("dedup_bucket").map_groups(_dedup_bucket,
                                               batch_format="pandas")
    return ds.drop_columns(["quad_hash", "quad_hash2", "dedup_bucket"])

