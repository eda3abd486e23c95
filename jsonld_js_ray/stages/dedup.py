"""Quad-level exact dedup: the winner rule, and the quad hash.

The KG pipeline dedups in two places (SURVEY.md §2.7/§7.3), and both
apply ``least_indices``, the one implementation of the winner rule:
  1. partial dedup inside each batch — vectorized, removes the bulk of
     duplicates before any data moves (map-side combiner,
     ``partial_dedup_batch``);
  2. the reduce task of each exchange group, over all of the group's
     spills at once (stages/partition_sink.py).

``WINNER_ORDER`` is a total order on the rows of one quad: copies of one
file at different commits or forks tie on ``(content_sha256, path)``, and
``repo`` and ``commit`` break the tie. The reduce sees every copy of a
(partition, quad), so the winner's lineage depends on neither batch
size, arrival order nor job size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

QUAD_COLS = ["subject", "predicate", "object_kind", "object_value",
             "datatype", "language", "graph"]

# among duplicate quads, the least row on these columns wins
WINNER_ORDER = ["content_sha256", "path", "repo", "commit"]


def least_indices(table: pa.Table, keys: list[str]) -> np.ndarray:
    """Ascending row indices of ``keep_least``'s winners, for a caller
    that reorders them before its one ``take``."""
    order = pc.sort_indices(
        table, [(c, "ascending") for c in WINNER_ORDER]).to_numpy()
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    least = (table.select(keys).append_column("_rank", pa.array(rank))
             .group_by(keys, use_threads=False)
             .aggregate([("_rank", "min")]))
    return np.sort(order[least["_rank_min"].to_numpy()])


def keep_least(table: pa.Table, keys: list[str]) -> pa.Table:
    """Per distinct value of ``keys``, the row least on ``WINNER_ORDER``
    (input order breaks ties), with the winners in input order. Exact:
    Arrow groups on the key values, not on a hash, and null keys compare
    equal."""
    return table.take(least_indices(table, keys))


def partial_dedup_batch(batch: pa.Table) -> pa.Table:
    """Map-side combiner: drop duplicate quads within one batch and one
    partition — the scope the partition sink dedups on. A quad that
    several partitions share stays once in each of them, whatever the
    batch size."""
    return keep_least(batch, QUAD_COLS + ["partition_id"])


def add_quad_hash(batch: pa.Table, _unused=None) -> pa.Table:
    """Vectorized hash of the quad tuple: two independent 64-bit mixes,
    ``quad_hash`` and ``quad_hash2``. Hashes column-by-column and mixes —
    2.6x faster than materializing a concatenated key string per row.

    The KG pipeline does not call it: only kgbench/tracing.py's replay
    does, as ``add_quad_hash(t, None)``, and the router drops both
    columns. ``_unused`` is the retired shuffle-bucket count that call
    still passes."""
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
    return batch.append_column("quad_hash2", pa.array(acc2, pa.uint64()))
