"""Partitioned sink: a two-phase file exchange, the one KG sink.

Map side: ``make_router`` returns the function that ends each map task
(one plain Ray task per read unit, pipelines/kg.py). It splits each
slice by group ``g = partition_id % G`` and writes each group's rows as
one spill file (Arrow IPC) under ``<data_dir>/_spill/g=<g>/``. A spill is
written under a temporary name and then renamed, so a killed task
attempt leaves no torn spill. Nothing is acked: the slice loop never
waits on anything but its own writes.

Reduce side: ``WriterPool.finalize`` runs one plain Ray task per group.
It reads all of the group's spills and keeps, per (partition, quad), the
row least on ``dedup.WINNER_ORDER`` (``dedup.least_indices`` over the
whole group, exact at any job size), then writes each partition's
winners as one Parquet file under ``partition_id=<pid>/``. Every row of a
partition lands in one group, so the reduce sees all of its copies. A
retried map task may leave a second copy of a spill; the exact dedup
drops it. Spill names are random for the same reason: a second copy is
harmless.

The spill directory's name starts with ``_``, so Ray's and pyarrow's
readers skip it, and ``finalize`` (or, after a failure, ``shutdown``)
removes it. A killed job's spills go with the start-of-job ``rmtree`` of
the data dir (pipelines/kg.py).

The names ``WriterPool``, ``handles`` and ``make_router`` are those of
the actor sink this replaced; kgbench/tracing.py replays the sink through
them.

Why a file exchange, and not a Ray shuffle. The alternative was a
since-deleted sort-groupby dedup: a hash bucket per quad, then
``groupby(bucket).map_groups(keep_least)``. Measured on a 1-CPU host
with ``ray.init(num_cpus=4)``, Ray 2.49.2, single runs:

- Ray's hash-shuffle strategy (``DataContext.shuffle_strategy =
  HASH_SHUFFLE``) on that dedup at sf0.01 logged "Required: 16.0 CPUs for
  64 aggregators, but cluster only has 4.0 total CPUs" and "Required:
  33.00 GiB for 64 aggregators", then made no progress for ~10 minutes
  and was killed. At sf0.001 it logged the same and gave no rows in
  150 s. Its aggregator actors want CPUs and memory that the session
  does not have.
- At sf0.01 (second run) the sort-groupby dedup took 2.15 s, the actor
  sink this exchange replaced 1.05 s for the job plus 0.14 s to read the
  output back.

At this fan-out a one-level exchange through persisted intermediates is
enough (Hyper Dimension Shuffle, VLDB 2019).

Fault story: a failed map or reduce task makes the job raise, so it
never commits and its rerun recomputes everything (state/checkpoint.py).
After a failed map task the others are told to stop and waited for
before ``shutdown`` removes the spills (pipelines/kg.py ``_map_all``).
"""

from __future__ import annotations

import os
import shutil
import uuid
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .dedup import QUAD_COLS, least_indices
from .expand_quads import QUAD_SCHEMA

SPILL_SUFFIX = ".arrow"


def _split(table: pa.Table, keys: np.ndarray,
           rows: Optional[np.ndarray] = None):
    """Yield ``(key, rows of table with that key)`` per distinct key,
    keeping row order within each key. ``rows`` (ascending indices;
    default all) keeps only those rows: the split is still one ``take``."""
    if rows is not None:
        keys = keys[rows]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_tbl = table.take(pa.array(order if rows is None
                                     else rows[order]))
    starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    ends = np.append(starts[1:], len(sorted_keys))
    for s, e in zip(starts, ends):
        yield int(sorted_keys[s]), sorted_tbl.slice(int(s), int(e - s))


def _spill(group_dir: str, table: pa.Table):
    path = os.path.join(group_dir, uuid.uuid4().hex + SPILL_SUFFIX)
    with pa.OSFile(path + ".tmp", "wb") as sink, \
            pa.ipc.new_file(sink, table.schema) as writer:
        writer.write_table(table)
    os.replace(path + ".tmp", path)


@ray.remote
def _reduce_group(group_dir: str, data_dir: str) -> dict:
    """Write the least copy of each (partition, quad) among the spills of
    ``group_dir``, one Parquet file per partition; return
    ``{pid: {n_quads, n_docs}}``."""
    spills = [pa.ipc.open_file(pa.memory_map(os.path.join(group_dir, n)))
              .read_all() for n in sorted(os.listdir(group_dir))
              if n.endswith(SPILL_SUFFIX)]
    if not spills:
        return {}
    window = pa.concat_tables(spills)
    winners = least_indices(window, QUAD_COLS + ["partition_id"])
    pids = window.column("partition_id").to_numpy(zero_copy_only=False)
    stats = {}
    for pid, tbl in _split(window, pids, winners):
        part_dir = os.path.join(data_dir, f"partition_id={pid}")
        os.makedirs(part_dir, exist_ok=True)
        pq.write_table(tbl.drop_columns(["partition_id"]),
                       os.path.join(part_dir, "part-0.parquet"))
        stats[pid] = {"n_quads": tbl.num_rows,
                      "n_docs": len(tbl.column("content_sha256").unique())}
    return stats


class WriterPool:
    """The exchange of one job writing partitions under ``out_dir``: one
    spill directory per group, handed to ``make_router``, and one reduce
    task per group at ``finalize``."""

    def __init__(self, out_dir: str, num_writers: int, dedup: bool = True):
        # ``dedup`` is ignored (the reduce always dedups); it stays for
        # the call shape kgbench/tracing.py replays
        self.out_dir = out_dir
        self.spill_root = os.path.join(out_dir, "_spill")
        self.groups = [os.path.join(self.spill_root, f"g={g}")
                       for g in range(num_writers)]
        for group_dir in self.groups:
            os.makedirs(group_dir, exist_ok=True)

    def handles(self) -> list:
        return list(self.groups)

    def finalize(self) -> dict:
        """Reduce every group; return the per-partition counts. Raises if
        a reduce fails. The spills are removed once read."""
        stats = ray.get([_reduce_group.remote(g, self.out_dir)
                         for g in self.groups])
        self.shutdown()
        return {pid: entry for st in stats for pid, entry in st.items()}

    def shutdown(self):
        """Remove the spills, which a failed job leaves behind."""
        shutil.rmtree(self.spill_root, ignore_errors=True)


def make_router(handles: list, num_writers: int):
    """The map-side function: writes each slice's rows as one spill per
    group present, in the group's directory ``handles[g]``. Only the
    output columns are spilled."""

    def route(batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            groups = batch.column("partition_id").to_numpy(
                zero_copy_only=False) % num_writers
            for g, sub in _split(batch.select(QUAD_SCHEMA.names), groups):
                _spill(handles[g], sub)
        return pa.table({"rows_routed": pa.array([batch.num_rows],
                                                 pa.int64())})

    return route
