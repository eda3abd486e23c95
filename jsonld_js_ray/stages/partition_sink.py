"""The KG path's one exchange: map tasks spill per group, one reduce task
per group (a two-phase file exchange).

It has three users, which all run it through ``pipelines/kg.exchange``
with G = ``exchange_groups`` groups:

- the flagship, ``run_kg_pipeline``: spills keyed by ``partition_id``
  (``partition_key``), reduced by ``write_partitions``;
- ``entity_summary`` (pipelines/kg.py): per-(subject, doc) quad counts,
  keyed by subject (``subject_key``);
- ``merge_entities`` (pipelines/entity_link.py): distinct node rows, keyed
  by subject too: a node is a (graph, subject), so all of its rows still
  meet in one group.

Map side: ``make_router`` returns the function that ends each map task
(one plain Ray task per read unit, pipelines/kg.py). It splits each
slice by group ``g = key % G`` and writes each group's rows as one spill
file (Arrow IPC) under ``<data_dir>/_spill/g=<g>/``, named by the map
task's read unit and slice (``part-<unit>-<slice>.arrow``). A spill is
written under a temporary name and then renamed, so a killed task attempt
leaves no torn spill, and a retried attempt replaces the spills of the
one that died rather than adding to them. Nothing is acked: the slice
loop never waits on anything but its own writes.

Reduce side: ``WriterPool.finalize`` runs one plain Ray task per group,
which reads all of the group's spills and hands them to the pool's
``reduce``. Every row of a key lands in one group, so the reduce sees
all of its rows. The flagship's reduce keeps, per (partition, quad), the
row least on ``dedup.WINNER_ORDER`` (``dedup.least_indices`` over the
whole group, exact at any job size), then writes each partition's
winners as one Parquet file under ``partition_id=<pid>/``. The spill
names keep the reduces exact under task retries: ``entity_summary``'s
``n_quads`` is a sum, so a slice spilled twice would count twice.

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

Fault story: a failed map or reduce task makes the call raise, so a job
never commits and its rerun recomputes everything
(state/checkpoint.py). After a failed map task the others are told to
stop and waited for before ``shutdown`` removes the spills
(pipelines/kg.py ``_map_all``).
"""

from __future__ import annotations

import os
import shutil
import uuid
from typing import Optional

import numpy as np
import pandas as pd
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


def _spill(group_dir: str, table: pa.Table, name: Optional[str]):
    path = os.path.join(group_dir, (name or uuid.uuid4().hex) + SPILL_SUFFIX)
    with pa.OSFile(path + ".tmp", "wb") as sink, \
            pa.ipc.new_file(sink, table.schema) as writer:
        writer.write_table(table)
    os.replace(path + ".tmp", path)


def write_partitions(window: pa.Table, data_dir: str, g: int) -> dict:
    """The flagship's reduce: write the least copy of each (partition,
    quad) among the rows of one group, one Parquet file per partition;
    return ``{pid: {n_quads, n_docs}}``."""
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


@ray.remote
def _reduce_group(reduce, g: int, group_dir: str, out_dir: str) -> dict:
    """``reduce(spills, out_dir, g)`` over the spills of group ``g``, read
    as one table; ``{}`` when the group has none."""
    spills = [pa.ipc.open_file(pa.memory_map(os.path.join(group_dir, n)))
              .read_all() for n in sorted(os.listdir(group_dir))
              if n.endswith(SPILL_SUFFIX)]
    if not spills:
        return {}
    return reduce(pa.concat_tables(spills), out_dir, g)


class WriterPool:
    """The exchange of one call writing under ``out_dir``: one spill
    directory per group, handed to ``make_router``, and one ``reduce``
    task per group at ``finalize``."""

    def __init__(self, out_dir: str, num_writers: int, dedup: bool = True,
                 reduce=write_partitions):
        # ``dedup`` is ignored (the reduce always dedups); it stays for
        # the call shape kgbench/tracing.py replays
        self.out_dir = out_dir
        self.reduce = reduce
        self.spill_root = os.path.join(out_dir, "_spill")
        self.groups = [os.path.join(self.spill_root, f"g={g}")
                       for g in range(num_writers)]
        for group_dir in self.groups:
            os.makedirs(group_dir, exist_ok=True)

    def handles(self) -> list:
        return list(self.groups)

    def finalize(self) -> dict:
        """Reduce every group; return the union of the reduces' dicts.
        Raises if a reduce fails. The spills are removed once read."""
        stats = ray.get([
            _reduce_group.remote(self.reduce, g, group_dir, self.out_dir)
            for g, group_dir in enumerate(self.groups)])
        self.shutdown()
        return {pid: entry for st in stats for pid, entry in st.items()}

    def shutdown(self):
        """Remove the spills, which a failed job leaves behind."""
        shutil.rmtree(self.spill_root, ignore_errors=True)


def partition_key(batch: pa.Table):
    """The flagship's routing: the output columns, keyed by partition."""
    return (batch.select(QUAD_SCHEMA.names),
            batch.column("partition_id").to_numpy(zero_copy_only=False))


def subject_key(batch: pa.Table):
    """The aggregates' routing: whole rows, keyed by a hash of
    ``subject``. ``pd.util.hash_array`` uses a fixed key (Python's
    ``hash`` is salted per process and would scatter a subject's rows
    over groups); ``categorize=False`` hashes each value in full, where
    its factorize step can give strings that differ only after a NUL
    one hash."""
    return batch, pd.util.hash_array(
        batch.column("subject").to_numpy(zero_copy_only=False),
        categorize=False)


def make_router(handles: list, num_writers: int, key=partition_key):
    """The map-side function: ``key(slice)`` gives the rows to spill and
    their keys, and each group present gets one spill of its rows, in
    its directory ``handles[g]``. The spill is called ``name`` (a map
    task's read unit and slice), so routing the same slice again replaces
    its spills; with no ``name``, each spill gets a random one."""

    def route(batch: pa.Table, name: Optional[str] = None) -> pa.Table:
        if batch.num_rows:
            table, keys = key(batch)
            groups = (keys % num_writers).astype(np.int64)
            for g, sub in _split(table, groups):
                _spill(handles[g], sub, name)
        return pa.table({"rows_routed": pa.array([batch.num_rows],
                                                 pa.int64())})

    return route
