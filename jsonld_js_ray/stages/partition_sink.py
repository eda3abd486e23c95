"""Streaming partitioned sink: writer-actor hash exchange, the one KG sink.

Replaces the ``groupby(partition_id)`` sort barrier (an all-to-all whose
reduce phase did not scale on the target box) with a raw-actor pattern —
the Dataset API cannot express a sink whose shared mutable state (the
cross-flush dedup seen-set) must outlive any one batch: a small pool of
``PartitionWriter`` actors, each owning ``partition_id % W`` partitions.
The upstream fused map task groups every batch by owner and makes ONE
send per writer through the object store (zero-copy Arrow), so an
exchange costs at most W sends per batch, not one per partition present;
the writer splits what it receives by ``partition_id`` itself. Each task
``ray.get``s its send acks, which is the backpressure.

Each actor buffers whole sends. A flush concatenates its window, finds
one winner per (partition, quad) with ``dedup.least_indices`` (exact, on
the FULL quad columns: the least row on ``dedup.WINNER_ORDER``), and
takes the winners, ordered by ``partition_id``, in one copy. Across
flush windows a per-partition seen-set keyed on a 128-bit hash pair
gives near-exact first-write-wins dedup (collision odds negligible below
~10^15 quads; 64 bits alone would collide at ~5e9), so when a job spans
several flush windows, which copy's lineage a duplicate quad keeps still
depends on arrival order. Flushes write per-partition Parquet files plus
manifest counts at finalize.

Writers live for the Ray session, not for one job: ``WriterPool`` checks
out an idle set and resets it, so a job does not wait for writer
processes to start.

Why this pool, and not a Ray shuffle, is the one KG sink. The
alternative was a since-deleted sort-groupby dedup: a hash bucket per
quad, then ``groupby(bucket).map_groups(keep_least)``. Measured on a
1-CPU host with ``ray.init(num_cpus=4)``, Ray 2.49.2, single runs:

- Ray's hash-shuffle strategy (``DataContext.shuffle_strategy =
  HASH_SHUFFLE``) on that dedup at sf0.01 logged "Required: 16.0 CPUs for
  64 aggregators, but cluster only has 4.0 total CPUs" and "Required:
  33.00 GiB for 64 aggregators", then made no progress for ~10 minutes
  and was killed. At sf0.001 it logged the same and gave no rows in
  150 s. Its aggregator actors want CPUs and memory that the session
  does not have; the writers reserve no CPU.
- The pool's output, read back, equals that dedup's as sorted rows,
  lineage and dtypes included, at sf0.001/0.01/0.1 (2171/21501/214718
  rows), once the hive ``partition_id`` (a string) is cast to int32.
- At sf0.01 (second run) the sort-groupby dedup took 2.15 s, the pool
  1.05 s for the job plus 0.14 s to read the output back.

At this fan-out a one-level exchange is enough (Hyper Dimension Shuffle,
VLDB 2019), so ``kg_quads`` and ``entry()`` run this sink and read its
output back.

Fault story: a writer lost during a job, or a failed flush (a
background one too), makes ``finalize()`` raise, so the job never
commits and its rerun recomputes everything (state/checkpoint.py). The
failed job kills its other writers instead of returning them. A writer
lost between jobs is found dead at the next checkout, and its whole set
is replaced."""

from __future__ import annotations

import os
import threading
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .dedup import QUAD_COLS, least_indices


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


def _writer_class():
    import ray

    @ray.remote(num_cpus=0, max_restarts=0)
    class PartitionWriter:
        def __init__(self, writer_id: int, out_dir: str,
                     dedup: bool = True, flush_rows: int = 1_000_000):
            self.writer_id = writer_id
            self._flusher = None
            self._flush_error = None
            self.begin(out_dir, dedup, flush_rows)

        def begin(self, out_dir: str, dedup: bool, flush_rows: int):
            """Start a job: write under ``out_dir`` from a clean state."""
            self._join_flusher()
            self.out_dir = out_dir
            self.dedup = dedup
            self.flush_rows = flush_rows
            self._reset()

        def _reset(self):
            self.buffers: list[pa.Table] = []
            self.buffered_rows = 0
            self.flushed: dict[int, int] = {}   # pid -> rows written
            # pid -> sorted |S64 array of distinct content shas
            self.docs: dict[int, object] = {}
            # pid -> (sorted uint64 quad_hash, aligned quad_hash2)
            self.seen: dict[int, tuple] = {}
            self.file_idx = 0

        def add(self, table: pa.Table) -> int:
            # whole sends are buffered; the flush splits its window by
            # partition once
            self.buffers.append(table)
            self.buffered_rows += table.num_rows
            if self.buffered_rows >= self.flush_rows:
                # hand the full buffers to a background flusher so adds
                # (and their acks) keep streaming; arrow/parquet release
                # the GIL for most of the flush work.
                # (A largest-partition partial-flush variant measured
                # SLOWER in an interleaved A/B at 10M rows — more flush
                # cycles mean more flusher joins blocking the ack path.)
                self._join_flusher()
                snapshot, self.buffers = self.buffers, []
                self.buffered_rows = 0
                self._flusher = threading.Thread(
                    target=self._flush_in_background, args=(snapshot,),
                    daemon=True)
                self._flusher.start()
            return table.num_rows

        def _flush_in_background(self, buffers):
            try:
                self._flush_buffers(buffers)
            except Exception as exc:   # re-raised by _join_flusher
                self._flush_error = exc

        def _join_flusher(self):
            """Wait for the background flush; re-raise its error, so the
            job's next ``add`` or ``finalize`` fails."""
            if self._flusher is not None:
                self._flusher.join()
                self._flusher = None
            error, self._flush_error = self._flush_error, None
            if error is not None:
                raise error

        def _flush_buffers(self, buffers):
            if not buffers:
                return
            window = pa.concat_tables(buffers)
            winners = least_indices(window, QUAD_COLS + ["partition_id"]) \
                if self.dedup else None
            pids = window.column("partition_id").to_numpy(
                zero_copy_only=False)
            for pid, tbl in _split(window, pids, winners):
                if self.dedup:
                    tbl = self._drop_seen(pid, tbl)
                shas = np.unique(np.asarray(
                    tbl.column("content_sha256").to_numpy(
                        zero_copy_only=False), dtype="S64"))
                prev = self.docs.get(pid)
                self.docs[pid] = shas if prev is None \
                    else np.union1d(prev, shas)
                part_dir = os.path.join(self.out_dir,
                                        f"partition_id={pid}")
                os.makedirs(part_dir, exist_ok=True)
                out = tbl.drop_columns(["quad_hash", "quad_hash2",
                                        "partition_id"])
                path = os.path.join(
                    part_dir,
                    f"part-w{self.writer_id:03d}-{self.file_idx:05d}"
                    ".parquet")
                pq.write_table(out, path)
                self.file_idx += 1
                self.flushed[pid] = self.flushed.get(pid, 0) + tbl.num_rows

        def _drop_seen(self, pid: int, tbl: pa.Table) -> pa.Table:
            """Drop the rows of ``tbl`` whose quad an earlier flush window
            wrote to partition ``pid``, and add the rest to its seen-set."""
            h = tbl.column("quad_hash").to_numpy(zero_copy_only=False)
            # cross-flush seen set keys on the 128-bit (quad_hash,
            # quad_hash2) pair — 64 bits alone has ~50% birthday
            # collision odds at ~5e9 quads
            h2 = tbl.column("quad_hash2").to_numpy(zero_copy_only=False)
            # Seen set kept as SORTED numpy arrays: membership is one
            # vectorized searchsorted pass with a python check only on
            # 64-bit hits (a python tuple-set here cost ~40 s of finalize
            # at 21M quads).
            h = np.ascontiguousarray(h, dtype=np.uint64)
            h2 = np.ascontiguousarray(h2, dtype=np.uint64)
            seen = self.seen.get(pid)
            if seen is not None:
                sh, sh2 = seen
                lo = np.searchsorted(sh, h, side="left")
                hi = np.searchsorted(sh, h, side="right")
                cand = np.nonzero(hi > lo)[0]
                dup = np.zeros(len(h), dtype=bool)
                for i in cand:
                    if h2[i] in sh2[lo[i]:hi[i]]:
                        dup[i] = True
                if dup.any():
                    keep_mask = ~dup
                    tbl = tbl.filter(pa.array(keep_mask))
                    h, h2 = h[keep_mask], h2[keep_mask]
                merged_h = np.concatenate([sh, h])
                merged_h2 = np.concatenate([sh2, h2])
            else:
                merged_h, merged_h2 = h, h2
            order = np.lexsort((merged_h2, merged_h))
            self.seen[pid] = (merged_h[order], merged_h2[order])
            return tbl

        def finalize(self) -> dict:
            """Flush the job's rows and return its per-partition counts.
            The job's state is dropped after, so an idle writer holds no
            seen-set."""
            self._join_flusher()
            self._flush_buffers(self.buffers)
            stats = {
                "writer_id": self.writer_id,
                "partitions": {int(pid): {
                    "n_quads": int(n),
                    "n_docs": len(self.docs.get(pid, ())),
                } for pid, n in self.flushed.items()},
            }
            self._reset()
            return stats

    return PartitionWriter


# Idle writer sets of this process's Ray session, keyed by (node ID of
# this process, number of writers). Not the job ID: it restarts at 01000000
# when a process shuts Ray down and starts it again.
_IDLE: dict[tuple, list[list]] = {}
_IDLE_LOCK = threading.Lock()


class WriterPool:
    """``num_writers`` ``PartitionWriter`` actors checked out for one job.

    Writers live for the Ray session: a pool takes an idle set when there
    is one, resets it with ``begin``, and ``shutdown`` returns it after a
    successful ``finalize``. So only the session's first job waits for
    writer processes to start. Each pool pops its own set, so concurrent
    jobs never share writers. A set with a dead writer is killed and
    replaced by a new one.

    The writers reserve no CPU: an idle one holds none that other work in
    the session needs, and while one works on an ``add`` the map task
    that sent it waits on the ack and holds its own CPU."""

    def __init__(self, out_dir: str, num_writers: int,
                 dedup: bool = True, flush_rows: int = 1_000_000):
        import ray
        self.num_writers = num_writers
        self._key = (ray.get_runtime_context().get_node_id(), num_writers)
        self._finalized = False
        self.actors = self._checkout(out_dir, dedup, flush_rows)

    def _checkout(self, out_dir, dedup, flush_rows) -> list:
        import ray
        while True:
            with _IDLE_LOCK:
                for key in [k for k in _IDLE if k[0] != self._key[0]]:
                    del _IDLE[key]   # sets of an earlier Ray session
                idle = _IDLE.get(self._key)
                actors = idle.pop() if idle else None
            if actors is None:
                break
            try:
                ray.get([a.begin.remote(out_dir, dedup, flush_rows)
                         for a in actors])
                return actors
            except ray.exceptions.RayActorError:
                _kill(actors)
        # no ray.get here: new writers start up while the first map
        # tasks run
        cls = _writer_class()
        return [cls.remote(w, out_dir, dedup=dedup, flush_rows=flush_rows)
                for w in range(self.num_writers)]

    def handles(self):
        return list(self.actors)

    def finalize(self) -> dict:
        import ray
        stats = ray.get([a.finalize.remote() for a in self.actors])
        self._finalized = True
        merged: dict[int, dict] = {}
        for st in stats:
            for pid, entry in st["partitions"].items():
                cur = merged.setdefault(int(pid),
                                        {"n_quads": 0, "n_docs": 0})
                cur["n_quads"] += entry["n_quads"]
                cur["n_docs"] += entry["n_docs"]
        return merged

    def shutdown(self):
        """Return the writers to the session after a successful
        ``finalize``; otherwise kill them."""
        actors, self.actors = self.actors, []
        if not actors:
            return
        if self._finalized:
            with _IDLE_LOCK:
                _IDLE.setdefault(self._key, []).append(actors)
        else:
            _kill(actors)


def _kill(actors: list):
    import ray
    for a in actors:
        ray.kill(a)


def make_router(handles: list, num_writers: int):
    """A map_batches function that sends each batch's rows to their
    partitions' owner actors, one ``add`` per owner. Sends are acked
    before the task returns — that ack IS the streaming backpressure."""
    import ray

    def route(batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            owners = batch.column("partition_id").to_numpy(
                zero_copy_only=False) % num_writers
            ray.get([handles[w].add.remote(sub)
                     for w, sub in _split(batch, owners)])
        return pa.table({"rows_routed": pa.array([batch.num_rows],
                                                 pa.int64())})

    return route
