"""Streaming partitioned sink: writer-actor hash exchange.

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

Each actor holds the mutable per-partition dedup state — within one
flush window winners are selected on the FULL quad columns (exact);
across flush windows a seen-set keyed on a 128-bit hash pair gives
near-exact first-write-wins dedup (collision odds negligible below
~10^15 quads; 64 bits alone would collide at ~5e9). Flushes write
per-partition Parquet files plus manifest counts at finalize.

Fault story: a lost writer loses only its partitions; they are absent
from the manifest, so a resumed run recomputes exactly those
(state/checkpoint.py)."""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .dedup import QUAD_COLS


def _split(table: pa.Table, keys: np.ndarray):
    """Yield ``(key, rows of table with that key)`` per distinct key,
    keeping row order within each key."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_tbl = table.take(pa.array(order))
    starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    ends = np.append(starts[1:], len(sorted_keys))
    for s, e in zip(starts, ends):
        yield int(sorted_keys[s]), sorted_tbl.slice(int(s), int(e - s))


def _writer_class():
    import ray

    @ray.remote(num_cpus=0.5, max_restarts=0)
    class PartitionWriter:
        def __init__(self, out_dir: str, writer_id: int,
                     dedup: bool = True, flush_rows: int = 1_000_000):
            self.out_dir = out_dir
            self.writer_id = writer_id
            self.dedup = dedup
            self.flush_rows = flush_rows
            self.buffers: dict[int, list[pa.Table]] = {}
            self.buffered_rows = 0
            self.flushed: dict[int, int] = {}   # pid -> rows written
            # pid -> sorted |S64 array of distinct content shas
            self.docs: dict[int, object] = {}
            # pid -> (sorted uint64 quad_hash, aligned quad_hash2)
            self.seen: dict[int, tuple] = {}
            self.file_idx = 0

        def add(self, table: pa.Table) -> int:
            pids = table.column("partition_id").to_numpy(
                zero_copy_only=False)
            for pid, sub in _split(table, pids):
                self.buffers.setdefault(pid, []).append(sub)
            self.buffered_rows += table.num_rows
            if self.buffered_rows >= self.flush_rows:
                # hand the full buffers to a background flusher so adds
                # (and their acks) keep streaming; pandas/arrow/parquet
                # release the GIL for most of the flush work.
                # (A largest-partition partial-flush variant measured
                # SLOWER in an interleaved A/B at 10M rows — more flush
                # cycles mean more flusher joins blocking the ack path.)
                self._join_flusher()
                snapshot, self.buffers = self.buffers, {}
                self.buffered_rows = 0
                import threading
                self._flusher = threading.Thread(
                    target=self._flush_buffers, args=(snapshot,),
                    daemon=True)
                self._flusher.start()
            return table.num_rows

        def _join_flusher(self):
            fl = getattr(self, "_flusher", None)
            if fl is not None:
                fl.join()
                self._flusher = None

        def _flush(self):
            snapshot, self.buffers = self.buffers, {}
            self.buffered_rows = 0
            self._flush_buffers(snapshot)

        def _flush_buffers(self, buffers):
            for pid, tables in list(buffers.items()):
                if not tables:
                    continue
                tbl = pa.concat_tables(tables)
                if self.dedup and "quad_hash" in tbl.column_names:
                    h = tbl.column("quad_hash").to_numpy(
                        zero_copy_only=False)
                    uniq, first_idx, counts = np.unique(
                        h, return_index=True, return_counts=True)
                    if (counts > 1).any():
                        # deterministic winner ONLY for the (rare)
                        # duplicated hashes: min (content_sha256, path);
                        # unique hashes keep their single row untouched —
                        # avoids sorting the whole partition. Winner
                        # selection keys on the FULL quad columns, so a
                        # 64-bit collision between distinct quads keeps
                        # both rows instead of silently merging them.
                        dup_hashes = uniq[counts > 1]
                        dup_mask = np.isin(h, dup_hashes)
                        sub = tbl.filter(pa.array(dup_mask)).to_pandas()
                        sub["_orig"] = np.flatnonzero(dup_mask)
                        sub = sub.sort_values(
                            ["content_sha256", "path"], kind="stable")
                        winners = (sub.drop_duplicates(
                            subset=QUAD_COLS, keep="first")["_orig"]
                            .to_numpy())
                        keep = np.concatenate(
                            [first_idx[counts == 1], winners])
                        keep.sort()
                        tbl = tbl.take(pa.array(keep))
                        h = tbl.column("quad_hash").to_numpy(
                            zero_copy_only=False)
                    # cross-flush seen set keys on the 128-bit
                    # (quad_hash, quad_hash2) pair — 64 bits alone has
                    # ~50% birthday collision odds at ~5e9 quads
                    if "quad_hash2" in tbl.column_names:
                        h2 = tbl.column("quad_hash2").to_numpy(
                            zero_copy_only=False)
                    else:
                        h2 = np.zeros(len(h), dtype=np.uint64)
                    # Seen set kept as SORTED numpy arrays: membership is
                    # one vectorized searchsorted pass with a python
                    # check only on 64-bit hits (a python tuple-set here
                    # cost ~40 s of finalize at 21M quads).
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
                shas = np.unique(np.asarray(
                    tbl.column("content_sha256").to_numpy(
                        zero_copy_only=False), dtype="S64"))
                prev = self.docs.get(pid)
                self.docs[pid] = shas if prev is None \
                    else np.union1d(prev, shas)
                part_dir = os.path.join(self.out_dir,
                                        f"partition_id={pid}")
                os.makedirs(part_dir, exist_ok=True)
                drop = [c for c in ("quad_hash", "quad_hash2",
                                    "partition_id")
                        if c in tbl.column_names]
                out = tbl.drop_columns(drop) if drop else tbl
                path = os.path.join(
                    part_dir,
                    f"part-w{self.writer_id:03d}-{self.file_idx:05d}"
                    ".parquet")
                pq.write_table(out, path)
                self.file_idx += 1
                self.flushed[pid] = self.flushed.get(pid, 0) + tbl.num_rows

        def finalize(self) -> dict:
            self._join_flusher()
            self._flush()
            return {
                "writer_id": self.writer_id,
                "partitions": {int(pid): {
                    "n_quads": int(n),
                    "n_docs": len(self.docs.get(pid, ())),
                } for pid, n in self.flushed.items()},
            }

    return PartitionWriter


class WriterPool:
    """``num_writers`` ``PartitionWriter`` actors of 0.5 CPU each.

    The writers hold their CPUs for the whole job, and the map tasks that
    feed them need a whole CPU each. So a Ray session needs more CPUs than
    ``num_writers / 2``: with the pipeline's two writers, ``num_cpus=1``
    leaves no CPU for any task and the job hangs."""

    def __init__(self, out_dir: str, num_writers: int,
                 dedup: bool = True, flush_rows: int = 1_000_000):
        cls = _writer_class()
        self.num_writers = num_writers
        self.actors = [
            cls.remote(out_dir, w, dedup=dedup, flush_rows=flush_rows)
            for w in range(num_writers)]

    def handles(self):
        return list(self.actors)

    def finalize(self) -> dict:
        import ray
        stats = ray.get([a.finalize.remote() for a in self.actors])
        merged: dict[int, dict] = {}
        for st in stats:
            for pid, entry in st["partitions"].items():
                cur = merged.setdefault(int(pid),
                                        {"n_quads": 0, "n_docs": 0})
                cur["n_quads"] += entry["n_quads"]
                cur["n_docs"] += entry["n_docs"]
        return merged

    def shutdown(self):
        import ray
        for a in self.actors:
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
