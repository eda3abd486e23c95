"""The flagship KG-construction pipeline (BASELINE.json north_star).

read_parquet(repo files) → ONE map task per read block: in slices of
``batch_size`` rows, extract/sha256 → expand+toRDF (``expand_batch``: a
per-worker stage cached on the broadcast context snapshot) →
per-partition partial dedup → route: one spill file per exchange group
present → one reduce task per group keeps the least copy of each
(partition, quad) and writes partitioned (subj, pred, obj) Parquet →
per-partition manifest entries, then ``job.json``, which commits the
job. A rerun over the same input returns the committed summary; any
other run recomputes the whole job (state/checkpoint.py).

The read asks for ``max(files, CPUs)`` blocks. With at least as many
files as CPUs that is one block per file, and Ray fuses the read and the
map into one task-pool operator, ``ReadParquet->MapBatches(docs_task)``:
one task per input file, with no block crossing the object store between
read and map. With fewer files Ray splits the read into one block per
CPU, and the read runs as its own operator. The input alone picks the
plan: the map puts no cap on its tasks, since any cap keeps the read,
which has none, from fusing. The map takes whole blocks and slices them
itself: a Ray ``batch_size`` would keep the read from fusing too. The
KG queries and the flagship job all map through ``map_docs``, each with
its own projection of the kernel pass. The KG path starts no actors:
the exchange is files written by the map tasks and read by the reduce
tasks (stages/partition_sink.py).

Every stage streams: nothing materializes the full dataset on the driver.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
import time
from typing import Iterator

import pyarrow as pa

from ..sources.contexts import build_context_snapshot
from ..sources.repo_files import repo_files_path, sf_from_dir
from ..stages.dedup import partial_dedup_batch
from ..stages.expand_quads import expand_batch
from ..stages.extract import DEFAULT_PARTITIONS, extract_batch
from ..stages.partition_sink import WriterPool, make_router
from ..state import checkpoint
from ..util_ray import cluster_cpus


def read_repo_files(input_path: str):
    """The repo-files Dataset of ``input_path``: one block per file, or
    one per CPU when there are fewer files than CPUs."""
    import ray
    n_files = len(checkpoint.input_files(input_path))
    # all five input columns are needed downstream; prune nothing here but
    # keep the explicit list so accidental extra columns never ship
    return ray.data.read_parquet(
        input_path, columns=["repo", "path", "commit", "lang", "content"],
        override_num_blocks=max(n_files, cluster_cpus()))


# Input bytes per exchange group, so one group's reduce stays under
# ~512 MiB as the input grows: at sf0.1 a reduce's peak RSS grew by up to
# 59 bytes per input byte of its group (72.9 MB for the 1.24 MB of input
# in the largest of 4 groups; 64 is used here).
GROUP_INPUT_BYTES = 8 << 20


def exchange_groups(input_path: str) -> int:
    """The exchange's group count G: one per CPU, or one per
    ``GROUP_INPUT_BYTES`` of input when that is more, and at most one per
    partition."""
    input_bytes = sum(os.path.getsize(path) for _, path in
                      checkpoint.input_files(input_path))
    return min(DEFAULT_PARTITIONS, max(
        cluster_cpus(), math.ceil(input_bytes / GROUP_INPUT_BYTES)))


def _pieces(block: pa.Table, batch_size: int) -> Iterator[pa.Table]:
    """``block`` as zero-copy slices of at most ``batch_size`` rows."""
    for lo in range(0, block.num_rows, batch_size):
        yield block.slice(lo, batch_size)


def docs_task(block: pa.Table, task, snapshot_ref,
              batch_size: int) -> Iterator[pa.Table]:
    """``map_docs``'s map function: extract → ``task`` per slice of
    ``batch_size`` rows, one output table per slice."""
    for piece in _pieces(block, batch_size):
        yield task(extract_batch(piece, DEFAULT_PARTITIONS), snapshot_ref)


def _route_quads(batch: pa.Table, snapshot_ref, route) -> pa.Table:
    """``run_kg_pipeline``'s projection: expand → partial dedup →
    ``route``."""
    return route(partial_dedup_batch(expand_batch(batch, snapshot_ref)))


def map_docs(ds, task, batch_size: int = 1024):
    """repo-files Dataset → extract → ``task`` (lazy, streaming): one
    projection of the per-document kernel pass (``expand_batch``,
    ``status_batch``, ``canonical_batch``, ``events_batch``, or
    ``run_kg_pipeline``'s ``_route_quads``), with the stage cached per
    worker on the ``ray.put`` context snapshot.

    One map function, ``docs_task``, runs extract and ``task`` on slices
    of ``batch_size`` rows of each block, so ``batch_size`` is the scope
    of content grouping (one kernel pass per distinct document). Over
    ``read_repo_files`` it fuses with the read as the module docstring
    says."""
    import ray
    return ds.map_batches(
        docs_task, batch_format="pyarrow",
        fn_kwargs={"task": task,
                   "snapshot_ref": ray.put(build_context_snapshot()),
                   "batch_size": batch_size})


def run_kg_pipeline(input_path: str, out_dir: str, batch_size: int = 1024,
                    resume: bool = True) -> dict:
    """End-to-end run into ``out_dir``; returns the job summary.

    The job is the unit of commit (state/checkpoint.py). With ``resume``,
    an ``out_dir`` holding a committed job over the same input returns
    that job's summary and starts no Ray work. Every other run deletes
    the manifest and ``quads/`` and recomputes the whole job.

    ``batch_size`` bounds the rows of one kernel call, so it sets the
    scope of content grouping and of the map-side partial dedup."""
    fingerprint = checkpoint.input_fingerprint(input_path,
                                               DEFAULT_PARTITIONS)
    committed = resume and checkpoint.committed_job(out_dir, fingerprint)
    if committed:
        return committed
    data_dir = os.path.join(out_dir, "quads")
    # the commit record goes first: a kill during clean-up must not leave
    # a job.json over partial output. Removing the data dir also removes
    # the spills of a killed job.
    shutil.rmtree(checkpoint.manifest_dir(out_dir), ignore_errors=True)
    shutil.rmtree(data_dir, ignore_errors=True)

    # one-level file exchange: no all-to-all barrier, no actors (see
    # stages/partition_sink.py)
    num_groups = exchange_groups(input_path)
    pool = WriterPool(data_dir, num_groups)
    try:
        routed = map_docs(
            read_repo_files(input_path),
            functools.partial(_route_quads,
                              route=make_router(pool.handles(), num_groups)),
            batch_size=batch_size)
        t0 = time.time()
        routed.count()  # drive the stream to completion
        stream_sec = time.time() - t0
        t0 = time.time()
        merged = pool.finalize()
        finalize_sec = time.time() - t0
    finally:
        # removes the spills a failed job leaves
        pool.shutdown()

    for part, e in merged.items():
        checkpoint.write_partition_entry(
            out_dir, part, n_quads=e["n_quads"], n_docs=e["n_docs"],
            input_fingerprint=fingerprint)
    total = {"n_quads": sum(e["n_quads"] for e in merged.values()),
             "n_partitions": len(merged),
             "resumed_skipped": [],
             "input_fingerprint": fingerprint,
             "phases": {"stream_sec": round(stream_sec, 2),
                        "finalize_sec": round(finalize_sec, 2)}}
    checkpoint.write_job_summary(out_dir, total)
    return total


def entity_summary(quads_ds):
    """Entity-linking aggregate: per canonical subject IRI, triple count and
    referencing-doc count, in one shuffle. Skew-safe: each batch first
    reduces to one row per (subject, doc) pair with its partial quad count
    (vectorized pandas groupby, SURVEY.md §2.5), tagged with a coarse
    bucket of the subject; one ``groupby(bucket).map_groups`` then sums
    each pair and counts its subject's rows.

    n_docs is a TRUE distinct count: every partial of a subject lands in
    that subject's bucket, so a document spanning several blocks still
    counts once (a per-batch ``nunique`` summed globally would count it
    once per block, making the result vary with partitioning)."""
    import pandas as pd

    n_buckets = 128

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["subject", "content_sha256"]).to_pandas()
        g = (df.groupby(["subject", "content_sha256"])
               .agg(n_quads=("subject", "size"))
               .reset_index())
        # per-subject Ray groups would pay per-group overhead at one
        # group per subject
        g["_sb"] = (pd.util.hash_array(g["subject"].to_numpy(
            dtype=object)) % n_buckets).astype("int64")
        # no pandas metadata: a schema carrying a metadata dict is
        # unhashable, and the shuffle's schema dedup then logs "Failed to
        # hash the schemas" per reduce task
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata()

    def per_subject(g: pd.DataFrame) -> pd.DataFrame:
        pairs = g.groupby(["subject", "content_sha256"],
                          as_index=False)["n_quads"].sum()
        out = (pairs.groupby("subject")
               .agg(n_quads=("n_quads", "sum"),
                    n_docs=("content_sha256", "size"))
               .reset_index())
        out["n_quads"] = out["n_quads"].astype("int64")
        out["n_docs"] = out["n_docs"].astype("int64")
        return out

    return (quads_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("_sb").map_groups(per_subject, batch_format="pandas"))


def repo_files_for_sf_dir(sf_dir: str) -> str:
    """Resolve (materializing if needed) the synthetic repo-files corpus
    matching a testdata sf directory (TESTDATA.md scale tiers)."""
    return repo_files_path(sf_from_dir(sf_dir))
