"""The flagship KG-construction pipeline (BASELINE.json north_star).

read_parquet(repo files) → ONE fused map task per batch: extract/sha256
→ expand+toRDF (``expand_batch``: a per-worker stage cached on the
broadcast context snapshot) → per-partition partial dedup → quad hash →
route, one send per writer actor → writer actors dedup per partition and
write partitioned (subj, pred, obj) Parquet → per-partition resume
manifest. The map stages are plain functions, so Ray fuses them into one
task-pool operator that runs in already-warm pooled workers; the only
actors are the writers.

Every stage streams: nothing materializes the full dataset on the driver.
"""

from __future__ import annotations

import os
import time
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.contexts import build_context_snapshot
from ..sources.repo_files import repo_files_path, sf_from_dir
from ..stages.dedup import add_quad_hash, partial_dedup_batch
from ..stages.expand_quads import DocStatus, expand_batch
from ..stages.extract import extract_batch
from ..stages.partition_sink import WriterPool, make_router
from ..state import checkpoint
from ..util_ray import cluster_cpus, default_concurrency

DEFAULT_PARTITIONS = 64


def read_repo_files(input_path: str):
    import ray
    # all five input columns are needed downstream; prune nothing here but
    # keep the explicit list so accidental extra columns never ship
    return ray.data.read_parquet(
        input_path, columns=["repo", "path", "commit", "lang", "content"])


def _without_partitions(skip: set):
    skip = pa.array(sorted(skip), pa.int32())
    return lambda b: b.filter(
        pc.invert(pc.is_in(b.column("partition_id"), value_set=skip)))


def build_quads(ds, snapshot=None, num_partitions: int = DEFAULT_PARTITIONS,
                concurrency: Optional[int] = None, batch_size: int = 1024,
                skip_partitions: Optional[set] = None):
    """repo-files Dataset → quad Dataset (lazy, streaming).

    ``concurrency`` caps the concurrent map tasks (None: as many as free
    CPUs allow). Stages mapped after this one must pass the same value,
    or Ray will not fuse them into the same task."""
    import ray
    if snapshot is None:
        snapshot = build_context_snapshot()
    snapshot_ref = ray.put(snapshot)

    ds = ds.map_batches(extract_batch,
                        fn_kwargs={"num_partitions": num_partitions},
                        batch_format="pyarrow", concurrency=concurrency)
    if skip_partitions:
        ds = ds.map_batches(_without_partitions(skip_partitions),
                            batch_format="pyarrow", concurrency=concurrency)
    return ds.map_batches(expand_batch,
                          fn_kwargs={"snapshot_ref": snapshot_ref},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)


def run_kg_pipeline(input_path: str, out_dir: str,
                    num_partitions: int = DEFAULT_PARTITIONS,
                    concurrency: Optional[int] = None,
                    batch_size: int = 1024,
                    dedup="partition",
                    resume: bool = True) -> dict:
    """End-to-end run with resumable partitioned output. Returns metrics.

    A true ``dedup`` drops duplicate quads within each output partition;
    a false one writes every quad."""
    completed = checkpoint.completed_partitions(out_dir) if resume else set()
    data_dir = os.path.join(out_dir, "quads")

    # crash hygiene: a killed run may leave partition files without
    # manifest entries; those partitions will be recomputed, so their
    # orphaned files must go first or the readback would double-count
    if resume and os.path.isdir(data_dir):
        import shutil as _shutil
        for name in os.listdir(data_dir):
            if not name.startswith("partition_id="):
                continue
            pid = int(name.split("=", 1)[1])
            if pid not in completed:
                _shutil.rmtree(os.path.join(data_dir, name),
                               ignore_errors=True)

    ds = read_repo_files(input_path)
    if completed:
        # cheap pre-scan (read + vectorized extract only — no expansion) to
        # decide whether any partition remains; avoids starting the writer
        # pool and an empty partitioned write on a fully-resumed job
        probe = ds.map_batches(
            extract_batch, fn_kwargs={"num_partitions": num_partitions},
            batch_format="pyarrow").map_batches(
            _without_partitions(completed), batch_format="pyarrow")
        if probe.count() == 0:
            summary = {"n_quads": 0, "n_partitions": 0,
                       "resumed_skipped": sorted(completed)}
            checkpoint.write_job_summary(out_dir, summary)
            return summary

    # streaming hash exchange into writer actors: no all-to-all barrier
    # (see stages/partition_sink.py)
    num_writers = max(2, min(16, cluster_cpus() // 4))
    quads = build_quads(ds, num_partitions=num_partitions,
                        concurrency=concurrency, batch_size=batch_size,
                        skip_partitions=completed)
    if dedup:
        quads = quads.map_batches(partial_dedup_batch,
                                  batch_format="pyarrow",
                                  concurrency=concurrency)
        quads = quads.map_batches(add_quad_hash, fn_kwargs={
            "num_buckets": None}, batch_format="pyarrow",
            concurrency=concurrency)
    pool = WriterPool(data_dir, num_writers, dedup=bool(dedup))
    routed = quads.map_batches(make_router(pool.handles(), num_writers),
                               batch_format="pyarrow",
                               concurrency=concurrency)
    t0 = time.time()
    routed.count()  # drive the stream to completion
    stream_sec = time.time() - t0
    t0 = time.time()
    merged = pool.finalize()
    finalize_sec = time.time() - t0
    pool.shutdown()

    for part, e in merged.items():
        if part in completed:
            continue
        checkpoint.write_partition_entry(
            out_dir, part, n_quads=e["n_quads"], n_docs=e["n_docs"],
            input_fingerprint=os.path.basename(str(input_path)))
    total = {"n_quads": sum(e["n_quads"] for e in merged.values()),
             "n_partitions": len(merged),
             "resumed_skipped": sorted(completed),
             "phases": {"stream_sec": round(stream_sec, 2),
                        "finalize_sec": round(finalize_sec, 2)}}
    checkpoint.write_job_summary(out_dir, total)
    return total


def entity_summary(quads_ds):
    """Entity-linking aggregate: per canonical subject IRI, triple count and
    referencing-doc count. Skew-safe: partial per-batch combine (vectorized
    pandas groupby) before the small global groupby-sum (SURVEY.md §2.5).

    n_docs is a TRUE distinct count via two-stage groupby — a per-batch
    ``nunique`` summed globally would count a document once per block it
    spans, making the result vary with partitioning. Stage 1 reduces to
    one row per (subject, doc) pair (carrying partial quad counts);
    stage 2 counts those rows per subject.
    """
    import pandas as pd

    n_buckets = 128

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["subject", "content_sha256"]).to_pandas()
        g = (df.groupby(["subject", "content_sha256"])
               .agg(n_quads=("subject", "size"))
               .reset_index())
        # coarse bucket of the pair key: per-(subject, doc) Ray groups
        # would pay per-group overhead at one group per pair
        g["_pb"] = ((pd.util.hash_array(g["subject"].to_numpy(
            dtype=object)) ^ pd.util.hash_array(
            g["content_sha256"].to_numpy(dtype=object)))
            % n_buckets).astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    def sum_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["subject", "content_sha256"], as_index=False)
               ["n_quads"].sum())
        out["n_quads"] = out["n_quads"].astype("int64")
        out["_sb"] = (pd.util.hash_array(out["subject"].to_numpy(
            dtype=object)) % n_buckets).astype("int64")
        return out

    pair = (quads_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("_pb").map_groups(sum_pairs, batch_format="pandas"))

    def per_subject(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("subject")
               .agg(n_quads=("n_quads", "sum"),
                    n_docs=("content_sha256", "size"))
               .reset_index())
        out["n_quads"] = out["n_quads"].astype("int64")
        out["n_docs"] = out["n_docs"].astype("int64")
        return out

    return (pair.groupby("_sb")
            .map_groups(per_subject, batch_format="pandas"))


def doc_status(ds, snapshot=None, concurrency: Optional[int] = None,
               batch_size: int = 128,
               num_partitions: int = DEFAULT_PARTITIONS):
    """Per-document status/metrics Dataset (quarantine accounting)."""
    import ray
    if snapshot is None:
        snapshot = build_context_snapshot()
    snapshot_ref = ray.put(snapshot)
    ds = ds.map_batches(
        lambda b: extract_batch(b, num_partitions=num_partitions),
        batch_format="pyarrow")
    return ds.map_batches(
        DocStatus,
        fn_constructor_kwargs={"snapshot_ref": snapshot_ref},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=default_concurrency(concurrency), num_cpus=1)


def repo_files_for_sf_dir(sf_dir: str) -> str:
    """Resolve (materializing if needed) the synthetic repo-files corpus
    matching a testdata sf directory (TESTDATA.md scale tiers)."""
    return repo_files_path(sf_from_dir(sf_dir))
