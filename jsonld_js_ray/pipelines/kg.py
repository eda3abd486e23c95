"""The flagship KG-construction pipeline (BASELINE.json north_star).

repo files → ONE plain Ray map task per read unit (``read_units``): read
the unit's rows in batches of ``batch_size`` rows, then per batch
extract/sha256 → expand+toRDF (``expand_batch``: a per-worker stage
cached on the broadcast context snapshot) → per-partition partial dedup
→ route: one spill file per exchange group present → one reduce task per
group keeps the least copy of each (partition, quad) and writes
partitioned (subj, pred, obj) Parquet → per-partition manifest entries,
then ``job.json``, which commits the job. A rerun over the same input
returns the committed summary; any other run recomputes the whole job
(state/checkpoint.py).

A read unit is a whole file when there are at least as many files as
CPUs; with fewer files the input's rows, in file order, are cut into
one range per CPU, so each CPU gets one unit of the same size. All units
are submitted at once, each starting as soon as a CPU is free, and the
reduce tasks run after them: map and reduce are both plain tasks over
files, a one-level exchange (stages/partition_sink.py). The map is not
a Ray Data operator: before a map operator has produced any output, Ray
Data 2.49 assumes each task will hold 2 x 128 MiB of object store, so
under a small store it starts one task and holds the rest until the
first one ends.

The per-document views (``status_batch``, ``events_batch``,
``canonical_batch``, ``expand_batch``, ``transform.api_batch``) run in
the same map tasks (``map_docs``): each slice's projection is written as
one Parquet file, and the view is those files read back. The KG path
starts no actors.

Every stage streams: nothing materializes the full dataset on the driver.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import shutil
import time
from typing import Iterator

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..sources.contexts import build_context_snapshot
from ..sources.repo_files import repo_files_path, sf_from_dir
from ..stages.dedup import partial_dedup_batch
from ..stages.expand_quads import expand_batch
from ..stages.extract import DEFAULT_PARTITIONS, extract_batch
from ..stages.partition_sink import WriterPool, make_router
from ..state import checkpoint
from ..util_ray import cluster_cpus


# all five input columns are needed downstream; prune nothing here but
# keep the explicit list so accidental extra columns never ship
REPO_COLUMNS = ["repo", "path", "commit", "lang", "content"]
EMPTY_REPO_FILES = pa.schema(
    [(name, pa.string()) for name in REPO_COLUMNS]).empty_table()


def read_units(input_path: str) -> list[list[tuple[str, int, int]]]:
    """The read units of ``input_path``, each a list of ``(path, lo,
    hi)`` row ranges: each file whole when there are at least as many
    files as CPUs, else the input's rows, in file order, cut into one
    range per CPU (a range may span files). No unit is an empty list."""
    paths = [path for _, path in checkpoint.input_files(input_path)]
    rows = [pq.read_metadata(path).num_rows for path in paths]
    if len(paths) >= cluster_cpus():
        return [[(path, 0, n)] for path, n in zip(paths, rows)]
    starts = list(itertools.accumulate(rows, initial=0))
    bounds = [starts[-1] * k // cluster_cpus()
              for k in range(cluster_cpus() + 1)]
    units = [[(path, max(lo, s) - s, min(hi, s + n) - s)
              for path, s, n in zip(paths, starts, rows)
              if max(lo, s) < min(hi, s + n)]
             for lo, hi in zip(bounds, bounds[1:])]
    return [unit for unit in units if unit]


def read_unit(unit: list[tuple[str, int, int]],
              batch_size: int) -> Iterator[pa.Table]:
    """The rows of a read unit (``read_units``), in order, as tables of at
    most ``batch_size`` rows. The files are decoded a batch at a time, so
    a task never holds a whole file: with one task per CPU running at
    once (4 CPUs), kgbench kg_forks' ``peak_mem_mb`` was 26.5 MB reading
    whole files and 23.1 MB reading batches (medians of 5 and 6 runs)."""
    for path, lo, hi in unit:
        with pq.ParquetFile(path) as file:
            start = 0
            for batch in file.iter_batches(batch_size, columns=REPO_COLUMNS):
                end = start + batch.num_rows
                if lo < end:
                    yield pa.Table.from_batches([batch]).slice(
                        max(lo - start, 0), hi - max(lo, start))
                if end >= hi:
                    break
                start = end


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


def _route_quads(batch: pa.Table, snapshot_ref, route) -> pa.Table:
    """``run_kg_pipeline``'s projection: expand → partial dedup →
    ``route``."""
    return route(partial_dedup_batch(expand_batch(batch, snapshot_ref)))


@ray.remote
def _map_unit(unit: list, task, snapshot_ref, batch_size: int, stop: str,
              out: str | None) -> None:
    """One map task: extract → ``task`` on each slice of one read unit
    (``read_unit``). With ``out``, slice ``i``'s output, when it has
    rows, is written to ``<out>-<i>.parquet``. It ends early, before its
    read or after a slice, once the file ``stop`` exists.
    ``snapshot_ref`` comes wrapped in a list, so Ray passes the ref and
    not the snapshot it names."""
    if os.path.exists(stop):
        return
    for i, batch in enumerate(read_unit(unit, batch_size)):
        result = task(extract_batch(batch, DEFAULT_PARTITIONS),
                      snapshot_ref[0])
        if out and result.num_rows:
            pq.write_table(result, f"{out}-{i:05d}.parquet")
        if os.path.exists(stop):
            return


def _map_all(input_path: str, task, snapshot_ref, batch_size: int,
             stop: str, out_dir: str | None = None) -> None:
    """Submits one ``_map_unit`` per read unit of ``input_path``, all at
    once, and waits for them; with ``out_dir``, unit ``k`` writes its
    slices as ``<out_dir>/part-<k>-<i>.parquet``. If a task raises, the
    file ``stop`` tells the others to end, and all are waited for first,
    so none is still writing when the caller cleans up.

    Not ``ray.cancel``: in Ray 2.49, cancelling a task that is being
    dispatched to a freed worker can fail a check in the driver's task
    manager and abort the driver process (seen with 6 map tasks on 4
    CPUs, two of them failing)."""
    refs = [_map_unit.remote(
        unit, task, [snapshot_ref], batch_size, stop,
        out_dir and os.path.join(out_dir, f"part-{k:05d}"))
        for k, unit in enumerate(read_units(input_path))]
    try:
        ray.get(refs)
    except BaseException:
        open(stop, "w").close()
        ray.wait(refs, num_returns=len(refs))
        raise


def map_docs(input_path: str, task, out_dir: str, batch_size: int = 1024):
    """One projection of the per-document kernel pass over the repo files
    of ``input_path`` (``expand_batch``, ``status_batch``,
    ``canonical_batch``, ``events_batch`` or ``transform.api_batch``),
    with the stage cached per worker on the ``ray.put`` context snapshot.

    It runs the flagship's map (``_map_all``): one plain task per read
    unit, extract and ``task`` on slices of ``batch_size`` rows, so
    ``batch_size`` is the scope of content grouping (one kernel pass per
    distinct document). Each slice's output goes to one Parquet file
    under ``out_dir`` (new or empty), named by its unit and slice, so two
    runs read back the same blocks; the result is those files as a
    Dataset. With no output rows it is an empty Dataset with the view's
    columns."""
    os.makedirs(out_dir, exist_ok=True)
    snapshot = build_context_snapshot()
    _map_all(input_path, task, ray.put(snapshot), batch_size,
             os.path.join(out_dir, "_stop"), out_dir)
    if not os.listdir(out_dir):
        return ray.data.from_arrow(task(extract_batch(
            EMPTY_REPO_FILES, DEFAULT_PARTITIONS), snapshot))
    return ray.data.read_parquet(out_dir)


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
    # ``_route_quads`` is looked up per call, so the tasks run the one the
    # driver holds now
    task = functools.partial(_route_quads,
                             route=make_router(pool.handles(), num_groups))
    snapshot_ref = ray.put(build_context_snapshot())
    stop = os.path.join(pool.spill_root, "_stop")
    try:
        t0 = time.time()
        _map_all(input_path, task, snapshot_ref, batch_size, stop)
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
