"""The flagship KG-construction pipeline (BASELINE.json north_star).

repo files → ONE plain Ray map task per read unit: read the unit's rows
in slices of ``BATCH_SIZE`` rows, then per slice extract/sha256 →
expand+toRDF (``expand_batch``: one stage per worker process, built from
the constant context snapshot) → per-partition partial dedup → route: one
spill file per exchange group present → one reduce task per group keeps
the least copy of each (partition, quad) and writes partitioned (subj,
pred, obj) Parquet → per-partition manifest entries, then ``job.json``,
which commits the job. A rerun over the same input returns the
committed summary; any other run recomputes the whole job
(state/checkpoint.py).

Each call is sized once, by ``plan``, from one listing of the input
(``checkpoint.input_files``) and one reading of the CPU count: the read
units, the exchange's group count G and the slice rows. The flagship
fingerprints that same listing, so its fingerprint, units and G describe
one set of files. A read unit is a whole file when there are at least as
many files as CPUs; with fewer files the input's rows, in file order,
are cut into one range per CPU, so each CPU gets one unit of the same
size. All units are submitted at once, each starting as soon as a CPU is
free, and the reduce tasks run after them: map and reduce are both plain
tasks over files, a one-level exchange (stages/partition_sink.py). The
map is not a Ray Data operator: before a map operator has produced any
output, Ray Data 2.49 assumes each task will hold 2 x 128 MiB of object
store, so under a small store it starts one task and holds the rest
until the first one ends.

A map task hands each slice to one sink, ``sink(slice, slice name)``.
The per-document views (``status_batch``, ``events_batch``,
``canonical_batch``, ``expand_batch``, ``transform.api_batch``; sink
``_write_view``, through ``map_docs``) write each slice's projection as
one Parquet file, and the view is those files read back. The flagship
and the two corpus aggregates (``entity_summary``,
``entity_link.merge_entities``) run on one exchange (``exchange``; sink
``_route_quads``), each with its own map-side combiner, routing key and
per-group merge. The KG path starts no actors and no Ray Data shuffle.

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

from ..sources.repo_files import repo_files_path, sf_from_dir
from ..stages.dedup import partial_dedup_batch
from ..stages.expand_quads import QUAD_SCHEMA, expand_batch
from ..stages.extract import DEFAULT_PARTITIONS, extract_batch
from ..stages.partition_sink import (WriterPool, make_router, partition_key,
                                     subject_key, write_partitions)
from ..state import checkpoint
from ..util_ray import cluster_cpus


# all five input columns are needed downstream; prune nothing here but
# keep the explicit list so accidental extra columns never ship
REPO_COLUMNS = ["repo", "path", "commit", "lang", "content"]
EMPTY_REPO_FILES = pa.schema(
    [(name, pa.string()) for name in REPO_COLUMNS]).empty_table()


# Rows of one kernel call: the scope of content grouping (one kernel pass
# per distinct document) and of the map-side partial dedup. ``plan`` reads
# it when the driver sizes a call, and the tasks get the value it read.
BATCH_SIZE = 1024

# Input bytes per exchange group, so one group's reduce stays under
# ~512 MiB as the input grows: at sf0.1 a reduce's peak RSS grew by up to
# 59 bytes per input byte of its group (72.9 MB for the 1.24 MB of input
# in the largest of 4 groups; 64 is used here).
GROUP_INPUT_BYTES = 8 << 20


def plan(files: list[tuple[str, str]]) -> tuple[list, int, int]:
    """The sizing of one KG call over the listing ``files``
    (``checkpoint.input_files``), from one ``cluster_cpus()`` reading:

    - the read units, each a list of ``(path, lo, hi)`` row ranges: each
      file whole when there are at least as many files as CPUs, else the
      input's rows, in file order, cut into one range per CPU (a range
      may span files). A unit with no rows is dropped;
    - the exchange's group count G: one per CPU, or one per
      ``GROUP_INPUT_BYTES`` of input when that is more, and at most one
      per partition;
    - the rows of a slice, ``BATCH_SIZE``."""
    cpus = cluster_cpus()
    paths = [path for _, path in files]
    rows = [pq.read_metadata(path).num_rows for path in paths]
    input_bytes = sum(os.path.getsize(path) for path in paths)
    num_groups = min(DEFAULT_PARTITIONS, max(
        cpus, math.ceil(input_bytes / GROUP_INPUT_BYTES)))
    starts = list(itertools.accumulate(rows, initial=0))
    bounds = (starts if len(paths) >= cpus
              else [starts[-1] * k // cpus for k in range(cpus + 1)])
    units = [[(path, max(lo, s) - s, min(hi, s + n) - s)
              for path, s, n in zip(paths, starts, rows)
              if max(lo, s) < min(hi, s + n)]
             for lo, hi in zip(bounds, bounds[1:])]
    return [unit for unit in units if unit], num_groups, BATCH_SIZE


def read_unit(unit: list[tuple[str, int, int]],
              batch_size: int) -> Iterator[pa.Table]:
    """The rows of a read unit (``plan``), in order, as tables of at
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


def _route_quads(batch: pa.Table, name: str, route,
                 partial=partial_dedup_batch) -> None:
    """The exchange's sink: expand → ``partial`` (the flagship's partial
    dedup, or an aggregate's combiner) → ``route``, which spills under the
    slice's ``name``, so the spills of a retried attempt replace those of
    the attempt that died."""
    route(partial(expand_batch(batch)), name=name)


def _write_view(batch: pa.Table, name: str, task, out_dir: str) -> None:
    """A view's sink: ``task``'s output for the slice, when it has rows,
    as ``<out_dir>/<name>.parquet``."""
    result = task(batch)
    if result.num_rows:
        pq.write_table(result, os.path.join(out_dir, name + ".parquet"))


@ray.remote
def _map_unit(unit: list, sink, batch_size: int, stop: str, name: str) -> None:
    """One map task: ``sink(extract(slice), slice name)`` on each slice of
    one read unit (``read_unit``); slice ``i`` is named ``<name>-<i>``. It
    ends early, before its read or after a slice, once the file ``stop``
    exists."""
    if os.path.exists(stop):
        return
    for i, batch in enumerate(read_unit(unit, batch_size)):
        sink(extract_batch(batch, DEFAULT_PARTITIONS), f"{name}-{i:05d}")
        if os.path.exists(stop):
            return


def _map_all(sizing: tuple, sink, stop: str) -> None:
    """Submits one ``_map_unit`` per read unit of ``sizing`` (``plan``),
    all at once, and waits for them; unit ``k``'s slices are named
    ``part-<k>-<i>``. If a task raises, the file ``stop`` tells the others
    to end, and all are waited for first, so none is still writing when
    the caller cleans up.

    Not ``ray.cancel``: in Ray 2.49, cancelling a task that is being
    dispatched to a freed worker can fail a check in the driver's task
    manager and abort the driver process (seen with 6 map tasks on 4
    CPUs, two of them failing)."""
    units, _, batch_size = sizing
    refs = [_map_unit.remote(unit, sink, batch_size, stop, f"part-{k:05d}")
            for k, unit in enumerate(units)]
    try:
        ray.get(refs)
    except BaseException:
        open(stop, "w").close()
        ray.wait(refs, num_returns=len(refs))
        raise


def map_docs(input_path: str, task, out_dir: str):
    """One projection of the per-document kernel pass over the repo files
    of ``input_path`` (``expand_batch``, ``status_batch``,
    ``canonical_batch``, ``events_batch`` or ``transform.api_batch``),
    on each worker process's one stage (``expand_quads._stage``).

    It runs the flagship's map (``_map_all``): one plain task per read
    unit, extract and ``task`` on slices of ``BATCH_SIZE`` rows. Each
    slice's output goes to one Parquet file under ``out_dir`` (new or
    empty), named by its unit and slice, so two runs read back the same
    blocks; the result is those files as a Dataset. With no output rows
    it is an empty Dataset with the view's columns."""
    os.makedirs(out_dir, exist_ok=True)
    _map_all(plan(checkpoint.input_files(input_path)),
             functools.partial(_write_view, task=task, out_dir=out_dir),
             os.path.join(out_dir, "_stop"))
    return _read_back(out_dir, lambda: task(extract_batch(
        EMPTY_REPO_FILES, DEFAULT_PARTITIONS)))


def _read_back(out_dir: str, empty):
    """The Parquet files a query wrote under ``out_dir`` as a Dataset, or
    the table ``empty()`` as one when it wrote none."""
    if not os.listdir(out_dir):
        return ray.data.from_arrow(empty())
    return ray.data.read_parquet(out_dir)


def exchange(sizing: tuple, out_dir: str, task, key,
             reduce) -> tuple[dict, dict]:
    """The KG path's one exchange (stages/partition_sink.py) with the read
    units and G of ``sizing`` (``plan``): one ``_map_unit`` per read unit
    runs ``task(slice, name, route)`` on each slice, where ``route``
    spills the rows per group of ``key``; then one ``reduce`` task per
    group writes under ``out_dir``. The spills are removed, after a
    failure too. Returns the union of the reduces' dicts and the two
    phases' seconds."""
    num_groups = sizing[1]
    pool = WriterPool(out_dir, num_groups, reduce=reduce)
    try:
        t0 = time.time()
        _map_all(sizing, functools.partial(
            task, route=make_router(pool.handles(), num_groups, key)),
            os.path.join(pool.spill_root, "_stop"))
        t1 = time.time()
        merged = pool.finalize()
    finally:
        pool.shutdown()
    return merged, {"stream_sec": round(t1 - t0, 2),
                    "finalize_sec": round(time.time() - t1, 2)}


def run_kg_pipeline(input_path: str, out_dir: str,
                    resume: bool = True) -> dict:
    """End-to-end run into ``out_dir``; returns the job summary.

    The job is the unit of commit (state/checkpoint.py). With ``resume``,
    an ``out_dir`` holding a committed job over the same input returns
    that job's summary and starts no Ray work. Every other run deletes
    the manifest and ``quads/`` and recomputes the whole job. The input
    is listed once: the fingerprint, the read units and G all describe
    that listing."""
    files = checkpoint.input_files(input_path)
    fingerprint = checkpoint.input_fingerprint(files, DEFAULT_PARTITIONS)
    committed = resume and checkpoint.committed_job(out_dir, fingerprint)
    if committed:
        return committed
    data_dir = os.path.join(out_dir, "quads")
    # the commit record goes first: a kill during clean-up must not leave
    # a job.json over partial output. Removing the data dir also removes
    # the spills of a killed job.
    shutil.rmtree(checkpoint.manifest_dir(out_dir), ignore_errors=True)
    shutil.rmtree(data_dir, ignore_errors=True)

    # one-level file exchange: no all-to-all barrier, no actors.
    # ``_route_quads`` is looked up per call, so the tasks run the one the
    # driver holds now
    merged, phases = exchange(plan(files), data_dir, _route_quads,
                              partition_key, write_partitions)

    for part, e in merged.items():
        checkpoint.write_partition_entry(
            out_dir, part, n_quads=e["n_quads"], n_docs=e["n_docs"],
            input_fingerprint=fingerprint)
    total = {"n_quads": sum(e["n_quads"] for e in merged.values()),
             "n_partitions": len(merged),
             "input_fingerprint": fingerprint,
             "phases": phases}
    checkpoint.write_job_summary(out_dir, total)
    return total


def aggregate(input_path: str, out_dir: str, partial, key, merge):
    """A corpus aggregate of the quads of ``input_path`` on ``exchange``:
    each slice's quads are combined by ``partial`` and routed by ``key``,
    and the reduce of group ``g`` writes ``merge`` of all the group's
    partials as ``<out_dir>/part-<g>.parquet``. Returns those files as a
    Dataset, or ``merge(partial(<no quads>))`` when there are none;
    ``out_dir`` is new or empty."""
    os.makedirs(out_dir, exist_ok=True)
    exchange(plan(checkpoint.input_files(input_path)), out_dir,
             functools.partial(_route_quads, partial=partial), key,
             functools.partial(_write_merged, merge=merge))
    return _read_back(out_dir,
                      lambda: merge(partial(QUAD_SCHEMA.empty_table())))


def _write_merged(partials: pa.Table, out_dir: str, g: int, merge) -> dict:
    pq.write_table(merge(partials),
                   os.path.join(out_dir, f"part-{g:05d}.parquet"))
    return {}


def _subject_doc_counts(quads: pa.Table) -> pa.Table:
    """``entity_summary``'s combiner: one row per (subject, doc) of a
    slice, with its quad count (``count_all``)."""
    return quads.group_by(["subject", "content_sha256"],
                          use_threads=False).aggregate([([], "count_all")])


def _per_subject(partials: pa.Table) -> pa.Table:
    """``entity_summary``'s merge: per subject, the sum of its partial
    quad counts and the number of distinct docs among them."""
    return (partials.group_by("subject", use_threads=False)
            .aggregate([("count_all", "sum"),
                        ("content_sha256", "count_distinct")])
            .select(["subject", "count_all_sum",
                     "content_sha256_count_distinct"])
            .rename_columns(["subject", "n_quads", "n_docs"]))


def entity_summary(input_path: str, out_dir: str):
    """Entity-linking aggregate over the repo files of ``input_path``:
    per canonical subject IRI, triple count and referencing-doc count
    (subject, n_quads, n_docs), written under ``out_dir`` and read back.
    Skew-safe: each slice first reduces to one row per (subject, doc)
    pair with its partial quad count (SURVEY.md §2.5); the pairs go
    through the flagship's exchange keyed by subject, and each group's
    reduce sums each subject's counts and counts its distinct docs.

    n_docs is a TRUE distinct count: every partial of a subject lands in
    that subject's group, so a document spanning several slices or units
    still counts once (a per-slice count summed globally would count it
    once per slice, making the result vary with partitioning)."""
    return aggregate(input_path, out_dir, _subject_doc_counts,
                     subject_key, _per_subject)


def repo_files_for_sf_dir(sf_dir: str) -> str:
    """Resolve (materializing if needed) the synthetic repo-files corpus
    matching a testdata sf directory (TESTDATA.md scale tiers)."""
    return repo_files_path(sf_from_dir(sf_dir))
