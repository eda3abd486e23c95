"""The KG pipeline's exchange: per-partition map-side dedup, one spill
per group and slice, the exact per-group reduce, the per-worker
expand-stage cache, jobs that leave no actor, and the map task path on a
small Ray session."""

import json
import os
import random
import signal
import subprocess
import sys
import time
import zlib
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from jsonld_js_ray.sources.repo_files import generate_repo_files
from jsonld_js_ray.stages import expand_quads as eq
from jsonld_js_ray.stages.dedup import (QUAD_COLS, WINNER_ORDER,
                                        add_quad_hash, keep_least,
                                        partial_dedup_batch)
from jsonld_js_ray.stages.extract import extract_batch
from jsonld_js_ray.stages.partition_sink import (SPILL_SUFFIX, WriterPool,
                                                 make_router)
from jsonld_js_ray.state import checkpoint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHARED_DOC = json.dumps({
    "@context": {"@vocab": "http://schema.org/"},
    "@id": "https://shared.example/thing", "name": "shared",
    "author": {"name": "anon", "knows": {"name": "other"}}})


def _pid(repo: str, num_partitions: int = 64) -> int:
    return zlib.crc32(repo.encode()) % num_partitions


def _fork_repos():
    """Two repo names that land in different partitions."""
    a = "forks/upstream"
    b = next(f"forks/fork{i}" for i in range(100)
             if _pid(f"forks/fork{i}") != _pid(a))
    return a, b


def _forks_table(gap: int = 150) -> pa.Table:
    """Filler repo files with the same JSON-LD document committed to two
    repos ``gap`` rows apart."""
    filler = generate_repo_files(gap + 50)
    a, b = _fork_repos()

    def row(repo):
        return pa.table({"repo": [repo], "path": ["ctx/thing.jsonld"],
                         "commit": ["c0"], "lang": ["jsonld"],
                         "content": [SHARED_DOC]}, schema=filler.schema)

    return pa.concat_tables([row(a), filler.slice(0, gap), row(b),
                             filler.slice(gap)])


def _quad_set(table: pa.Table) -> set:
    cols = [table.column(c).to_pylist() for c in QUAD_COLS]
    return set(zip(*cols))


def test_partial_dedup_keeps_a_quad_in_every_partition():
    quads = eq.ExpandToQuads()(extract_batch(_forks_table()))
    kept = partial_dedup_batch(quads)
    a, b = _fork_repos()
    for repo in (a, b):
        pid = pa.scalar(_pid(repo), pa.int32())
        mine = quads.filter(pc.equal(quads["repo"], repo))
        assert mine.num_rows > 0
        in_pid = kept.filter(pc.equal(kept["partition_id"], pid))
        assert _quad_set(mine) <= _quad_set(in_pid)
    # within one partition, duplicates still go
    doubled = pa.concat_tables([quads, quads])
    assert partial_dedup_batch(doubled).num_rows == kept.num_rows


def _random_quads(rng: random.Random, n: int) -> pa.Table:
    """``n`` rows drawn from few quads over few partitions, with null
    datatype/language/graph and copies that tie on part of
    ``WINNER_ORDER``."""
    def pick(values):
        return [rng.choice(values) for _ in range(n)]

    return pa.table({
        "subject": pick(["s0", "s1"]),
        "predicate": pick(["p0", "p1"]),
        "object_kind": pa.array(pick([0, 1]), pa.int8()),
        "object_value": pa.array(pick(["o0", "o1"]), pa.large_string()),
        "datatype": pick([None, "xsd:string"]),
        "language": pick([None, "en"]),
        "graph": pick([None, "g0"]),
        "repo": pick(["r0", "r1", "r2"]),
        "path": pick(["a.jsonld", "b.jsonld"]),
        "commit": pick(["c0", "c1"]),
        "content_sha256": pick(["sha0", "sha1"]),
        "partition_id": pa.array(pick([0, 1, 2]), pa.int32()),
    })


def _least_per_key(table: pa.Table, keys: list) -> list:
    """Plain-Python reference: per distinct ``keys`` value the row least
    on ``WINNER_ORDER``, the first such row on ties, in input order."""
    rows = table.to_pylist()
    best = {}
    for i, row in enumerate(rows):
        key = tuple(row[c] for c in keys)
        rank = tuple(row[c] for c in WINNER_ORDER)
        if key not in best or rank < best[key][0]:
            best[key] = (rank, i)
    return [rows[i] for i in sorted(i for _, i in best.values())]


@pytest.mark.parametrize("keys", [QUAD_COLS, QUAD_COLS + ["partition_id"]],
                         ids=["quad", "quad_partition"])
def test_keep_least_matches_reference(keys):
    rng = random.Random(7)
    for n in (0, 1, 5, 40, 200):
        for _ in range(20):
            table = _random_quads(rng, n)
            kept = keep_least(table, keys)
            assert kept.schema == table.schema
            assert kept.to_pylist() == _least_per_key(table, keys)


@pytest.mark.parametrize("task,view", [
    (eq.expand_batch, eq.ExpandToQuads.__call__),
    (eq.status_batch, eq.ExpandToQuads.status),
    (eq.canonical_batch, eq.ExpandToQuads.canonical),
    (eq.events_batch, eq.ExpandToQuads.events),
], ids=["expand_batch", "status_batch", "canonical_batch", "events_batch"])
def test_expand_batch_reuses_stage_per_snapshot_ref(task, view):
    # one stage per process, shared by the four task functions and kept
    # from call to call; its output equals a stage built from a snapshot
    # dict, as kgbench builds it
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    batch = extract_batch(generate_repo_files(40))
    eq.expand_batch(batch)
    stage = eq._STAGE
    out = task(batch)
    assert eq._STAGE is stage
    assert out.equals(view(eq.ExpandToQuads(
        snapshot_ref=build_context_snapshot()), batch))
    assert task(batch).equals(out)
    assert eq._STAGE is stage


def test_expand_batch_cache_hits_across_tasks(ray_session):
    # the cache must survive from one Ray task to the next in the same
    # worker process, not only within one task
    import ray
    files = generate_repo_files(60)

    def tag(b):
        eq.expand_batch(b)
        return pa.table({"pid": [os.getpid()], "stage": [id(eq._STAGE)]})

    ds = ray.data.from_arrow([extract_batch(files.slice(i, 10))
                              for i in range(0, 60, 10)])
    out = ds.map_batches(tag, batch_format="pyarrow",
                         concurrency=1).to_pandas()
    assert len(out) == 6
    stages_per_pid = out.groupby("pid")["stage"].nunique()
    assert (stages_per_pid == 1).all()
    assert out["pid"].nunique() < len(out)


def test_second_view_call_starts_on_warm_stages(ray_session, tmp_path,
                                                monkeypatch):
    # a worker's stage, and with it its processed-context LRU, outlives
    # one call: a worker that ran slices of the first call starts the
    # second with the contexts it processed then, and the rows are equal
    from jsonld_js_ray.pipelines import kg
    corpus = _corpus(tmp_path, generate_repo_files(200), n_files=4)
    monkeypatch.setattr(kg, "BATCH_SIZE", 25)

    def events_on_cache(batch):
        # one row per slice: its worker, the size of that worker's LRU
        # before the slice and after it, and the slice's events rows
        cached = len(eq._stage().resolver._processed._d)
        events = eq.events_batch(batch)
        return pa.table({
            "pid": [os.getpid()], "cached": [cached],
            "cached_after": [len(eq._stage().resolver._processed._d)],
            "events": [json.dumps(events.to_pylist(), sort_keys=True)]})

    first, second = (kg.map_docs(corpus, events_on_cache,
                                 str(tmp_path / run)).to_pandas()
                     for run in ("first", "second"))
    assert sorted(second["events"]) == sorted(first["events"])
    assert any(json.loads(rows) for rows in first["events"])
    assert (first["cached_after"] > 0).all()
    reused = second[second["pid"].isin(first["pid"])]
    assert len(reused) > 0
    assert (reused["cached"] > 0).all()


def _hashed_quads(n_files=200):
    """Quads of ``n_files`` repo files, each twice (so the reduce's dedup
    has work to do), spread over many partitions by document, with the
    quad hash columns kgbench's replay routes."""
    quads = eq.ExpandToQuads()(extract_batch(generate_repo_files(n_files)))
    pids = [int(sha[:8], 16) % 64
            for sha in quads.column("content_sha256").to_pylist()]
    quads = quads.set_column(quads.schema.get_field_index("partition_id"),
                             "partition_id", pa.array(pids, pa.int32()))
    return add_quad_hash(pa.concat_tables([quads, quads]), None)


def _spills(group_dir) -> list:
    return sorted(n for n in os.listdir(group_dir)
                  if n.endswith(SPILL_SUFFIX))


def _read_spill(path) -> pa.Table:
    return pa.ipc.open_file(pa.memory_map(str(path))).read_all()


def test_router_sends_once_per_writer(tmp_path):
    # one slice writes one spill into each group (the writer of the
    # kept ``WriterPool``/``make_router`` names) that has rows, holding
    # only that group's partitions and only the output columns
    batch = _hashed_quads()
    num_writers = 4
    pids = set(batch.column("partition_id").to_pylist())
    assert len(pids) > 2 * num_writers
    handles = [tmp_path / f"g={g}" for g in range(num_writers)]
    for group_dir in handles:
        group_dir.mkdir()
    route = make_router([str(h) for h in handles], num_writers)
    route(batch)
    rows = 0
    for g, group_dir in enumerate(handles):
        names = os.listdir(group_dir)
        assert len(names) == 1 and names == _spills(group_dir)
        spill = _read_spill(group_dir / names[0])
        assert spill.schema == eq.QUAD_SCHEMA
        got = set(spill.column("partition_id").to_pylist())
        assert got == {p for p in pids if p % num_writers == g}
        rows += spill.num_rows
    assert rows == batch.num_rows
    # an empty slice writes nothing
    route(batch.slice(0, 0))
    assert all(len(os.listdir(h)) == 1 for h in handles)
    # a slice routed again under its name (a retried map task's) replaces
    # its spills; the unnamed route above gave each group a random name
    route(batch, name="part-00003-00001")
    route(batch, name="part-00003-00001")
    assert all(_spills(h).count("part-00003-00001" + SPILL_SUFFIX) == 1
               and len(_spills(h)) == 2 for h in handles)



def test_writer_pool_matches_per_partition_routing(ray_session, tmp_path):
    from jsonld_js_ray.stages.partition_sink import WriterPool, make_router
    batch = _hashed_quads()
    results = {}
    for mode in ("batch", "per_partition"):
        pool = WriterPool(str(tmp_path / mode), 2, dedup=True)
        route = make_router(pool.handles(), 2)
        if mode == "batch":
            route(batch)
        else:
            for pid in sorted(set(batch.column("partition_id")
                                  .to_pylist())):
                route(batch.filter(pc.equal(batch["partition_id"],
                                            pa.scalar(pid, pa.int32()))))
        results[mode] = pool.finalize()
        pool.shutdown()
    assert results["batch"] == results["per_partition"]
    assert sum(e["n_quads"] for e in results["batch"].values()) \
        == batch.num_rows // 2


@pytest.mark.parametrize("batch_size", [64, 1024])
def test_shared_document_reaches_both_fork_partitions(ray_session, tmp_path,
                                                      monkeypatch,
                                                      batch_size):
    from jsonld_js_ray.pipelines import kg
    monkeypatch.setattr(kg, "BATCH_SIZE", batch_size)
    table = _forks_table()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(table, str(corpus / "part-0.parquet"))
    out = str(tmp_path / "out")
    summary = kg.run_kg_pipeline(str(corpus), out, resume=False)
    written = pads.dataset(out + "/quads", partitioning="hive").to_table()
    assert written.num_rows == summary["n_quads"]
    shared = eq.ExpandToQuads()(extract_batch(table.slice(0, 1)))
    expected = _quad_set(shared)
    sha = shared.column("content_sha256")[0]
    for repo in _fork_repos():
        mine = written.filter(pc.and_(
            pc.equal(written["partition_id"], _pid(repo)),
            pc.equal(written["content_sha256"], sha)))
        assert _quad_set(mine) == expected, repo


def _pairs(table: pa.Table) -> Counter:
    """The (partition_id, quad) multiset of ``table``'s rows."""
    return Counter(zip(table.column("partition_id").to_pylist(),
                       *[table.column(c).to_pylist() for c in QUAD_COLS]))


def _oracle_pairs(table: pa.Table) -> Counter:
    """The (partition_id, quad) pairs a job over ``table`` must write:
    single-process ExpandToQuads, each pair once per partition."""
    quads = eq.ExpandToQuads()(extract_batch(table, num_partitions=64))
    return Counter(set(_pairs(quads)))


def _written_pairs(out: str) -> Counter:
    return _pairs(pads.dataset(out + "/quads", partitioning="hive")
                  .to_table())


def test_null_content_row_is_skipped(ray_session, tmp_path):
    # a row whose content is null is not JSON-LD, even when its lang says
    # jsonld: the job commits the same quads as over the input without it
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    table = generate_repo_files(200)
    row = table.column("lang").to_pylist().index("jsonld")
    content = table.column("content").to_pylist()
    content[row] = None
    planted = table.set_column(
        table.schema.get_field_index("content"), "content",
        pa.array(content, table.schema.field("content").type))
    without = pa.concat_tables([table.slice(0, row), table.slice(row + 1)])
    quads = {}
    for name, corpus in (("planted", planted), ("without", without)):
        out = str(tmp_path / name / "out")
        run_kg_pipeline(_corpus(tmp_path, corpus, 2, name + "_in"), out,
                        resume=False)
        df = pads.dataset(out + "/quads", partitioning="hive") \
            .to_table().to_pandas()
        quads[name] = df.sort_values(list(df.columns)) \
            .reset_index(drop=True)
    assert len(quads["planted"]) > 0
    assert quads["planted"].equals(quads["without"])


def _live_actors(settled=lambda ids: True, timeout: float = 10.0) -> set:
    """IDs of the session's actors that are not dead, polled until
    ``settled(ids)`` holds or ``timeout`` passes: an actor takes a moment
    to show as dead. (``ray.util.state`` needs the dashboard, which the
    test sessions do not start.)"""
    import ray
    deadline = time.monotonic() + timeout
    while True:
        ids = {a["ActorID"] for a in ray._private.state.actors().values()
               if a["State"] != "DEAD"}
        if settled(ids) or time.monotonic() > deadline:
            return ids
        time.sleep(0.1)


def _corpus(tmp_path, table: pa.Table, n_files: int = 1,
            name: str = "corpus") -> str:
    corpus = tmp_path / name
    corpus.mkdir()
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step),
                       str(corpus / f"part-{i}.parquet"))
    return str(corpus)


def _job_committed(out: str) -> bool:
    return os.path.exists(os.path.join(checkpoint.manifest_dir(out),
                                       "job.json"))


def _quad_row(pid, subject, sha, repo, commit="c0") -> dict:
    return {"subject": subject, "predicate": "p", "object_kind": 0,
            "object_value": "o", "datatype": None, "language": None,
            "graph": None, "repo": repo, "path": "a.jsonld",
            "commit": commit, "content_sha256": sha, "partition_id": pid}


def test_reduce_keeps_the_least_copy_across_spills(ray_session, tmp_path):
    # one group, three spills: a quad's lesser copy (on WINNER_ORDER)
    # arrives in the last spill, and the first spill is there twice, as
    # a retried map task leaves it
    first = [_quad_row(0, "q1", "sha-b", "r1"),
             _quad_row(1, "q1", "sha-b", "r1"),
             _quad_row(1, "q3", "sha-c", "r2")]
    second = [_quad_row(0, "q2", "sha-b", "r1"),
              _quad_row(0, "q4", "sha-a", "r3")]
    last = [_quad_row(0, "q1", "sha-a", "r9"),
            _quad_row(1, "q3", "sha-c", "r1", commit="c9")]
    out = tmp_path / "quads"
    pool = WriterPool(str(out), 1)
    route = make_router(pool.handles(), 1)
    for rows in (first, second, last):
        route(pa.Table.from_pylist(rows, schema=eq.QUAD_SCHEMA))
    group_dir = pool.handles()[0]
    spills = _spills(group_dir)
    assert len(spills) == 3
    retried = next(n for n in spills if _read_spill(
        os.path.join(group_dir, n)).num_rows == len(first))
    with open(os.path.join(group_dir, retried), "rb") as src, \
            open(os.path.join(group_dir, "retry" + SPILL_SUFFIX), "wb") as dst:
        dst.write(src.read())

    stats = pool.finalize()
    pool.shutdown()
    assert not os.path.exists(out / "_spill")
    written = pads.dataset(str(out), partitioning="hive").to_table()
    cols = ["partition_id", "subject", "content_sha256", "repo", "commit"]
    rows = list(zip(*[written.column(c).to_pylist() for c in cols]))
    assert sorted(rows) == [(0, "q1", "sha-a", "r9", "c0"),
                            (0, "q2", "sha-b", "r1", "c0"),
                            (0, "q4", "sha-a", "r3", "c0"),
                            (1, "q1", "sha-b", "r1", "c0"),
                            (1, "q3", "sha-c", "r1", "c9")]
    # n_docs counts the distinct shas of the winners
    assert stats == {0: {"n_quads": 3, "n_docs": 2},
                     1: {"n_quads": 2, "n_docs": 2}}
    for pid in (0, 1):
        assert os.listdir(out / f"partition_id={pid}") == ["part-0.parquet"]


def test_failed_reduce_fails_the_job(ray_session, tmp_path, monkeypatch):
    # a regular file where a partition's directory goes makes that
    # partition's reduce fail: finalize must raise, not return the other
    # groups' counts as if the job were whole, and the job must not commit
    import ray
    from jsonld_js_ray.pipelines import kg
    batch = _hashed_quads(50)
    pid = batch.column("partition_id")[0].as_py()
    out = tmp_path / "quads"
    pool = WriterPool(str(out), 2)
    make_router(pool.handles(), 2)(batch)
    (out / f"partition_id={pid}").write_text("")
    with pytest.raises(ray.exceptions.RayTaskError):
        pool.finalize()
    pool.shutdown()
    assert not os.path.exists(out / "_spill")

    table = generate_repo_files(200)
    job_pid = min(p for p, *_ in _oracle_pairs(table))

    class PlantedPool(WriterPool):
        # plants the file after run_kg_pipeline has cleared the data dir
        def __init__(self, out_dir, num_writers, **kwargs):
            super().__init__(out_dir, num_writers, **kwargs)
            open(os.path.join(out_dir, f"partition_id={job_pid}"),
                 "w").close()

    monkeypatch.setattr(kg, "WriterPool", PlantedPool)
    job_out = str(tmp_path / "job")
    with pytest.raises(ray.exceptions.RayTaskError):
        kg.run_kg_pipeline(_corpus(tmp_path, table), job_out, resume=False)
    assert not _job_committed(job_out)
    assert not os.path.exists(os.path.join(job_out, "quads", "_spill"))


@pytest.mark.parametrize("module,query,failing", [
    ("kg", "entity_summary", "_subject_doc_counts"),
    ("kg", "entity_summary", "_per_subject"),
    ("entity_link", "merge_entities", "partial_nodes_batch"),
    ("entity_link", "merge_entities", "_merge_group"),
], ids=["summary_map", "summary_reduce", "merge_map", "merge_reduce"])
def test_failed_aggregate_task_fails_the_call(ray_session, tmp_path,
                                              monkeypatch, module, query,
                                              failing):
    # the aggregates run on the flagship's exchange: a raising map-side
    # combiner or reduce-side merge makes the call raise, and its spills
    # are removed all the same
    import importlib

    from jsonld_js_ray.pipelines import kg
    mod = importlib.import_module(f"jsonld_js_ray.pipelines.{module}")

    def planted(*args):
        raise ValueError("planted aggregate failure")

    monkeypatch.setattr(mod, failing, planted)
    monkeypatch.setattr(kg, "BATCH_SIZE", 64)
    corpus = _corpus(tmp_path, generate_repo_files(200), n_files=2)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="planted aggregate failure"):
        getattr(mod, query)(corpus, str(out))
    assert not os.path.exists(out / "_spill")



@pytest.mark.parametrize("query", ["entity_summary", "merge_entities"])
@pytest.mark.parametrize("replay", ["every_slice_twice", "worker_dies"])
def test_rerouted_slice_is_counted_once(ray_session, tmp_path, monkeypatch,
                                        query, replay):
    # a map task that Ray retries routes its slices again: each spill is
    # named by read unit and slice, so the retry's spills replace the
    # first attempt's, and entity_summary's sums do not count them twice.
    # "worker_dies": the first map task to spill a slice kills its worker
    # process, and Ray reruns that task
    import importlib

    import pandas as pd
    from jsonld_js_ray.pipelines import kg
    run = getattr(importlib.import_module(
        "jsonld_js_ray.pipelines." + ("kg" if query == "entity_summary"
                                      else "entity_link")), query)
    corpus = _corpus(tmp_path, generate_repo_files(200), n_files=2)
    monkeypatch.setattr(kg, "BATCH_SIZE", 64)

    def rows(out):
        df = run(corpus, str(tmp_path / out)).to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    clean = rows("clean")
    died = str(tmp_path / "died")
    route_quads = kg._route_quads

    def reroute(batch, name, route, partial):
        route_quads(batch, name, route, partial=partial)
        if replay == "every_slice_twice":
            route_quads(batch, name, route, partial=partial)
            return
        try:
            os.close(os.open(died, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return
        os._exit(1)

    monkeypatch.setattr(kg, "_route_quads", reroute)
    pd.testing.assert_frame_equal(rows("rerouted"), clean)
    assert replay != "worker_dies" or os.path.exists(died)

def _lineage_forks_table() -> pa.Table:
    """JSON-LD files copied into 8 forks at 3 commits each, the copies
    of a file identical in content and path, rows in descending
    (repo, commit) order so the least copy never arrives first, with
    filler files between them."""
    files = generate_repo_files(120)
    docs = files.filter(pc.equal(files["lang"], "jsonld")).slice(0, 6)
    rows = []
    for path, content in zip(docs.column("path").to_pylist(),
                             docs.column("content").to_pylist()):
        for fork in range(8):
            for commit in range(3):
                rows.append((f"forks/r{fork}", path, f"c{commit}",
                             content))
    rows.sort(key=lambda r: (r[0], r[2]), reverse=True)
    copies = pa.table({"repo": [r[0] for r in rows],
                       "path": [r[1] for r in rows],
                       "commit": [r[2] for r in rows],
                       "lang": ["jsonld"] * len(rows),
                       "content": [r[3] for r in rows]},
                      schema=files.schema)
    half = copies.num_rows // 2
    return pa.concat_tables([copies.slice(0, half), files.slice(0, 60),
                             copies.slice(half), files.slice(60)])


def _lineage_rows(table: pa.Table) -> set:
    cols = ["partition_id", *QUAD_COLS, "repo", "path", "commit",
            "content_sha256"]
    return set(zip(*[table.column(c).to_pylist() for c in cols]))


def test_written_lineage_is_the_least_copy_at_any_batch_size(ray_session,
                                                             tmp_path,
                                                             monkeypatch):
    # copies of one file at different forks and commits tie on
    # (content_sha256, path); the winner order must still pick one copy
    # whatever the batch boundaries and arrival order
    from jsonld_js_ray.pipelines import kg
    table = _lineage_forks_table()
    # three files: their read tasks run in parallel, so copies reach the
    # writers in no fixed order
    corpus = _corpus(tmp_path, table, n_files=3)
    written = {}
    for batch_size in (64, 1024):
        out = str(tmp_path / f"bs{batch_size}")
        monkeypatch.setattr(kg, "BATCH_SIZE", batch_size)
        kg.run_kg_pipeline(corpus, out, resume=False)
        written[batch_size] = _lineage_rows(
            pads.dataset(out + "/quads", partitioning="hive").to_table())
    assert written[64] == written[1024]
    # expected: per (partition_id, quad), the least
    # (content_sha256, path, repo, commit) among the rows producing it
    quads = eq.ExpandToQuads()(extract_batch(table, num_partitions=64))
    least = {}
    for pid, *rest in zip(*[quads.column(c).to_pylist() for c in
                            ["partition_id", *QUAD_COLS, "content_sha256",
                             "path", "repo", "commit"]]):
        n = len(QUAD_COLS)
        quad, key = tuple(rest[:n]), tuple(rest[n:])
        least[(pid, quad)] = min(key, least.get((pid, quad), key))
    expected = {(pid, *quad, repo, path, commit, sha)
                for (pid, quad), (sha, path, repo, commit) in least.items()}
    assert written[1024] == expected


def test_exchange_groups_grow_with_input_bytes(tmp_path, monkeypatch):
    from jsonld_js_ray.pipelines import kg
    corpus = _corpus(tmp_path, generate_repo_files(200), n_files=2)
    files = checkpoint.input_files(corpus)
    size = sum(os.path.getsize(p) for _, p in files)
    monkeypatch.setattr(kg, "cluster_cpus", lambda: 4)
    # a small input: one group per CPU
    assert kg.plan(files)[1] == 4
    # past CPUs x GROUP_INPUT_BYTES: one group per GROUP_INPUT_BYTES
    monkeypatch.setattr(kg, "GROUP_INPUT_BYTES", size // 10)
    assert kg.plan(files)[1] == -(-size // (size // 10)) > 4
    # never more groups than partitions
    monkeypatch.setattr(kg, "GROUP_INPUT_BYTES", 1)
    assert kg.plan(files)[1] == kg.DEFAULT_PARTITIONS


def test_two_jobs_match_and_leave_no_actor(ray_session, tmp_path):
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    table = generate_repo_files(300)
    corpus = _corpus(tmp_path, table)
    expected = _oracle_pairs(table)
    jobs = []
    for i in range(2):
        out = str(tmp_path / f"out{i}")
        summary = run_kg_pipeline(corpus, out, resume=False)
        actors = _live_actors(lambda ids: not jobs or ids <= jobs[0][2])
        counts = {e["partition_id"]: (e["n_quads"], e["n_docs"])
                  for e in checkpoint.read_entries(out)}
        jobs.append((summary["n_quads"], counts, actors))
        assert _written_pairs(out) == expected
        assert not os.path.exists(os.path.join(out, "quads", "_spill"))
    assert jobs[0][0] > 0
    assert jobs[1][:2] == jobs[0][:2]
    # the second job started no actor that outlived it (an actor an
    # earlier test left may still be on its way out, hence no equality)
    assert jobs[1][2] <= jobs[0][2]


def test_failed_job_leaves_nothing_for_the_next_job(ray_session, tmp_path,
                                                    monkeypatch):
    import ray
    from jsonld_js_ray.pipelines import kg
    table = generate_repo_files(300)
    other = generate_repo_files(200, seed=11)
    good = _corpus(tmp_path, other, name="good")
    out = str(tmp_path / "out")
    kg.run_kg_pipeline(good, out, resume=False)
    before = _live_actors()

    # break the first page header of the middle file: its footer still
    # reads, so the job starts (and plans and samples the other files)
    # and fails in its read task
    corpus = _corpus(tmp_path, table, n_files=3)
    bad = os.path.join(corpus, "part-1.parquet")
    with open(bad, "r+b") as fh:
        fh.seek(4)
        fh.write(b"\xff" * 64)
    with pytest.raises(ray.exceptions.RayTaskError):
        kg.run_kg_pipeline(corpus, out, resume=False)
    assert not _job_committed(out)
    assert _live_actors(lambda ids: ids <= before) <= before

    # a job killed between its stream and its reduce leaves its spills
    os.remove(bad)

    def killed(self):
        raise RuntimeError("killed before the reduce")

    with monkeypatch.context() as m:
        m.setattr(kg.WriterPool, "finalize", killed)
        m.setattr(kg.WriterPool, "shutdown", lambda self: None)
        with pytest.raises(RuntimeError):
            kg.run_kg_pipeline(corpus, out, resume=False)
    spill_root = os.path.join(out, "quads", "_spill")
    assert any(_spills(os.path.join(spill_root, g))
               for g in os.listdir(spill_root))
    assert not _job_committed(out)

    # a job over a different corpus into the same out_dir writes exactly
    # that corpus's pairs: the killed job's spills never reach it
    kg.run_kg_pipeline(good, out, resume=False)
    assert _job_committed(out)
    assert _written_pairs(out) == _oracle_pairs(other)
    assert not os.path.exists(spill_root)
    assert _live_actors(lambda ids: ids <= before) <= before


_SMALL_SESSION_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import ray
ray.init(address="local", num_cpus=int(sys.argv[3]),
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from jsonld_js_ray.pipelines.kg import run_kg_pipeline
from jsonld_js_ray.sources.repo_files import repo_files_path_n
for i in range(2):
    m = run_kg_pipeline(repo_files_path_n(300), sys.argv[2] + str(i),
                        resume=False)
    print("DONE", m["n_quads"], flush=True)
ray.shutdown()
"""


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_pipeline_finishes_on_few_cpus(tmp_path, num_cpus):
    # every reduce task needs a CPU after the stream, and the map tasks
    # need one each too: on a 1- or 2-CPU session both phases must still
    # get their slots, and the second job must give the first's counts
    script = tmp_path / "run.py"
    script.write_text(_SMALL_SESSION_SCRIPT)
    proc = subprocess.Popen(
        [sys.executable, str(script), REPO_ROOT, str(tmp_path / "out"),
         str(num_cpus)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"run_kg_pipeline hung on a {num_cpus}-CPU Ray session")
    assert proc.returncode == 0
    done = [int(ln.split()[1]) for ln in stdout.splitlines()
            if ln.startswith("DONE")]
    assert len(done) == 2 and done[0] > 0 and done[1] == done[0]
