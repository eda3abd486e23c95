"""The KG pipeline's exchange: per-partition map-side dedup, one send per
writer actor, the per-worker expand-stage cache, session-lived writers,
and the fused task path on a small Ray session."""

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
from jsonld_js_ray.state import checkpoint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# run_kg_pipeline's writer-pool size on the 4-CPU test session
NUM_WRITERS = 2
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
def test_expand_batch_reuses_stage_per_snapshot_ref(ray_session, task, view):
    import ray
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    snapshot = build_context_snapshot()
    batch = extract_batch(generate_repo_files(40))
    ref1 = ray.put(snapshot)
    eq.expand_batch(batch, ref1)
    stage = eq._STAGE[1]
    out = task(batch, ref1)
    # the four task functions share one stage per snapshot
    assert eq._STAGE[1] is stage
    assert out.equals(view(eq.ExpandToQuads(snapshot_ref=snapshot), batch))
    ref2 = ray.put(snapshot)
    assert task(batch, ref2).equals(out)
    assert eq._STAGE[1] is not stage and eq._STAGE[0] == ref2


def test_expand_batch_cache_hits_across_tasks(ray_session):
    # the cache must survive from one Ray task to the next in the same
    # worker process, not only within one task
    import ray
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    ref = ray.put(build_context_snapshot())
    files = generate_repo_files(60)

    def tag(b):
        eq.expand_batch(b, ref)
        return pa.table({"pid": [os.getpid()], "stage": [id(eq._STAGE[1])]})

    ds = ray.data.from_arrow([extract_batch(files.slice(i, 10))
                              for i in range(0, 60, 10)])
    out = ds.map_batches(tag, batch_format="pyarrow",
                         concurrency=1).to_pandas()
    assert len(out) == 6
    stages_per_pid = out.groupby("pid")["stage"].nunique()
    assert (stages_per_pid == 1).all()
    assert out["pid"].nunique() < len(out)


class _RecordingWriter:
    """Stands in for an actor handle: records each ``add``."""

    def __init__(self, calls):
        self.calls = calls
        self.add = self

    def remote(self, table):
        import ray
        self.calls.append(table)
        return ray.put(table.num_rows)


def _hashed_quads(n_files=200):
    """Quads of ``n_files`` repo files, each twice (so the writers' dedup
    has work to do), spread over many partitions by document."""
    quads = eq.ExpandToQuads()(extract_batch(generate_repo_files(n_files)))
    pids = [int(sha[:8], 16) % 64
            for sha in quads.column("content_sha256").to_pylist()]
    quads = quads.set_column(quads.schema.get_field_index("partition_id"),
                             "partition_id", pa.array(pids, pa.int32()))
    return add_quad_hash(pa.concat_tables([quads, quads]), None)


def test_router_sends_once_per_writer(ray_session):
    from jsonld_js_ray.stages.partition_sink import make_router
    batch = _hashed_quads()
    num_writers = 4
    pids = set(batch.column("partition_id").to_pylist())
    assert len(pids) > 2 * num_writers
    calls = {w: [] for w in range(num_writers)}
    route = make_router([_RecordingWriter(calls[w])
                         for w in range(num_writers)], num_writers)
    out = route(batch)
    assert out.column("rows_routed").to_pylist() == [batch.num_rows]
    for w, sent in calls.items():
        assert len(sent) == 1
        got = set(sent[0].column("partition_id").to_pylist())
        assert got == {p for p in pids if p % num_writers == w}
    assert sum(t.num_rows for t in sum(calls.values(), [])) \
        == batch.num_rows


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
                                                      batch_size):
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    table = _forks_table()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(table, str(corpus / "part-0.parquet"))
    out = str(tmp_path / "out")
    summary = run_kg_pipeline(str(corpus), out, batch_size=batch_size,
                              resume=False)
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


def _live_writers(settled=lambda ids: True, timeout: float = 10.0) -> set:
    """IDs of the session's PartitionWriter actors that are not dead,
    polled until ``settled(ids)`` holds or ``timeout`` passes: a killed
    actor takes a moment to show as dead. (``ray.util.state`` needs the
    dashboard, which the test sessions do not start.)"""
    import ray
    deadline = time.monotonic() + timeout
    while True:
        ids = {a["ActorID"] for a in ray._private.state.actors().values()
               if a["ActorClassName"].endswith("PartitionWriter")
               and a["State"] != "DEAD"}
        if settled(ids) or time.monotonic() > deadline:
            return ids
        time.sleep(0.1)


def _corpus(tmp_path, table: pa.Table, n_files: int = 1) -> str:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step),
                       str(corpus / f"part-{i}.parquet"))
    return str(corpus)


def test_writer_seen_set_drops_duplicates_across_flushes(ray_session,
                                                         tmp_path):
    # _hashed_quads holds every quad twice, half the table apart: in
    # 40-row sends to one writer that flushes every 50 rows, the copies
    # of a quad land in different flush windows, so only the writer's
    # cross-flush seen-set can drop the second copy
    import ray
    from jsonld_js_ray.stages.partition_sink import WriterPool
    batch = _hashed_quads(50)
    expected = Counter(set(_pairs(batch)))
    results = {}
    for flush_rows in (50, 1_000_000):
        out = str(tmp_path / f"flush{flush_rows}")
        pool = WriterPool(out + "/quads", 1, dedup=True,
                          flush_rows=flush_rows)
        writer = pool.handles()[0]
        for i in range(0, batch.num_rows, 40):
            ray.get(writer.add.remote(batch.slice(i, 40)))
        counts = {pid: e["n_quads"] for pid, e in pool.finalize().items()}
        # a one-writer set is of no use to the other tests' jobs
        ray.kill(writer)
        results[flush_rows] = (counts, _written_pairs(out))
    _live_writers(lambda ids: len(ids) <= NUM_WRITERS)
    assert results[50] == results[1_000_000]
    counts, pairs = results[50]
    assert pairs == expected
    assert counts == Counter(pid for pid, *_ in expected.elements())


def test_failed_background_flush_fails_the_job(ray_session, tmp_path):
    # the first send fills a flush window, so a background thread
    # flushes it; a regular file where its partition's directory goes
    # makes that flush fail, and finalize must report it, not return the
    # later windows' counts as if the job were whole
    import ray
    from jsonld_js_ray.stages.partition_sink import WriterPool
    batch = _hashed_quads(50)
    pid = batch.column("partition_id")[0]
    first = batch.filter(pc.equal(batch["partition_id"], pid))
    rest = batch.filter(pc.not_equal(batch["partition_id"], pid))
    out = tmp_path / "quads"
    out.mkdir()
    (out / f"partition_id={pid.as_py()}").write_text("")
    pool = WriterPool(str(out), 1, dedup=True, flush_rows=first.num_rows)
    writer = pool.handles()[0]
    ray.get(writer.add.remote(first))
    ray.get(writer.add.remote(rest.slice(0, first.num_rows - 1)))
    with pytest.raises(ray.exceptions.RayTaskError):
        pool.finalize()
    pool.shutdown()
    _live_writers(lambda ids: len(ids) <= NUM_WRITERS)


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
                                                             tmp_path):
    # copies of one file at different forks and commits tie on
    # (content_sha256, path); the winner order must still pick one copy
    # whatever the batch boundaries and arrival order
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    table = _lineage_forks_table()
    # three files: their read tasks run in parallel, so copies reach the
    # writers in no fixed order
    corpus = _corpus(tmp_path, table, n_files=3)
    written = {}
    for batch_size in (64, 1024):
        out = str(tmp_path / f"bs{batch_size}")
        run_kg_pipeline(corpus, out, batch_size=batch_size, resume=False)
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


def test_second_job_reuses_and_resets_the_writers(ray_session, tmp_path):
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    table = generate_repo_files(300)
    corpus = _corpus(tmp_path, table)
    expected = _oracle_pairs(table)
    jobs = []
    for i in range(2):
        out = str(tmp_path / f"out{i}")
        summary = run_kg_pipeline(corpus, out, resume=False)
        writers = _live_writers(lambda ids: len(ids) == NUM_WRITERS)
        counts = {e["partition_id"]: (e["n_quads"], e["n_docs"])
                  for e in checkpoint.read_entries(out)}
        jobs.append((summary["n_quads"], counts, writers))
        assert _written_pairs(out) == expected
    assert jobs[0][0] > 0
    assert jobs[1][:2] == jobs[0][:2]
    assert len(jobs[0][2]) == NUM_WRITERS
    assert jobs[1][2] == jobs[0][2]


def test_lost_idle_writer_is_replaced(ray_session, tmp_path):
    import ray
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    from jsonld_js_ray.stages.partition_sink import WriterPool
    table = generate_repo_files(200)
    corpus = _corpus(tmp_path, table)
    run_kg_pipeline(corpus, str(tmp_path / "out0"), resume=False)
    old = _live_writers(lambda ids: len(ids) == NUM_WRITERS)
    # check the idle set out and back in, to get a handle to kill
    pool = WriterPool(str(tmp_path / "probe"), NUM_WRITERS)
    lost = pool.handles()[0]
    pool.finalize()
    pool.shutdown()
    ray.kill(lost)
    out = str(tmp_path / "out1")
    run_kg_pipeline(corpus, out, resume=False)
    assert _written_pairs(out) == _oracle_pairs(table)
    new = _live_writers(lambda ids: len(ids) == NUM_WRITERS)
    assert len(new) == NUM_WRITERS and not new & old


def test_failed_job_kills_its_writers(ray_session, tmp_path):
    import ray
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    table = generate_repo_files(300)
    corpus = _corpus(tmp_path, table, n_files=3)
    # break the first page header of the middle file: its footer still
    # reads, so the job starts (and plans and samples the other files)
    # and fails in its read task
    bad = os.path.join(corpus, "part-1.parquet")
    with open(bad, "r+b") as fh:
        fh.seek(4)
        fh.write(b"\xff" * 64)
    before = _live_writers()
    with pytest.raises(ray.exceptions.RayTaskError):
        run_kg_pipeline(corpus, str(tmp_path / "failed"), resume=False)
    assert _live_writers(lambda ids: ids <= before) <= before
    os.remove(bad)
    out = str(tmp_path / "out")
    run_kg_pipeline(corpus, out, resume=False)
    good = pa.concat_tables([table.slice(0, 100), table.slice(200)])
    assert _written_pairs(out) == _oracle_pairs(good)
    assert len(_live_writers(lambda ids: len(ids) == NUM_WRITERS)) \
        == NUM_WRITERS


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
    # writers that reserved CPU used to leave a small session no slot for
    # the read or map tasks; the second job runs on the first's writers
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
