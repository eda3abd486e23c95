"""The KG pipeline's exchange: per-partition map-side dedup, one send per
writer actor, the per-worker expand-stage cache, and the fused task path
on a small Ray session."""

import json
import os
import signal
import subprocess
import sys
import zlib

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from jsonld_js_ray.sources.repo_files import generate_repo_files
from jsonld_js_ray.stages import expand_quads as eq
from jsonld_js_ray.stages.dedup import (QUAD_COLS, add_quad_hash,
                                        partial_dedup_batch)
from jsonld_js_ray.stages.extract import extract_batch

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


def test_expand_batch_reuses_stage_per_snapshot_ref(ray_session):
    import ray
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    snapshot = build_context_snapshot()
    batch = extract_batch(generate_repo_files(40))
    ref1 = ray.put(snapshot)
    out = eq.expand_batch(batch, ref1)
    stage = eq._STAGE[1]
    assert out.equals(eq.ExpandToQuads(snapshot_ref=snapshot)(batch))
    eq.expand_batch(batch, ref1)
    assert eq._STAGE[1] is stage
    ref2 = ray.put(snapshot)
    assert eq.expand_batch(batch, ref2).equals(out)
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


_TWO_CPU_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from jsonld_js_ray.pipelines.kg import run_kg_pipeline
from jsonld_js_ray.sources.repo_files import repo_files_path_n
m = run_kg_pipeline(repo_files_path_n(300), sys.argv[2], resume=False)
print("DONE", m["n_quads"], flush=True)
ray.shutdown()
"""


def test_pipeline_finishes_on_two_cpus(tmp_path):
    # two 0.5-CPU writers used to leave a 2-CPU session no slot for the
    # read task once the expand actor took the other CPU
    script = tmp_path / "run.py"
    script.write_text(_TWO_CPU_SCRIPT)
    proc = subprocess.Popen(
        [sys.executable, str(script), REPO_ROOT, str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_kg_pipeline hung on a 2-CPU Ray session")
    assert proc.returncode == 0
    done = [ln for ln in stdout.splitlines() if ln.startswith("DONE")]
    assert done and int(done[0].split()[1]) > 0
