"""The KG read's units and the in-task kernel batch: the output must not
depend on how the input is sharded into files, an input with at least as
many files as CPUs must be read one unit (and one view task) per file,
and the kernel must see at most ``batch_size`` rows at a time."""

import functools
import re

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from jsonld_js_ray.pipelines import kg
from jsonld_js_ray.sources.contexts import build_context_snapshot
from jsonld_js_ray.sources.repo_files import generate_repo_files
from jsonld_js_ray.stages.expand_quads import status_batch
from jsonld_js_ray.state import checkpoint
from jsonld_js_ray.util_ray import cluster_cpus
from tests.test_kg_exchange import (_corpus, _lineage_forks_table,
                                    _lineage_rows)

pytestmark = pytest.mark.usefixtures("ray_session")


def _sharded(tmp_path, table: pa.Table, n_files: int) -> str:
    """``table`` as ``n_files`` Parquet files in a fresh directory."""
    home = tmp_path / f"files{n_files}"
    home.mkdir()
    return _corpus(home, table, n_files)


def _operators(stats: str) -> list:
    """The operator names in a ``Dataset.stats()`` report."""
    return re.findall(r"^Operator \d+ (\S+):", stats, re.M)


@pytest.mark.parametrize("batch_size", [64, 1024])
def test_output_does_not_depend_on_input_sharding(tmp_path, batch_size):
    # 1 and 3 files: the rows are cut into one range per CPU (4 read
    # units on 4 CPUs), and the view's map is its own operator; 8 files:
    # one unit per file, and the view's read and map fuse. The file
    # count is what sets how many map tasks run, so this is also the
    # check that output does not depend on parallelism.
    assert 3 < cluster_cpus() <= 8
    # copies across forks and commits, so the winner rule decides rows
    table = _lineage_forks_table()
    results = {}
    for n_files in (1, 3, 8):
        corpus = _sharded(tmp_path, table, n_files)
        out = str(tmp_path / f"out{n_files}")
        kg.run_kg_pipeline(corpus, out, batch_size=batch_size,
                           resume=False)
        counts = {e["partition_id"]: e["n_quads"]
                  for e in checkpoint.read_entries(out)}
        rows = _lineage_rows(
            pads.dataset(out + "/quads", partitioning="hive").to_table())
        status = kg.map_docs(kg.read_repo_files(corpus), status_batch,
                             batch_size=batch_size).to_pandas()
        status = sorted(map(tuple, status.astype(str).to_numpy()))
        results[n_files] = (counts, rows, status)
    counts, rows, status = results[1]
    assert sum(counts.values()) == len(rows) > 0
    assert len(status) == table.num_rows
    assert results[3] == results[1]
    assert results[8] == results[1]


def test_as_many_files_as_cpus_run_as_one_operator(tmp_path):
    corpus = _sharded(tmp_path, generate_repo_files(200), cluster_cpus())
    ds = kg.map_docs(kg.read_repo_files(corpus), status_batch).materialize()
    assert _operators(ds.stats()) == ["ReadParquet->MapBatches(docs_task)"]


def test_read_units_are_files_or_one_per_cpu(tmp_path):
    table = generate_repo_files(200)
    corpus = _sharded(tmp_path, table, cluster_cpus())
    assert kg.read_units(corpus) == [
        [(path, 0, pq.read_metadata(path).num_rows)]
        for _, path in checkpoint.input_files(corpus)]

    # 1 and 3 files: one row range per CPU, of near-equal size, which
    # together read every row once, in file order, in batches of at most
    # batch_size rows
    bounds = [200 * k // cluster_cpus() for k in range(cluster_cpus() + 1)]
    for n_files in (1, 3):
        units = kg.read_units(_sharded(tmp_path, table, n_files))
        for batch_size in (16, 1024):
            read = [list(kg.read_unit(unit, batch_size)) for unit in units]
            assert max(t.num_rows for r in read for t in r) <= batch_size
            assert [sum(t.num_rows for t in r) for r in read] == [
                hi - lo for lo, hi in zip(bounds, bounds[1:])]
            assert pa.concat_tables(t for r in read for t in r).equals(
                table.select(kg.REPO_COLUMNS))
    # with 3 files some ranges span two files
    assert max(len(unit) for unit in units) == 2


def test_input_of_no_rows_has_no_read_unit(tmp_path):
    corpus = _sharded(tmp_path, generate_repo_files(10).slice(0, 0), 1)
    assert kg.read_units(corpus) == []
    assert kg.read_repo_files(corpus).count() == 0
    summary = kg.run_kg_pipeline(corpus, str(tmp_path / "out"),
                                 resume=False)
    assert (summary["n_quads"], summary["n_partitions"]) == (0, 0)


def test_one_file_reads_one_block_per_cpu(tmp_path):
    corpus = _sharded(tmp_path, generate_repo_files(200), 1)
    assert kg.read_repo_files(corpus).materialize().num_blocks() \
        == cluster_cpus()


def test_kg_map_hands_the_kernel_batch_size_rows(monkeypatch):
    expanded, routed = [], []
    expand = kg.expand_batch

    def recording_expand(batch, snapshot_ref):
        expanded.append(batch.num_rows)
        return expand(batch, snapshot_ref)

    def recording_route(batch):
        routed.append(batch)
        return pa.table({"rows_routed": [batch.num_rows]})

    monkeypatch.setattr(kg, "expand_batch", recording_expand)
    out = list(kg.docs_task(generate_repo_files(3000),
                            functools.partial(kg._route_quads,
                                              route=recording_route),
                            snapshot_ref=build_context_snapshot(),
                            batch_size=1024))
    assert expanded == [1024, 1024, 952]
    assert len(routed) == len(out) == 3
    # nothing downstream reads a quad hash, so the map computes none
    assert not any("quad_hash2" in t.column_names for t in routed)
