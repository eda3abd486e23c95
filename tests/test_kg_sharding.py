"""The KG read's units and the in-task kernel batch: the output must not
depend on how the input is sharded into files, an input with at least as
many files as CPUs must be read one unit per file, and the kernel must
see at most ``batch_size`` rows at a time. The views (``map_docs``) run
in the same map tasks and read their slice files back."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray

from jsonld_js_ray.pipelines import kg
from jsonld_js_ray.pipelines.entity_link import merge_entities
from jsonld_js_ray.sources.contexts import build_context_snapshot
from jsonld_js_ray.sources.repo_files import generate_repo_files
from jsonld_js_ray.stages.expand_quads import expand_batch, status_batch
from jsonld_js_ray.stages.extract import extract_batch
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


@pytest.mark.parametrize("batch_size", [64, 1024])
def test_output_does_not_depend_on_input_sharding(tmp_path, batch_size):
    # 1 and 3 files: the rows are cut into one range per CPU (4 read
    # units on 4 CPUs); 8 files: one unit per file. The file
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
        status = kg.map_docs(corpus, status_batch,
                             str(tmp_path / f"status{n_files}"),
                             batch_size=batch_size).to_pandas()
        status = sorted(map(tuple, status.astype(str).to_numpy()))
        # the two aggregates, whose exchange keys on subject: copies of
        # one document land in different units and slices
        summary = kg.entity_summary(corpus, str(tmp_path / f"ent{n_files}"),
                                    batch_size=batch_size).to_pandas()
        nodes = merge_entities(corpus, str(tmp_path / f"nodes{n_files}"),
                               batch_size=batch_size).to_pandas()
        results[n_files] = (counts, rows, status, _row_list(summary),
                            _row_list(nodes))
    counts, rows, status, summary, nodes = results[1]
    assert sum(counts.values()) == len(rows) > 0
    assert len(status) == table.num_rows
    assert results[3] == results[1]
    assert results[8] == results[1]
    # n_docs counts each subject's distinct contents, not its copies
    quads = expand_batch(extract_batch(table), build_context_snapshot())
    per_subject = quads.to_pandas().groupby("subject")
    assert summary == _row_list(per_subject.agg(
        n_quads=("content_sha256", "size"),
        n_docs=("content_sha256", "nunique")).reset_index())
    # copies: some subject has more quads than distinct documents
    assert any(n_docs < n_quads for n_docs, n_quads, _ in summary)
    assert len(nodes) == len(summary)


def _row_list(df) -> list:
    """``df``'s rows as sorted tuples, columns in name order."""
    return sorted(map(tuple, df[sorted(df.columns)].to_numpy().tolist()))


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


def _view_columns(task) -> list:
    """The columns of ``task``'s view over rows that have JSON-LD."""
    return task(extract_batch(generate_repo_files(20)),
                build_context_snapshot()).column_names


def test_input_of_no_rows_has_no_read_unit(tmp_path):
    corpus = _sharded(tmp_path, generate_repo_files(10).slice(0, 0), 1)
    assert kg.read_units(corpus) == []
    # an empty view with the view's columns
    status = kg.map_docs(corpus, status_batch, str(tmp_path / "status"))
    assert status.columns() == _view_columns(status_batch)
    assert status.count() == 0
    summary = kg.run_kg_pipeline(corpus, str(tmp_path / "out"),
                                 resume=False)
    assert (summary["n_quads"], summary["n_partitions"]) == (0, 0)
    # and empty aggregates with their columns
    for query, columns in (
            (kg.entity_summary, ["subject", "n_quads", "n_docs"]),
            (merge_entities, ["graph", "subject", "node_json", "n_values"])):
        out = query(corpus, str(tmp_path / query.__name__))
        assert out.columns() == columns
        assert out.count() == 0


def test_view_without_jsonld_is_empty_with_the_view_columns(tmp_path):
    table = generate_repo_files(200)
    table = table.filter(pc.invert(pc.is_in(
        table["lang"], value_set=pa.array(["jsonld", "json"]))))
    assert table.num_rows > 0
    corpus = _sharded(tmp_path, table, 2)
    quads = kg.map_docs(corpus, expand_batch, str(tmp_path / "quads"))
    assert quads.columns() == _view_columns(expand_batch)
    assert quads.count() == 0


def test_view_slice_files_are_named_by_unit_and_slice(tmp_path):
    # 2 files on 4 CPUs: 4 units of 50 rows, in slices of at most 32
    corpus = _sharded(tmp_path, generate_repo_files(200), 2)
    runs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        ds = kg.map_docs(corpus, status_batch, out, batch_size=32)
        blocks = sorted(repr(ray.get(ref).to_pylist())
                        for ref in ds.to_arrow_refs())
        runs.append((sorted(os.listdir(out)), blocks))
    assert runs[0][0] == [
        f"part-{k:05d}-{i:05d}.parquet"
        for k, unit in enumerate(kg.read_units(corpus))
        for i, _ in enumerate(kg.read_unit(unit, 32))]
    # two runs read back the same blocks
    assert runs[1] == runs[0]


def test_kg_map_hands_the_kernel_batch_size_rows(tmp_path):
    # one unit per file; the first file holds 3000 rows
    table = generate_repo_files(3000 + 10 * (cluster_cpus() - 1))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(table.slice(0, 3000), corpus / "part-0.parquet")
    for k in range(1, cluster_cpus()):
        pq.write_table(table.slice(3000 + 10 * (k - 1), 10),
                       corpus / f"part-{k}.parquet")

    def recording_route_quads(batch, snapshot_ref):
        def route(quads):
            # nothing downstream reads a quad hash, so the map computes
            # none
            return pa.table({"rows": [batch.num_rows], "quad_hash": [
                "quad_hash2" in quads.column_names]})
        return kg._route_quads(batch, snapshot_ref, route)

    seen = kg.map_docs(str(corpus), recording_route_quads,
                       str(tmp_path / "seen"), batch_size=1024).to_pandas()
    assert sorted(seen["rows"]) == sorted(
        [1024, 1024, 952] + [10] * (cluster_cpus() - 1))
    assert not seen["quad_hash"].any()
