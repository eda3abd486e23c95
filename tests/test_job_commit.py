"""The KG job is the unit of commit (state/checkpoint.py): a rerun over
an unchanged input returns the committed summary, and every other run
equals a clean run."""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from jsonld_js_ray.pipelines import kg
from jsonld_js_ray.sources.repo_files import repo_files_path_n
from jsonld_js_ray.state import checkpoint
from tests.test_kg_exchange import _written_pairs

pytestmark = pytest.mark.usefixtures("ray_session")


def _clean_run(tmp_path, corpus):
    out = str(tmp_path / "clean")
    summary = kg.run_kg_pipeline(corpus, out, resume=False)
    return summary, _written_pairs(out)


def _assert_clean(out, summary, clean_run):
    want, pairs = clean_run
    assert (summary["n_quads"], summary["n_partitions"]) \
        == (want["n_quads"], want["n_partitions"])
    assert _written_pairs(out) == pairs


def _committed_summary(out):
    with open(os.path.join(out, "_manifest", "job.json")) as fh:
        return json.load(fh)


def _a_partition_dir(out):
    quads = os.path.join(out, "quads")
    return os.path.join(quads, min(n for n in os.listdir(quads)
                                   if n.startswith("partition_id=")))


def test_rerun_on_committed_output_returns_its_summary(tmp_path,
                                                       monkeypatch):
    corpus, out = repo_files_path_n(300), str(tmp_path / "out")
    first = kg.run_kg_pipeline(corpus, out)
    job_json = tmp_path / "out" / "_manifest" / "job.json"
    committed = job_json.read_bytes()
    launched = []
    map_unit = kg._map_unit

    class MapUnit:
        @staticmethod
        def remote(*args):
            launched.append(args)
            return map_unit.remote(*args)

    monkeypatch.setattr(kg, "_map_unit", MapUnit)
    again = kg.run_kg_pipeline(corpus, out)
    assert again == first == json.loads(committed)
    assert job_json.read_bytes() == committed
    assert launched == [], "a committed rerun started Ray work"

    # the hook sees the launches of a job that does run
    kg.run_kg_pipeline(corpus, out, resume=False)
    assert len(launched) == len(kg.plan(checkpoint.input_files(corpus))[0])


def test_other_corpus_into_committed_output_equals_clean_run(tmp_path):
    out = str(tmp_path / "out")
    first = kg.run_kg_pipeline(repo_files_path_n(300), out)
    summary = kg.run_kg_pipeline(repo_files_path_n(600), out)
    _assert_clean(out, summary, _clean_run(tmp_path, repo_files_path_n(600)))
    assert summary["input_fingerprint"] != first["input_fingerprint"]
    assert _committed_summary(out) == summary


def test_rewritten_input_file_is_recomputed(tmp_path):
    corpus, out = str(tmp_path / "corpus"), str(tmp_path / "out")
    shutil.copytree(repo_files_path_n(300), corpus)
    first = kg.run_kg_pipeline(corpus, out)
    # the same path, now holding half its rows
    path = os.path.join(corpus, min(n for n in os.listdir(corpus)
                                    if n.endswith(".parquet")))
    table = pq.read_table(path)
    pq.write_table(table.slice(0, table.num_rows // 2), path)
    summary = kg.run_kg_pipeline(corpus, out)
    clean = _clean_run(tmp_path, corpus)
    assert clean[0]["n_quads"] < first["n_quads"]
    _assert_clean(out, summary, clean)


def test_kill_before_commit_resumes_to_clean_run(tmp_path):
    corpus, out = repo_files_path_n(300), str(tmp_path / "out")
    kg.run_kg_pipeline(corpus, out)
    # a kill after the partition entries and before the commit, with one
    # partition's files not (yet) on disk
    os.remove(os.path.join(out, "_manifest", "job.json"))
    shutil.rmtree(_a_partition_dir(out))
    summary = kg.run_kg_pipeline(corpus, out, resume=True)
    _assert_clean(out, summary, _clean_run(tmp_path, corpus))
    assert _committed_summary(out) == summary


def test_fresh_run_clears_stale_partitions(tmp_path):
    corpus, out = repo_files_path_n(300), str(tmp_path / "out")
    kg.run_kg_pipeline(corpus, out, resume=False)
    # a partition no run of this corpus writes, left by an earlier job
    shutil.copytree(_a_partition_dir(out),
                    os.path.join(out, "quads", "partition_id=9999"))
    summary = kg.run_kg_pipeline(corpus, out, resume=False)
    _assert_clean(out, summary, _clean_run(tmp_path, corpus))
