"""The KG map tasks: every read unit starts at once, even under a small
object store, for the flagship job and for a view (``map_docs``) alike,
and a failed unit stops the others before the job cleans up its
spills."""

import os
import subprocess
import sys
import time
import uuid

import pyarrow as pa
import pytest

from jsonld_js_ray.pipelines import kg
from jsonld_js_ray.sources.repo_files import generate_repo_files
from jsonld_js_ray.util_ray import cluster_cpus
from tests.test_kg_exchange import _corpus, _job_committed

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RAY_CPUS = 4

# argv: checkout, corpus, out dir, marker dir. Each map unit of the job,
# then of the view, touches a marker in <marker dir>/job or /view, then
# waits until every unit has touched one; a unit that waits 30 s fails
# the run.
_RUN_SCRIPT = """
import os
import sys
import time
import uuid
sys.path.insert(0, sys.argv[1])
import ray
ray.init(address="local", num_cpus=%d, include_dashboard=False,
         logging_level="ERROR", object_store_memory=256 * 1024 * 1024)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from jsonld_js_ray.pipelines import kg
from jsonld_js_ray.stages.expand_quads import status_batch
corpus, out_dir, markers = sys.argv[2:5]
n_units = %d  # one per input file
route_quads = kg._route_quads


def wait_for_all_units(run):
    marker_dir = os.path.join(markers, run)
    open(os.path.join(marker_dir, uuid.uuid4().hex), "w").close()
    deadline = time.monotonic() + 30
    while len(os.listdir(marker_dir)) < n_units:
        if time.monotonic() > deadline:
            raise TimeoutError(f"{len(os.listdir(marker_dir))} of "
                               f"{n_units} {run} map units started")
        time.sleep(0.05)


def route_once_all_started(batch, name, route):
    wait_for_all_units("job")
    route_quads(batch, name, route)


def status_once_all_started(batch):
    wait_for_all_units("view")
    return status_batch(batch)


kg._route_quads = route_once_all_started
m = kg.run_kg_pipeline(corpus, os.path.join(out_dir, "job"), resume=False)
print("DONE job", m["n_quads"], flush=True)
view = kg.map_docs(corpus, status_once_all_started,
                   os.path.join(out_dir, "view"))
print("DONE view", view.count(), flush=True)
ray.shutdown()
""" % (RAY_CPUS, RAY_CPUS)


def test_all_map_units_run_at_once(tmp_path):
    # as many files as CPUs, under kgbench's 256 MiB object store: one
    # wave of map tasks, not one task and then the rest
    corpus = _corpus(tmp_path, generate_repo_files(200), RAY_CPUS)
    markers = tmp_path / "markers"
    for run in ("job", "view"):
        (markers / run).mkdir(parents=True)
    script = tmp_path / "run.py"
    script.write_text(_RUN_SCRIPT)
    # started in this checkout, as Ray workers import from the driver's
    # cwd first
    proc = subprocess.run(
        [sys.executable, str(script), REPO_ROOT, corpus,
         str(tmp_path / "out"), str(markers)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=180)
    assert "DONE view 200" in proc.stdout, \
        proc.stdout[-2000:] + proc.stderr[-2000:]
    for run in ("job", "view"):
        assert len(os.listdir(markers / run)) == RAY_CPUS


def test_failed_map_unit_stops_the_others_before_clean_up(
        ray_session, tmp_path, monkeypatch):
    # one file per CPU, 5 slices of 10 rows per file; the first file's
    # rows under a planted repo name
    n_files = cluster_cpus()
    table = generate_repo_files(50 * n_files)
    repo = table.column("repo").to_pylist()
    repo[:50] = ["planted/failing"] * 50
    table = table.set_column(table.schema.get_field_index("repo"), "repo",
                             pa.array(repo))
    corpus = _corpus(tmp_path, table, n_files)
    out = str(tmp_path / "out")
    stop = os.path.join(out, "quads", "_spill", "_stop")
    entered, routed = tmp_path / "entered", tmp_path / "routed"
    entered.mkdir()
    routed.mkdir()
    entered_dir, routed_dir = str(entered), str(routed)
    route_quads = kg._route_quads

    def route_or_raise(batch, name, route):
        if batch.column("repo")[0].as_py() == "planted/failing":
            # fail once another unit is mid-slice; the session may have
            # fewer free CPUs than units, so not all of them need be
            deadline = time.monotonic() + 30
            while not os.listdir(entered_dir) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ValueError("planted map failure")
        open(os.path.join(entered_dir, uuid.uuid4().hex), "w").close()
        # the other units hold each slice until they are told to stop (at
        # most 5 s), then 0.5 s more, so that a driver that does not wait
        # for them returns first
        deadline = time.monotonic() + 5
        while not os.path.exists(stop) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        with open(os.path.join(routed_dir, uuid.uuid4().hex), "w") as fh:
            fh.write(repr(time.time()))
        route_quads(batch, name, route)

    monkeypatch.setattr(kg, "_route_quads", route_or_raise)
    monkeypatch.setattr(kg, "BATCH_SIZE", 10)
    with pytest.raises(ValueError, match="planted map failure"):
        kg.run_kg_pipeline(corpus, out, resume=False)
    returned = time.time()
    # longer than a unit that never sees the stop file holds its slice
    time.sleep(6)
    assert not _job_committed(out)
    assert not os.path.exists(os.path.join(out, "quads", "_spill"))
    # told to stop: each other unit that was running routed the slice it
    # was in, not the 4 after it, and a unit that had not started routed
    # none; and waited for: none routed after the call returned
    slices = [float((routed / name).read_text())
              for name in os.listdir(routed_dir)]
    assert 1 <= len(slices) <= n_files - 1
    assert all(t <= returned for t in slices)
