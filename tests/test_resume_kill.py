"""Resume-after-kill completeness (FIXTURES.md §4): a run killed
mid-flight must, after resume, produce exactly the same output as a
clean run. The killed job never committed, so the resumed run deletes
its partial output and recomputes the whole job.

The run is killed at a fixed point, set inside the child script, never
by timing: mid-stream (a map task has spilled its first slice and
blocks), or after the first manifest entry is written and before
``job.json`` commits the job (the driver blocks). The spills a killed
run leaves never reach the resumed output."""

import os
import signal
import subprocess
import sys
import time

import pandas as pd
import pyarrow.dataset as pads
import pytest

from jsonld_js_ray.stages.dedup import QUAD_COLS
from jsonld_js_ray.state import checkpoint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv: checkout, out_dir, kill point, marker file. The run touches the
# marker when it reaches the kill point, then blocks until killed.
_RUN_SCRIPT = """
import sys
import time
sys.path.insert(0, sys.argv[1])
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from jsonld_js_ray.pipelines import kg
from jsonld_js_ray.sources.repo_files import repo_files_path_n
from jsonld_js_ray.state import checkpoint
out_dir, kill_point, marker = sys.argv[2:5]


def block_here():
    open(marker, "w").close()
    time.sleep(600)


if kill_point == "mid_stream":
    # runs in the map tasks: route the first slice, then block
    route_quads = kg._route_quads

    def route_then_block(batch, name, route):
        route_quads(batch, name, route)
        block_here()

    kg._route_quads = route_then_block
else:
    # runs in this driver: one entry on disk, no job.json
    write_partition_entry = checkpoint.write_partition_entry

    def write_then_block(*args, **kwargs):
        write_partition_entry(*args, **kwargs)
        block_here()

    checkpoint.write_partition_entry = write_then_block

corpus = repo_files_path_n(2000)
kg.BATCH_SIZE = 64
m = kg.run_kg_pipeline(corpus, out_dir)
print("DONE", m["n_quads"], flush=True)
ray.shutdown()
"""


def _wait_group_gone(pgid: int, timeout: float = 30.0):
    """Wait until no process of group ``pgid`` is left."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)
    pytest.fail(f"processes of group {pgid} outlived SIGKILL")


def _kill_at(tmp_path, out_dir: str, kill_point: str):
    """Run the job in a child process and SIGKILL its process group once
    the job has reached ``kill_point``."""
    script = str(tmp_path / "run.py")
    with open(script, "w") as fh:
        fh.write(_RUN_SCRIPT)
    marker = str(tmp_path / "at_kill_point")
    log_path = str(tmp_path / "run.log")
    # its own process group, so the kill reaches the run's Ray processes
    # too, not only the script process; started in this checkout, as Ray
    # workers import from the driver's cwd first
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, script, REPO_ROOT, out_dir, kill_point, marker],
            cwd=REPO_ROOT, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
    try:
        deadline = time.monotonic() + 180
        while not os.path.exists(marker):
            if proc.poll() is not None or time.monotonic() > deadline:
                with open(log_path) as fh:
                    pytest.fail(f"run never reached {kill_point}:\n"
                                + fh.read()[-2000:])
            time.sleep(0.05)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        _wait_group_gone(proc.pid)


@pytest.fixture(scope="module")
def clean_run(ray_session, tmp_path_factory):
    """A clean run of the job (in the test's Ray session): its summary
    and output dir."""
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    from jsonld_js_ray.sources.repo_files import repo_files_path_n
    out = str(tmp_path_factory.mktemp("clean"))
    return run_kg_pipeline(repo_files_path_n(2000), out, resume=False), out


@pytest.mark.parametrize("kill_point", ["mid_stream", "entries_written"])
def test_kill_and_resume_matches_clean_run(tmp_path, clean_run, kill_point):
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    from jsonld_js_ray.sources.repo_files import repo_files_path_n
    clean, out_clean = clean_run
    out_killed = str(tmp_path / "killed")
    _kill_at(tmp_path, out_killed, kill_point)

    # killed before the commit: no job.json; at the first point the
    # spills of the stream so far are on disk, at the second the entries
    # of a finished stream
    job = os.path.join(checkpoint.manifest_dir(out_killed), "job.json")
    assert not os.path.exists(job)
    spill_root = os.path.join(out_killed, "quads", "_spill")
    if kill_point == "entries_written":
        assert len(checkpoint.read_entries(out_killed)) >= 1
    else:
        assert any(os.listdir(os.path.join(spill_root, g))
                   for g in os.listdir(spill_root))

    # resume (in the test's Ray session): nothing was committed, so the
    # whole job is recomputed
    resumed = run_kg_pipeline(repo_files_path_n(2000), out_killed,
                              resume=True)
    assert resumed["n_quads"] == clean["n_quads"]
    assert not os.path.exists(spill_root)

    t_clean = pads.dataset(out_clean + "/quads",
                           partitioning="hive").to_table()
    t_res = pads.dataset(out_killed + "/quads",
                         partitioning="hive").to_table()
    cols = QUAD_COLS + ["repo", "path", "content_sha256"]
    a = (t_clean.to_pandas()[cols].sort_values(cols, kind="stable")
         .reset_index(drop=True))
    b = (t_res.to_pandas()[cols].sort_values(cols, kind="stable")
         .reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)

    # manifest complete for every partition present
    entries = {e["partition_id"]: e for e in
               checkpoint.read_entries(out_killed)}
    present = {int(name.split("=", 1)[1])
               for name in os.listdir(out_killed + "/quads")
               if name.startswith("partition_id=")}
    assert present <= set(entries.keys())
