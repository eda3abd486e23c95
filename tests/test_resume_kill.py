"""Resume-after-kill completeness (FIXTURES.md §4): a run killed
mid-flight must, after resume, produce exactly the same output as a
clean run. The killed job never committed, so the resumed run deletes
its partial output and recomputes the whole job."""

import json
import os
import signal
import subprocess
import sys
import time

import pandas as pd
import pyarrow.dataset as pads
import pytest

from jsonld_js_ray.stages.dedup import QUAD_COLS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_RUN_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from jsonld_js_ray.pipelines.kg import run_kg_pipeline
from jsonld_js_ray.sources.repo_files import repo_files_path_n
corpus = repo_files_path_n(2000)
print("START", flush=True)
m = run_kg_pipeline(corpus, sys.argv[2], concurrency=1, batch_size=64)
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


@pytest.mark.usefixtures("ray_session")
def test_kill_and_resume_matches_clean_run(tmp_path):
    out_killed = str(tmp_path / "killed")
    out_clean = str(tmp_path / "clean")

    # clean reference run (in-process)
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    from jsonld_js_ray.sources.repo_files import repo_files_path_n
    corpus = repo_files_path_n(2000)
    clean = run_kg_pipeline(corpus, out_clean, resume=False)

    # start a subprocess run and kill it mid-flight
    script = str(tmp_path / "run.py")
    with open(script, "w") as fh:
        fh.write(_RUN_SCRIPT)
    # its own process group, so the kill reaches the run's Ray processes
    # too, not only the script process; started in this checkout, as Ray
    # workers import from the driver's cwd first
    proc = subprocess.Popen([sys.executable, script, REPO_ROOT, out_killed],
                            cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # wait for pipeline start, then give it a moment and kill hard
    start = time.time()
    while time.time() - start < 60:
        line = proc.stdout.readline()
        if "START" in line:
            break
    time.sleep(4.0)
    # (if the run finished before the kill, that is still fine)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    _wait_group_gone(proc.pid)

    # resume (in the test's Ray session)
    resumed = run_kg_pipeline(corpus, out_killed, resume=True)

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
    from jsonld_js_ray.state import checkpoint
    entries = {e["partition_id"]: e for e in
               checkpoint.read_entries(out_killed)}
    present = {int(name.split("=", 1)[1])
               for name in os.listdir(out_killed + "/quads")
               if name.startswith("partition_id=")}
    assert present <= set(entries.keys())
