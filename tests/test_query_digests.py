"""The same-bytes gate: the KG and JSON-LD queries' outputs at sf0.001,
and the flagship's quads over that corpus with forked copies, hash to
the committed fixture (``scripts/query_digests.py``) in fresh Ray
sessions of 2 and 4 CPUs. A change in any row, column, dtype or dedup
winner, or a dependence on the host's core count, fails here."""

import json
import os
import signal
import subprocess
import sys

import pytest

from jsonld_js_ray.sources.repo_files import repo_files_path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "query_digests.py")
FIXTURE = os.path.join(REPO_ROOT, "tests", "fixtures", "query_digests.json")


def test_query_digests_match_the_fixture_at_2_and_4_cpus(tmp_path):
    # the KG queries read the repo-files corpus of the tier the sf dir is
    # named after; make it here, so the two sessions do not race to
    repo_files_path(0.001)
    sf_dir = tmp_path / "sf0.001"
    sf_dir.mkdir()
    with open(FIXTURE) as fh:
        expected = json.load(fh)["sf0.001"]
    procs = {n: subprocess.Popen(
        [sys.executable, SCRIPT, "--num-cpus", str(n), str(sf_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True) for n in (2, 4)}
    outputs = {}
    try:
        for n, proc in procs.items():
            outputs[n] = proc.communicate(timeout=240)[0]
    except subprocess.TimeoutExpired:
        pytest.fail("the query digests did not finish in 240 s")
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    for n, proc in procs.items():
        assert proc.returncode == 0, f"{n}-CPU session failed"
        got = json.loads(outputs[n].splitlines()[-1])
        assert got == expected, "at {} CPUs: {}".format(n, sorted(
            q for q in expected if got.get(q) != expected[q]))
