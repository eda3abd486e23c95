"""The benchmark's own tests.

    python3 -m pytest kgbench/test_kgbench.py -q

Run from the repository root. The output-format tests run the
``kg_mixed`` workload for one second, once per mode (about 30 s each).
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import inputs  # noqa: E402
import oracle  # noqa: E402


def _corpus(workload: str, seed: int, out: str) -> list[str]:
    inputs.write_corpus(inputs.kg_table(workload, seed, 120), out)
    return sorted(os.listdir(out))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a, b, c = (str(tmp_path / n) for n in "abc")
    files = _corpus(workload, 5, a)
    assert files == _corpus(workload, 5, b)
    _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    assert not mismatch and not errors
    _corpus(workload, 6, c)
    _, mismatch, _ = filecmp.cmpfiles(a, c, files, shallow=False)
    assert mismatch, "a different seed must give different inputs"


def test_api_docs_follow_the_seed():
    assert inputs.api_docs(5, 20) == inputs.api_docs(5, 20)
    assert inputs.api_docs(5, 20) != inputs.api_docs(6, 20)


@pytest.fixture(scope="module")
def forks_expected():
    from jsonld_js_ray.pipelines.kg import DEFAULT_PARTITIONS
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    table = inputs.kg_table("kg_forks", 3, 400)
    return oracle.expected_pairs(table, build_context_snapshot(),
                                 DEFAULT_PARTITIONS)


def _quad_partitions(expected):
    parts: dict = {}
    for pid, quad in expected:
        parts.setdefault(quad, set()).add(pid)
    return parts


def test_oracle_accepts_exact_output(forks_expected):
    verdict = oracle.compare(forks_expected, list(forks_expected))
    assert verdict["ok"] and verdict["quad_error_frac"] == 0


def test_oracle_flags_planted_missing_quad(forks_expected):
    parts = _quad_partitions(forks_expected)
    lone = next(p for p in forks_expected if len(parts[p[1]]) == 1)
    written = [p for p in forks_expected if p != lone]
    verdict = oracle.compare(forks_expected, written)
    assert not verdict["ok"]
    assert verdict["missing"] == 1 and verdict["unexplained_missing"] == 1
    assert verdict["quad_error_frac"] > 0


def test_oracle_flags_planted_duplicate_quad(forks_expected):
    written = list(forks_expected)
    written.append(written[0])
    verdict = oracle.compare(forks_expected, written)
    assert not verdict["ok"]
    assert verdict["extra"] == 1 and verdict["quad_error_frac"] > 0


def test_oracle_flags_planted_foreign_quad(forks_expected):
    pid, quad = next(iter(forks_expected))
    written = list(forks_expected) + [(pid, quad[:3] + ("planted",)
                                       + quad[4:])]
    verdict = oracle.compare(forks_expected, written)
    assert not verdict["ok"] and verdict["extra"] == 1


def test_oracle_reports_cross_partition_loss(forks_expected):
    # the known batch-dedup defect: a quad shared by several partitions
    # written to only one of them is counted, not failed
    parts = _quad_partitions(forks_expected)
    shared = next(p for p in forks_expected if len(parts[p[1]]) > 1)
    written = [p for p in forks_expected if p != shared]
    verdict = oracle.compare(forks_expected, written)
    assert verdict["ok"]
    assert verdict["cross_partition_missing"] == 1
    assert verdict["quad_error_frac"] > 0


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "kgbench/run.py", "--workload", "kg_mixed",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_result_parses_in_contract_format(trace, section):
    out = _run(trace)
    assert out.returncode == 0, out.stderr[-2000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert type(last["attempted"]) is int and last["attempted"] >= 1
    assert type(last["failed"]) is int and last["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _bench_spec()[section]}
    assert len(declared) == {"end_to_end": 4, "per_layer": 42}[section]
    assert set(last["metrics"]) == set(declared)
    for name, m in last["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))
        assert m["unit"] == declared[name]
        if section == "end_to_end":
            assert m["value"] > 0


def test_fails_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and kgbench/
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "kgbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    out = _run(0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
