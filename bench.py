"""Benchmark driver.

Default: runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default: the host's CPUs, at most 32) and
prints ONE JSON line:
``{"metric": ..., "value": sec, "unit": "sec", "queries": {...},
"sf": ..., "num_cpus": N, ...}``.

``--scaling`` runs the headline KG pipeline twice in fresh processes
(num_cpus=8 then 32) on the SAME input (a larger corpus,
``$GRAFT_SCALING_ROWS`` rows, default 400k, so the job is
compute-dominated rather than fixed-overhead-dominated) and reports both
throughputs plus scaling efficiency (BASELINE.md criterion; two
parallelism levels stand in for N vs 4N nodes — no real cluster in this
sandbox), or a ``skipped`` reason when ``nproc`` is below the high level.
``--kg-only`` is the single-run worker mode it shells out to. Every JSON
line carries kgbench's host fingerprint under ``host``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Ray CPUs when RAY_GRAFT_CPUS is unset: the host's, at most 32
DEFAULT_CPUS = min(32, os.cpu_count() or 1)


def _init_ray(num_cpus: int):
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False


def _warm(corpus: str):
    import pyarrow.dataset as pads
    pads.dataset(corpus).to_table()  # page-cache warm, untimed


def _kg_run(corpus: str, num_cpus: int, tag: str) -> tuple[float, dict]:
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    out_dir = f"/tmp/bench_kg_{tag}_{num_cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    metrics = run_kg_pipeline(corpus, out_dir, resume=False)
    return round(time.time() - t0, 3), metrics


def _bench_once() -> dict:
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", DEFAULT_CPUS))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    _init_ray(num_cpus)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from jsonld_js_ray.pipelines.kg import repo_files_for_sf_dir
    from jsonld_js_ray.sources.repo_files import sf_from_dir
    import __ray_entry__ as entrymod

    sf = sf_from_dir(sf_dir)
    corpus = repo_files_for_sf_dir(sf_dir)  # materialized once, cached
    _warm(corpus)

    extras: dict = {}
    qs = dict(entrymod.queries())

    def _fast_minhash(sd: str):
        # the queries() registry runs doc_minhash_near_dup in md5 hash
        # mode (DuckDB value oracle); the bench headline keeps the
        # shingle/blake2b fast path so the number stays comparable
        # across rounds — same operator, throughput hash mode
        from jsonld_js_ray.functions.dedup_text import (
            jaccard_verify, minhash_candidate_pairs)
        docs = entrymod._docs(sd)
        pairs = minhash_candidate_pairs(docs, pair_mode="all",
                                        global_dedup=False)
        return jaccard_verify(docs, pairs, threshold=0.5)

    qs["doc_minhash_near_dup"] = _fast_minhash
    bench_queries = ["kg_canonical_nquads", "doc_minhash_near_dup",
                     "ann_brute_force_topk", "q1_pricing_summary",
                     "events_sessions", "doc_exact_dedup",
                     "doc_ngram_jaccard", "doc_embedding_near_dup"]

    # the sandbox host has noisy-neighbor interference (observed 2x
    # swings between identical runs): every query runs `reps` times in
    # INTERLEAVED rounds and the reported number is the best-of; the
    # raw samples ship alongside so drift stays attributable
    reps = int(os.environ.get("GRAFT_BENCH_REPS", "2"))
    samples: dict[str, list[float]] = {}
    for rep in range(reps):
        sec, metrics = _kg_run(corpus, num_cpus, f"main{rep}")
        samples.setdefault("kg_pipeline", []).append(sec)
        extras["n_quads"] = metrics["n_quads"]

        for name in bench_queries:
            t0 = time.time()
            res = qs[name](sf_dir)
            try:
                import ray.data as rd
                if isinstance(res, rd.Dataset):
                    n = res.count()  # consume the stream; no driver mat.
                else:
                    n = len(res)
            except Exception:
                n = -1
            samples.setdefault(name, []).append(
                round(time.time() - t0, 3))
            extras.setdefault("rows", {})[name] = n

    timings = {name: min(vals) for name, vals in samples.items()}
    extras["triples_per_sec"] = round(
        extras["n_quads"] / timings["kg_pipeline"], 1)

    import ray
    ray.shutdown()
    return {
        "metric": "kg_pipeline_total_sec",
        "value": timings["kg_pipeline"],
        "unit": "sec",
        "queries": timings,
        "samples": samples,
        "reps": reps,
        "sf": sf,
        "num_cpus": num_cpus,
        **extras,
    }


def _kg_only() -> dict:
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", DEFAULT_CPUS))
    n_rows = int(os.environ.get("GRAFT_ROWS", "4000000"))
    _init_ray(num_cpus)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from jsonld_js_ray.sources.repo_files import repo_files_path_n
    corpus = repo_files_path_n(n_rows)
    _warm(corpus)
    sec, metrics = _kg_run(corpus, num_cpus, "scaling")
    import ray
    ray.shutdown()
    return {"metric": "kg_pipeline_total_sec", "value": sec,
            "unit": "sec", "num_cpus": num_cpus, "n_rows": n_rows,
            "n_quads": metrics["n_quads"],
            "triples_per_sec": round(metrics["n_quads"] / sec, 1)}


def _run_subprocess(ncpu: int, rows: int) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
               GRAFT_ROWS=str(rows))
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--kg-only"], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _ceiling() -> dict:
    """Hardware scaling ceiling: the SAME per-doc kernel under plain
    multiprocessing (no Ray, no shuffle, no I/O) at 8 vs 32 procs. On a
    hyperthreaded single box 4x the workers never get 4x the cycles —
    this bounds any pipeline's measurable wall-clock efficiency here."""
    import multiprocessing as mp
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from jsonld_js_ray.sources.repo_files import generate_rows

    tbl = generate_rows(0, 30000, 400000)
    contents = [c for c, l in zip(tbl.column("content").to_pylist(),
                                  tbl.column("lang").to_pylist())
                if l in ("jsonld", "json")]

    lo = int(os.environ.get("GRAFT_CEILING_LO", "8"))
    hi = int(os.environ.get("GRAFT_CEILING_HI", "32"))
    best = {}
    for procs in (lo, hi, lo, hi):
        chunks = [contents[i::procs] for i in range(procs)]
        t0 = time.time()
        with mp.Pool(procs) as p:
            p.map(_ceiling_work, chunks)
        rate = len(contents) / (time.time() - t0)
        best[procs] = max(best.get(procs, 0), rate)
    return {
        "metric": "hardware_ceiling_efficiency",
        "value": round((best[hi] / best[lo]) / (hi / lo), 3),
        "unit": "ratio",
        "procs_lo": lo, "procs_hi": hi,
        "docs_per_sec_lo": round(best[lo]),
        "docs_per_sec_hi": round(best[hi]),
    }


def _ceiling_work(chunk):
    from jsonld_js_ray.core.resolver import ContextResolver
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    from jsonld_js_ray.stages.expand_quads import doc_quads
    r = ContextResolver(build_context_snapshot())
    n = 0
    for c in chunk:
        try:
            q, _ = doc_quads(c, r, canonical_bnodes=True)
            n += len(q)
        except Exception:
            pass
    return n


def _emit(record: dict, fingerprint, ray_cpus):
    record["host"] = fingerprint.finish(ray_cpus)
    print(json.dumps(record))


def main():
    sys.path.insert(0, os.path.join(HERE, "kgbench"))
    import host  # kgbench/host.py; kgbench is not a package
    fingerprint = host.Fingerprint(HERE)
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", DEFAULT_CPUS))
    if "--ceiling" in sys.argv:
        _emit(_ceiling(), fingerprint, None)
        return
    if "--kg-only" in sys.argv:
        _emit(_kg_only(), fingerprint, num_cpus)
        return
    if "--scaling" in sys.argv:
        # pair override: GRAFT_SCALING_LO/HI (e.g. 4 and 16 keeps both
        # levels inside the box's physical cores, less confounded by
        # full-box contention than 8 vs 32)
        lo = int(os.environ.get("GRAFT_SCALING_LO", "8"))
        hi = int(os.environ.get("GRAFT_SCALING_HI", "32"))
        rows = int(os.environ.get("GRAFT_SCALING_ROWS", "4000000"))
        nproc = host.nproc()
        if nproc < hi:
            reason = f"nproc {nproc} < GRAFT_SCALING_HI {hi}: oversubscribed"
            _emit({"metric": "scaling_efficiency", "skipped": reason,
                   "cpus_lo": lo, "cpus_hi": hi}, fingerprint, None)
            return
        # pre-materialize the corpus (cached) so neither run pays generation
        _init_ray(num_cpus)
        sys.path.insert(0, HERE)
        from jsonld_js_ray.sources.repo_files import repo_files_path_n
        repo_files_path_n(rows)
        import ray
        ray.shutdown()

        # the sandbox host has noisy-neighbor interference (observed 2x
        # swings in identical runs): run each level twice, interleaved,
        # and score the best of each — report every raw sample
        reps = int(os.environ.get("GRAFT_SCALING_REPS", "2"))
        lo_runs, hi_runs = [], []
        for _ in range(reps):
            hi_runs.append(_run_subprocess(hi, rows))
            lo_runs.append(_run_subprocess(lo, rows))
        t_lo = min(r["value"] for r in lo_runs)
        t_hi = min(r["value"] for r in hi_runs)
        eff = (t_lo / t_hi) / (hi / lo)
        _emit({
            "metric": "scaling_efficiency",
            "value": round(eff, 3),
            "unit": "ratio",
            "sec_lo": t_lo, "sec_hi": t_hi,
            "cpus_lo": lo, "cpus_hi": hi,
            "n_rows": rows,
            "samples_lo": [r["value"] for r in lo_runs],
            "samples_hi": [r["value"] for r in hi_runs],
            "triples_per_sec_lo": max(r.get("triples_per_sec", 0)
                                      for r in lo_runs),
            "triples_per_sec_hi": max(r.get("triples_per_sec", 0)
                                      for r in hi_runs),
        }, fingerprint, None)
        return
    _emit(_bench_once(), fingerprint, num_cpus)


if __name__ == "__main__":
    main()
