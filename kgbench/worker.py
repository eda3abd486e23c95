"""One workload run, in a fresh process: generate the inputs from the
seed, set up, measure for the given seconds, check every output against
the oracle, and write ``result.json`` into the run directory. ``run.py``
starts it under a hard timeout; run that, not this.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` instead
runs one untraced job, then replays each layer's public entry point in
this process with spans on, then again with spans off, and reports the
per-layer metrics and the tracing overhead. Metric names and units come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import host
import inputs
import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Logical CPUs of the Ray session. At 2 the KG job hangs: the writer pool
# (2 x 0.5 CPU) and one expand actor reserve every slot, so the read task
# never schedules.
RAY_CPUS = 4
OBJECT_STORE_BYTES = 256 * 1024 * 1024
# pause before each job: a job's actors exit within about 0.3 s after it
# returns, and must not count in the next job's memory
JOB_REST_S = 0.5
# per-layer metrics of the public API, measured by the API replay
API_LAYER = ("api.", "context.")
# Unix socket paths are limited to 107 bytes; a Ray session directory adds
# this much to its temp dir.
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000"
                     "/sockets/plasma_store")


def ray_temp_dir() -> str | None:
    """A short Ray temp dir inside the checkout, or None (Ray's default)
    when even that is too long for Ray's socket paths."""
    path = os.path.join(HERE, "_run", "r")
    return path if len(path.encode()) + _SOCKET_SUFFIX <= 107 else None


def init_ray():
    import ray
    from ray.data import DataContext
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=ray_temp_dir())
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False


def kg_setup(work: str, warm_dir: str) -> float:
    """ray.init plus one warm-up job on a tiny input; returns seconds."""
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    out = os.path.join(work, "out", "warmup")
    t0 = time.perf_counter()
    init_ray()
    run_kg_pipeline(warm_dir, out, resume=False)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    return elapsed


def kg_job(corpus: str, out: str) -> dict:
    """One untraced ``run_kg_pipeline`` call: its seconds, summary, the
    peak memory of the run's processes above their memory just before
    the call (MB), and host CPU seconds."""
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    shutil.rmtree(out, ignore_errors=True)
    time.sleep(JOB_REST_S)
    with host.MemSampler() as mem:
        cpu0, t0 = host.busy_cpu_s(), time.perf_counter()
        summary = run_kg_pipeline(corpus, out, resume=False)
        elapsed = time.perf_counter() - t0
        cpu_s = host.busy_cpu_s() - cpu0
    return {"job_s": elapsed, "summary": summary, "mem_mb": mem.growth_mb,
            "cpu_s": cpu_s}


def check_job(expected: set, out: str, summary: dict) -> dict:
    verdict = oracle.compare(
        expected, oracle.written_pairs(os.path.join(out, "quads")))
    verdict["ok"] = verdict["ok"] and summary["n_quads"] == verdict[
        "written"]
    return verdict


def prepare_kg(args, work: str):
    from jsonld_js_ray.pipelines.kg import DEFAULT_PARTITIONS
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    table = inputs.kg_table(args.workload, args.seed)
    corpus = inputs.write_corpus(table, os.path.join(work, "input"))
    warm = inputs.write_corpus(
        inputs.kg_table(args.workload, args.seed + 1_000_000,
                        inputs.WARMUP_ROWS),
        os.path.join(work, "warmup"))
    expected = oracle.expected_pairs(table, build_context_snapshot(),
                                     DEFAULT_PARTITIONS)
    return corpus, warm, expected


def run_kg(args, work: str) -> dict:
    corpus, warm, expected = prepare_kg(args, work)
    setup_s = kg_setup(work, warm)
    runs, failures = [], []
    t_start = time.perf_counter()
    while not runs or time.perf_counter() - t_start < args.seconds:
        out = os.path.join(work, "out", f"job{len(runs) + len(failures)}")
        try:
            runs.append((kg_job(corpus, out), out))
        except Exception:
            failures.append(traceback.format_exc(limit=5))
            shutil.rmtree(out, ignore_errors=True)
            if len(failures) > 2:
                break
    # the oracle reads the outputs after the measuring loop, so that its
    # work and memory do not fall between jobs
    jobs = []
    for job, out in runs:
        summary = job.pop("summary")
        try:
            job["oracle"] = check_job(expected, out, summary)
        except Exception:
            failures.append(traceback.format_exc(limit=5))
            continue
        finally:
            shutil.rmtree(out, ignore_errors=True)
        job["n_quads"], job["phases"] = summary["n_quads"], summary["phases"]
        jobs.append(job)
    failed = len(failures) + sum(not j["oracle"]["ok"] for j in jobs)
    med = statistics.median
    metrics = {
        "setup_s": setup_s,
        "job_s": med([j["job_s"] for j in jobs]),
        "quads_per_s": med([j["n_quads"] / j["job_s"] for j in jobs]),
        # the mean, not the median: a job's memory falls in steps of a
        # worker process (about 40 MB), and a median flips between them
        "peak_mem_mb": statistics.mean([j["mem_mb"] for j in jobs]),
    } if jobs else {}
    attempted = len(jobs) + len(failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {
            "expected_pairs": len(expected),
            "quad_error_frac": max((j["oracle"]["quad_error_frac"]
                                    for j in jobs), default=None),
            "failed_frac": failed / attempted,
            "jobs": jobs,
            "errors": failures,
        },
    }


def layer_metrics(tr: tracing.Tracer, job_cpu_s: float, overhead: float
                  ) -> dict:
    """Per-layer metrics from the traced replay. ``orchestration.s`` is
    the host CPU time the untraced job used beyond the layers' self time
    in the replay; on a saturated one-CPU host that is job_s - Σ self."""
    incl, self_s = tr.totals()
    c = tr.counts
    docs = max(1, c["kernel.docs_ok"] + c["kernel.docs_error"])
    gets = c["resolver.processed_gets"]
    dedup_in = c["partial_dedup.rows_in"]

    def s(*spans):
        return sum(incl.get(name, 0.0) for name in spans)

    def per_doc_ms(span):
        return 1e3 * s(span) / docs

    return {
        "read.s": s("read"),
        "read.bytes": c["read.bytes"],
        "extract.s": s("extract"),
        "extract.rows": c["extract.rows"],
        "extract.jsonld_rows": c["extract.jsonld_rows"],
        "parse.s": s("parse"),
        "expand.s": s("expand"),
        "to_rdf.s": s("to_rdf"),
        "canonize.s": s("canonize"),
        "kernel.docs_ok": c["kernel.docs_ok"],
        "kernel.docs_error": c["kernel.docs_error"],
        "canonize.bnodes": c["canonize.bnodes"],
        "canonize.fallbacks": c["canonize.fallbacks"],
        "resolver.resolve_calls": c["resolver.resolve_calls"],
        "resolver.processed_hit_ratio":
            c["resolver.processed_hits"] / gets if gets else 0.0,
        "assemble.s": s("expand_quads") - s("kernel"),
        "partial_dedup.s": s("partial_dedup"),
        "partial_dedup.keep_ratio":
            c["partial_dedup.rows_out"] / dedup_in if dedup_in else 0.0,
        "quad_hash.s": s("quad_hash"),
        "route.s": s("route"),
        "route.sends": c["route.sends"],
        "sink.finalize_s": s("sink.finalize"),
        "checkpoint.s": s("checkpoint"),
        "context.process_ms": per_doc_ms("context.process"),
        "api.expand_ms": per_doc_ms("api.expand"),
        "api.compact_ms": per_doc_ms("api.compact"),
        "api.flatten_ms": per_doc_ms("api.flatten"),
        "api.to_rdf_ms": per_doc_ms("api.to_rdf"),
        "api.from_rdf_ms": per_doc_ms("api.from_rdf"),
        "api.canonize_ms": per_doc_ms("api.canonize"),
        "job.cpu_s": job_cpu_s,
        "orchestration.s": job_cpu_s - sum(self_s.values()),
        "trace.overhead_frac": overhead,
    }


def sink_metrics(replayed: dict) -> dict:
    merged = replayed["merged"]
    rows = [e["n_quads"] for e in merged.values()]
    per_writer = [0] * replayed["num_writers"]
    for pid, e in merged.items():
        per_writer[pid % replayed["num_writers"]] += e["n_quads"]
    files = [os.path.join(d, f)
             for d, _, fs in os.walk(replayed["data_dir"]) for f in fs]

    def skew(xs):
        xs = [x for x in xs if x]
        return max(xs) / statistics.median(xs)

    return {
        "sink.keep_ratio": sum(rows) / replayed["routed_rows"],
        "sink.files": len(files),
        "sink.bytes": sum(os.path.getsize(f) for f in files),
        "sink.partition_skew": skew(rows),
        "sink.writer_skew": skew(per_writer),
        "checkpoint.entries": replayed["entries"],
    }


def trace_api(work: str, docs: list[str]) -> tracing.Tracer:
    """Replay the public API call chain over ``docs``, traced, after one
    warm-up document; spans go to api-spans.jsonl."""
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    snapshot = build_context_snapshot()
    tracing.api_chain(tracing.Tracer(False), tracing.WARMUP_DOC,
                      lambda: tracing.api_options(snapshot))
    tr = tracing.Tracer()
    tracing.replay_api(tr, docs, snapshot)
    tr.write(os.path.join(work, "api-spans.jsonl"))
    return tr


def trace_kg(args, work: str) -> dict:
    corpus, warm, expected = prepare_kg(args, work)
    kg_setup(work, warm)
    job_out = os.path.join(work, "out", "job")
    job = kg_job(corpus, job_out)
    verdict = check_job(expected, job_out, job["summary"])
    shutil.rmtree(job_out, ignore_errors=True)

    walls = {}
    for enabled in (True, False):
        tr = tracing.Tracer(enabled)
        out = os.path.join(work, "out", f"replay-{int(enabled)}")
        t0 = time.perf_counter()
        replayed = tracing.replay_kg(tr, corpus, out)
        walls[enabled] = time.perf_counter() - t0
        if enabled:
            traced, sink = tr, sink_metrics(replayed)
            tr.write(os.path.join(work, "spans.jsonl"))
        shutil.rmtree(out, ignore_errors=True)
    phases = job["summary"]["phases"]
    metrics = layer_metrics(traced, job["cpu_s"],
                            walls[True] / walls[False] - 1)
    metrics.update(sink)
    metrics.update({"pipeline.stream_s": phases["stream_sec"],
                    "pipeline.finalize_s": phases["finalize_sec"],
                    "oracle.quad_error_frac": verdict["quad_error_frac"]})
    # the public API layer, on documents of the mixed corpus
    api_tr = trace_api(work, inputs.api_docs(args.seed))
    metrics.update({k: v for k, v in layer_metrics(api_tr, 0, 0).items()
                    if k.startswith(API_LAYER)})
    return {"correct": verdict["ok"], "attempted": 1,
            "failed": 0 if verdict["ok"] else 1, "metrics": metrics,
            "report": {"job_s": job["job_s"], "oracle": verdict,
                       "replay_wall_s": walls}}


def declared_metrics(measured: dict, trace: bool) -> dict:
    """Every metric BENCHMARK.json declares for this mode, with its unit.
    The measured names must be exactly the declared ones."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(measured) != set(units):
        raise ValueError(f"measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(measured) ^ set(units))}")
    return {name: {"value": float(measured[name]), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)
    fingerprint = host.Fingerprint(ROOT)
    run = trace_kg if args.trace else run_kg
    try:
        result = run(args, args.work)
    finally:
        import ray
        ray.shutdown()
    result["report"]["host"] = fingerprint.finish(RAY_CPUS)
    result["metrics"] = declared_metrics(result["metrics"], bool(args.trace))
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
