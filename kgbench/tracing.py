"""Traced single-process replay of each layer's public entry point.

Spans (name, start, end, parent, batch) and counts are recorded from
this file, around the calls into each layer, kept in memory and written
out when the replay ends. Calls made inside a layer (the per-document
kernel inside ``ExpandToQuads``, ``process_context`` inside the API
calls, the resolver methods) are timed by wrapping the module attribute
or instance method for the duration of the replay and restoring it
afterwards; the program's code is not changed.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter


class Tracer:
    """In-memory spans and counts. ``enabled=False`` records nothing, so
    the same replay measures the tracing overhead."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple] = []   # (name, start, end, parent, batch)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, batch=None):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, batch))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            n, start, _, p, b = self.spans[idx]
            self.spans[idx] = (n, start, time.perf_counter(), p, b)

    def add(self, key: str, n=1):
        if self.enabled:
            self.counts[key] += n

    def totals(self) -> tuple[dict, dict]:
        """Per span name: (inclusive seconds, self seconds). Self time is
        the duration minus the time covered by direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] += end - start
            self_s[name] += end - start - child[i]
        return dict(incl), dict(self_s)

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, batch in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "batch": batch}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


@contextlib.contextmanager
def patched(target, attr: str, make_wrapper):
    """Replace ``target.attr`` with ``make_wrapper(original)`` for the
    duration of the block."""
    original = getattr(target, attr)
    setattr(target, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(target, attr, original)


def _timed(tr: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)
    return wrapper


def wrap_resolver(tr: Tracer, resolver):
    """Count calls on one resolver instance's public methods."""
    resolve, get_processed = resolver.resolve, resolver.get_processed

    def counted_resolve(url):
        tr.add("resolver.resolve_calls")
        return resolve(url)

    def counted_get(key):
        value = get_processed(key)
        tr.add("resolver.processed_gets")
        if value is not None:
            tr.add("resolver.processed_hits")
        return value

    resolver.resolve = counted_resolve
    resolver.get_processed = counted_get
    return resolver


@contextlib.contextmanager
def context_spans(tr: Tracer):
    """Time the outermost ``process_context`` call, wherever it is
    entered from (expand, compact, or recursively from context)."""
    from jsonld_js_ray.core import compact, context, expand
    depth = [0]

    def make(fn):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                with tr.span("context.process"):
                    return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    with contextlib.ExitStack() as stack:
        if tr.enabled:
            for mod in (context, expand, compact):
                stack.enter_context(patched(mod, "process_context", make))
        yield


def _bnodes(quads) -> set:
    from jsonld_js_ray.core.to_rdf import OBJ_BNODE
    return {t for q in quads
            for t in (q[0], q[3] if q[2] == OBJ_BNODE else "", q[6])
            if t and t.startswith("_:")}


@contextlib.contextmanager
def kernel_spans(tr: Tracer):
    """Split ``ExpandToQuads``'s per-document kernel into parse, expand,
    to_rdf and canonize spans."""
    import types

    from jsonld_js_ray.core import canonize
    from jsonld_js_ray.core.errors import JsonLdError
    from jsonld_js_ray.stages import expand_quads as eq

    def doc_wrapper(fn):
        def wrapper(*args, **kwargs):
            with tr.span("kernel"):
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    tr.add("kernel.docs_error")
                    raise
            tr.add("kernel.docs_ok")
            return out
        return wrapper

    def canon_wrapper(fn):
        def wrapper(quads, *args, **kwargs):
            tr.add("canonize.bnodes", len(_bnodes(quads)))
            with tr.span("canonize"):
                try:
                    return fn(quads, *args, **kwargs)
                except JsonLdError:
                    tr.add("canonize.fallbacks")
                    raise
        return wrapper

    json_ns = types.SimpleNamespace(loads=_timed(tr, "parse", json.loads))
    with contextlib.ExitStack() as stack:
        if tr.enabled:
            stack.enter_context(patched(eq, "doc_quads", doc_wrapper))
            stack.enter_context(patched(eq, "json", lambda _: json_ns))
            stack.enter_context(patched(
                eq, "expand_document", lambda f: _timed(tr, "expand", f)))
            stack.enter_context(patched(
                eq, "to_rdf", lambda f: _timed(tr, "to_rdf", f)))
            stack.enter_context(patched(canonize, "canonize_quads",
                                        canon_wrapper))
        yield


def replay_kg(tr: Tracer, corpus_dir: str, out_dir: str,
              batch_size: int = 1024) -> dict:
    """Replay the KG pipeline's layers in this process: read → extract →
    ExpandToQuads → partial dedup → quad hash → route to a live writer
    pool → finalize → checkpoint entries. Needs a Ray session for the
    writer actors. Returns facts the per-layer metrics need."""
    import pyarrow.parquet as pq

    from jsonld_js_ray.pipelines.kg import DEFAULT_PARTITIONS
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    from jsonld_js_ray.stages.dedup import add_quad_hash, partial_dedup_batch
    from jsonld_js_ray.stages.expand_quads import ExpandToQuads
    from jsonld_js_ray.stages.extract import extract_batch
    from jsonld_js_ray.stages.partition_sink import WriterPool, make_router
    from jsonld_js_ray.state import checkpoint
    from jsonld_js_ray.util_ray import cluster_cpus

    files = sorted(os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)
                   if f.endswith(".parquet"))
    data_dir = os.path.join(out_dir, "quads")
    # the pipeline's writer-pool size for this session
    num_writers = max(2, min(16, cluster_cpus() // 4))
    with tr.span("contexts"):
        snapshot = build_context_snapshot()
    stage = ExpandToQuads(snapshot_ref=snapshot)
    if tr.enabled:
        wrap_resolver(tr, stage.resolver)
    pool = WriterPool(data_dir, num_writers, dedup=True)
    route = make_router(pool.handles(), num_writers)
    routed_rows = 0
    batch = 0
    with kernel_spans(tr):
        for path in files:
            with tr.span("read"):
                table = pq.read_table(path)
            tr.add("read.bytes", table.nbytes)
            for lo in range(0, table.num_rows, batch_size):
                rows = table.slice(lo, batch_size)
                with tr.span("extract", batch):
                    ext = extract_batch(rows,
                                        num_partitions=DEFAULT_PARTITIONS)
                tr.add("extract.rows", ext.num_rows)
                tr.add("extract.jsonld_rows",
                       sum(ext.column("is_jsonld").to_pylist()))
                with tr.span("expand_quads", batch):
                    quads = stage(ext)
                with tr.span("partial_dedup", batch):
                    kept = partial_dedup_batch(quads)
                tr.add("partial_dedup.rows_in", quads.num_rows)
                tr.add("partial_dedup.rows_out", kept.num_rows)
                with tr.span("quad_hash", batch):
                    hashed = add_quad_hash(kept, None)
                with tr.span("route", batch):
                    route(hashed)
                pids = hashed.column("partition_id").to_numpy()
                tr.add("route.sends", len(set(pids.tolist())))
                routed_rows += hashed.num_rows
                batch += 1
    with tr.span("sink.finalize"):
        merged = pool.finalize()
    pool.shutdown()
    with tr.span("checkpoint"):
        for pid, entry in merged.items():
            checkpoint.write_partition_entry(
                out_dir, pid, n_quads=entry["n_quads"],
                n_docs=entry["n_docs"])
        entries = checkpoint.read_entries(out_dir)
    return {"merged": merged, "routed_rows": routed_rows,
            "num_writers": num_writers, "entries": len(entries),
            "data_dir": data_dir}


WARMUP_DOC = json.dumps({"@context": {"@vocab": "http://ex.org/v/"},
                         "@id": "https://warm.example/0", "name": "warm",
                         "knows": {"name": "anon"}})


def api_options(snapshot: dict) -> dict:
    """Per-call options a library user passes: the offline contexts, a
    base IRI, and non-safe mode so warnings do not raise."""
    return {"contexts": snapshot, "base": "https://api.example/doc",
            "safe": False}


def api_chain(tr: Tracer, text: str, opts) -> None:
    """One document through parse → expand → compact → flatten → to_rdf
    → from_rdf → canonize, as a library user calls the API. ``opts()``
    gives each call its own options."""
    from jsonld_js_ray import api
    with tr.span("parse"):
        doc = json.loads(text)
    with tr.span("api.expand"):
        expanded = api.expand(doc, opts())
    ctx = doc.get("@context") if isinstance(doc, dict) else None
    with tr.span("api.compact"):
        compacted = api.compact(expanded, ctx, opts())
    with tr.span("api.flatten"):
        flat = api.flatten(compacted, None, opts())
    with tr.span("api.to_rdf"):
        quads = api.to_rdf(flat, opts())
    with tr.span("api.from_rdf"):
        back = api.from_rdf(quads, opts())
    with tr.span("api.canonize"):
        api.canonize(back, opts())


def replay_api(tr: Tracer, docs: list[str], snapshot: dict) -> None:
    """One pass of the API call chain over ``docs``. Each call gets a
    fresh resolver, as ``api`` builds one per call; the traced pass
    wraps that resolver to count its calls."""
    from jsonld_js_ray.core.resolver import ContextResolver

    def opts():
        o = api_options(snapshot)
        if tr.enabled:
            o["contextResolver"] = wrap_resolver(tr, ContextResolver(
                snapshot))
        return o

    with context_spans(tr):
        for i, text in enumerate(docs):
            with tr.span("doc", i):
                try:
                    api_chain(tr, text, opts)
                except Exception:
                    tr.add("kernel.docs_error")
                    continue
            tr.add("kernel.docs_ok")

