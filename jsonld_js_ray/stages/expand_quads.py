"""Stage 2: expand + toRDF per document.

The core transform of the KG pipeline (SURVEY.md §3.4/§7.2): the callable
class ``ExpandToQuads`` and its task-side entry point ``expand_batch``,
which the KG pipeline maps as a plain function so Ray fuses it with the
stages around it. Per-stage state (built ONCE in ``__init__``, the Ray
analog of the reference's module-level context caches, jsonld.js
lib/jsonld.js:100-103, lib/ContextResolver.js:26-29):

  * the broadcast context snapshot (``ray.put`` object ref or plain dict),
  * a ContextResolver with its processed-context LRU.

Blank-node labels are made globally unique without coordination by
prefixing each document's fresh ``_:b<n>`` labels with
``sha256(content)[:16]`` (SURVEY.md §4.4) — deterministic under any
partitioning, so output is identical at any parallelism level."""

from __future__ import annotations

import json
from typing import Optional

import pyarrow as pa

from ..core.canonize import canonize as canonize_nquads
from ..core.errors import JsonLdError
from ..core.expand import expand_document
from ..core.node_map import IdentifierIssuer
from ..core.resolver import ContextResolver
from ..core.to_rdf import OBJ_BNODE, to_rdf

QUAD_SCHEMA = pa.schema([
    ("subject", pa.string()),
    ("predicate", pa.string()),
    ("object_kind", pa.int8()),
    ("object_value", pa.large_string()),
    ("datatype", pa.string()),
    ("language", pa.string()),
    ("graph", pa.string()),
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("content_sha256", pa.string()),
    ("partition_id", pa.int32()),
])

DOC_STATUS_SCHEMA = pa.schema([
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("content_sha256", pa.string()),
    ("partition_id", pa.int32()),
    ("status", pa.string()),          # ok | skipped | error
    ("error_code", pa.string()),
    ("n_quads", pa.int64()),
    ("n_events", pa.int64()),
])


def doc_quads(content: str, resolver: ContextResolver,
              base: Optional[str] = None,
              prefix_bnodes_with: Optional[str] = None,
              options: Optional[dict] = None,
              canonical_bnodes: bool = False):
    """content (JSON text) → (quads, events). Pure per-document kernel.

    ``canonical_bnodes`` relabels each document's blank nodes with their
    RDFC-1.0 canonical labels (``_:c14n<n>``) before the sha prefix —
    content-derived, hence stable under ANY partitioning (SURVEY.md
    §4.4c); falls back to issuance order on poison graphs."""
    doc = json.loads(content)
    opts = {"base": base, "processingMode": "json-ld-1.1",
            "context_resolver": resolver,
            # pre-seeded so dict copies inside expand share the same list
            "_events": []}
    if options:
        opts.update(options)
        opts["_events"] = opts.get("_events") or []
    expanded = expand_document(doc, opts)
    quads = to_rdf(expanded, {**opts, "issuer": IdentifierIssuer("_:b")})
    if canonical_bnodes:
        from ..core.canonize import canonize_quads
        try:
            quads = canonize_quads(quads, max_deep_iterations=1000)
        except JsonLdError:
            pass  # poison graph: keep issuance-order labels
    if prefix_bnodes_with:
        pre = f"_:{prefix_bnodes_with}-"

        def ren(label: str) -> str:
            return pre + label[2:] if label.startswith("_:") else label

        quads = [
            (ren(s), p, k, ren(v) if k == OBJ_BNODE else v, dt, lg,
             ren(g) if g else g)
            for (s, p, k, v, dt, lg, g) in quads]
    return quads, opts.get("_events", [])


class ExpandToQuads:
    """Arrow batch of repo files → Arrow batch of quads (callable class;
    tasks reach it through ``expand_batch``)."""

    def __init__(self, snapshot_ref=None, base: Optional[str] = None,
                 prefix_bnodes: bool = True, safe: bool = False,
                 canonical_bnodes: bool = True):
        import ray
        if snapshot_ref is None:
            from ..sources.contexts import build_context_snapshot
            snapshot = build_context_snapshot()
        elif isinstance(snapshot_ref, dict):
            snapshot = snapshot_ref
        else:
            snapshot = ray.get(snapshot_ref)
        self.resolver = ContextResolver(snapshot)
        self.base = base
        self.prefix_bnodes = prefix_bnodes
        self.safe = safe
        self.canonical_bnodes = canonical_bnodes

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = {name: [] for name in QUAD_SCHEMA.names}
        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        commits = batch.column("commit").to_pylist()
        contents = batch.column("content").to_pylist()
        shas = batch.column("content_sha256").to_pylist()
        parts = batch.column("partition_id").to_pylist()
        is_jsonld = (batch.column("is_jsonld").to_pylist()
                     if "is_jsonld" in batch.column_names
                     else [True] * len(repos))

        for i in range(len(repos)):
            if not is_jsonld[i]:
                continue
            try:
                quads, _events = doc_quads(
                    contents[i], self.resolver, base=self.base,
                    prefix_bnodes_with=shas[i][:16]
                    if self.prefix_bnodes else None,
                    options={"safe": self.safe},
                    canonical_bnodes=self.canonical_bnodes)
            except (JsonLdError, ValueError, RecursionError, KeyError,
                    TypeError):
                # quarantine path: malformed / poison docs emit no quads;
                # DocStatus stage reports them (SURVEY.md §4.3.7)
                continue
            if not quads:
                continue
            # chunked column build: one zip + C-level extends per doc
            # instead of 12 Python appends per quad (~1.6x on assembly)
            n = len(quads)
            s, p, k, v, dt, lg, g = zip(*quads)
            cols["subject"].extend(s)
            cols["predicate"].extend(p)
            cols["object_kind"].extend(k)
            cols["object_value"].extend(v)
            cols["datatype"].extend(dt)
            cols["language"].extend(lg)
            cols["graph"].extend(g)
            cols["repo"].extend([repos[i]] * n)
            cols["path"].extend([paths[i]] * n)
            cols["commit"].extend([commits[i]] * n)
            cols["content_sha256"].extend([shas[i]] * n)
            cols["partition_id"].extend([parts[i]] * n)
        return pa.table(
            {n: pa.array(cols[n], QUAD_SCHEMA.field(n).type)
             for n in QUAD_SCHEMA.names})


# (snapshot_ref, ExpandToQuads) of the last snapshot this worker process
# expanded with. It must live at module level: Ray pickles a nested
# function's globals by value, so a closure's cache would start empty in
# every task.
_STAGE: Optional[tuple] = None


def expand_batch(batch: pa.Table, snapshot_ref) -> pa.Table:
    """Task-side ``ExpandToQuads``: one stage per worker process, reused
    across tasks while ``snapshot_ref`` stays the same and rebuilt when a
    new snapshot arrives (only the latest is kept)."""
    global _STAGE
    if _STAGE is None or _STAGE[0] != snapshot_ref:
        _STAGE = (snapshot_ref, ExpandToQuads(snapshot_ref=snapshot_ref))
    return _STAGE[1](batch)


class DocStatus:
    """Actor-pool stage: per-document status/metrics row (lineage +
    triple counts for the checkpoint store; BASELINE.json north_star)."""

    def __init__(self, snapshot_ref=None, base: Optional[str] = None):
        import ray
        if snapshot_ref is None:
            from ..sources.contexts import build_context_snapshot
            snapshot = build_context_snapshot()
        elif isinstance(snapshot_ref, dict):
            snapshot = snapshot_ref
        else:
            snapshot = ray.get(snapshot_ref)
        self.resolver = ContextResolver(snapshot)
        self.base = base

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = {name: [] for name in DOC_STATUS_SCHEMA.names}
        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        commits = batch.column("commit").to_pylist()
        contents = batch.column("content").to_pylist()
        shas = batch.column("content_sha256").to_pylist()
        parts = batch.column("partition_id").to_pylist()
        is_jsonld = batch.column("is_jsonld").to_pylist()
        for i in range(len(repos)):
            status, code, nq, ne = "skipped", None, 0, 0
            if is_jsonld[i]:
                try:
                    quads, events = doc_quads(contents[i], self.resolver,
                                              base=self.base)
                    status, nq, ne = "ok", len(quads), len(events)
                except JsonLdError as e:
                    status, code = "error", e.code
                except (ValueError, RecursionError, KeyError, TypeError) as e:
                    status, code = "error", type(e).__name__
            cols["repo"].append(repos[i])
            cols["path"].append(paths[i])
            cols["commit"].append(commits[i])
            cols["content_sha256"].append(shas[i])
            cols["partition_id"].append(parts[i])
            cols["status"].append(status)
            cols["error_code"].append(code)
            cols["n_quads"].append(nq)
            cols["n_events"].append(ne)
        return pa.table(
            {n: pa.array(cols[n], DOC_STATUS_SCHEMA.field(n).type)
             for n in DOC_STATUS_SCHEMA.names})


class CanonizePerDoc:
    """Actor-pool stage: per-document RDFC-1.0 canonical N-Quads column.

    Canonical labels are content-derived (stable under any partitioning;
    SURVEY.md §4.4c), so this stage is embarrassingly parallel."""

    def __init__(self, snapshot_ref=None, base: Optional[str] = None,
                 max_deep_iterations: int = 2000):
        import ray
        if snapshot_ref is None:
            from ..sources.contexts import build_context_snapshot
            snapshot = build_context_snapshot()
        elif isinstance(snapshot_ref, dict):
            snapshot = snapshot_ref
        else:
            snapshot = ray.get(snapshot_ref)
        self.resolver = ContextResolver(snapshot)
        self.base = base
        self.max_deep = max_deep_iterations

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_rows = {"repo": [], "path": [], "commit": [],
                    "content_sha256": [], "canonical_nquads": [],
                    "n_quads": []}
        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        commits = batch.column("commit").to_pylist()
        contents = batch.column("content").to_pylist()
        shas = batch.column("content_sha256").to_pylist()
        is_jsonld = (batch.column("is_jsonld").to_pylist()
                     if "is_jsonld" in batch.column_names
                     else [True] * len(repos))
        for i in range(len(repos)):
            if not is_jsonld[i]:
                continue
            try:
                quads, _ = doc_quads(contents[i], self.resolver,
                                     base=self.base)
                canon = canonize_nquads(quads, self.max_deep)
            except (JsonLdError, ValueError, RecursionError, KeyError,
                    TypeError):
                continue
            out_rows["repo"].append(repos[i])
            out_rows["path"].append(paths[i])
            out_rows["commit"].append(commits[i])
            out_rows["content_sha256"].append(shas[i])
            out_rows["canonical_nquads"].append(canon)
            out_rows["n_quads"].append(len(quads))
        return pa.table({
            "repo": pa.array(out_rows["repo"], pa.string()),
            "path": pa.array(out_rows["path"], pa.string()),
            "commit": pa.array(out_rows["commit"], pa.string()),
            "content_sha256": pa.array(out_rows["content_sha256"],
                                       pa.string()),
            "canonical_nquads": pa.array(out_rows["canonical_nquads"],
                                         pa.large_string()),
            "n_quads": pa.array(out_rows["n_quads"], pa.int64()),
        })


class DocEvents:
    """Actor-pool stage: exploded per-document event rows (code, level) —
    the reference's warning event system as a side-output table
    (SURVEY.md §2.9; cf. /root/reference/lib/events.js:103-129)."""

    def __init__(self, snapshot_ref=None, base: Optional[str] = None):
        import ray
        if snapshot_ref is None:
            from ..sources.contexts import build_context_snapshot
            snapshot = build_context_snapshot()
        elif isinstance(snapshot_ref, dict):
            snapshot = snapshot_ref
        else:
            snapshot = ray.get(snapshot_ref)
        self.resolver = ContextResolver(snapshot)
        self.base = base

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"repo": [], "path": [], "content_sha256": [],
               "code": [], "level": []}
        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        contents = batch.column("content").to_pylist()
        shas = batch.column("content_sha256").to_pylist()
        is_jsonld = batch.column("is_jsonld").to_pylist()
        for i in range(len(repos)):
            if not is_jsonld[i]:
                continue
            try:
                _, events = doc_quads(contents[i], self.resolver,
                                      base=self.base)
            except (JsonLdError, ValueError, RecursionError, KeyError,
                    TypeError) as e:
                events = [{"code": getattr(e, "code", type(e).__name__),
                           "level": "error"}]
            for ev in events:
                out["repo"].append(repos[i])
                out["path"].append(paths[i])
                out["content_sha256"].append(shas[i])
                out["code"].append(ev.get("code"))
                out["level"].append(ev.get("level", "warning"))
        return pa.table({
            "repo": pa.array(out["repo"], pa.string()),
            "path": pa.array(out["path"], pa.string()),
            "content_sha256": pa.array(out["content_sha256"], pa.string()),
            "code": pa.array(out["code"], pa.string()),
            "level": pa.array(out["level"], pa.string()),
        })
