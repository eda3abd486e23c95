"""Stage 2: expand + toRDF + RDFC-1.0 bnode labels per document.

The core transform of the KG pipeline (SURVEY.md §3.4/§7.2): the callable
class ``ExpandToQuads`` runs the per-document kernel once per distinct
content per batch (``docs``: a document's quads depend only on its content
and the context snapshot, so copies across forks and commits share one
pass) and projects that pass into four tables — quads
(``__call__``), per-document status, canonical N-Quads and events. Each
projection has a task-side entry point (``expand_batch``,
``status_batch``, ``canonical_batch``, ``events_batch``) that Ray maps as
a plain function, so it fuses with the stages around it. Per-stage state
(built ONCE in ``__init__``, the Ray analog of the reference's
module-level context caches, jsonld.js lib/jsonld.js:100-103,
lib/ContextResolver.js:26-29):

  * the offline context snapshot (``sources.contexts``, a constant),
  * a ContextResolver with its processed-context LRU.

The task functions share one stage per worker process (``_stage``), so
that LRU lasts as long as the process.

Blank-node labels are made globally unique without coordination by
prefixing each document's canonical ``_:c14n<n>`` labels with
``sha256(content)[:16]`` (SURVEY.md §4.4) — deterministic under any
partitioning, so output is identical at any parallelism level."""

from __future__ import annotations

import json
from typing import Iterator, Optional

import pyarrow as pa

from ..core.errors import JsonLdError
from ..core.expand import expand_document
from ..core.node_map import IdentifierIssuer
from ..core.nquads import serialize
from ..core.resolver import ContextResolver
from ..core.to_rdf import OBJ_BNODE, to_rdf
from ..sources.contexts import build_context_snapshot

# RDFC-1.0 work budget (HNDQ calls) per document; a graph that needs more
# keeps its issuance-order labels and gets an RDFC_FALLBACK warning
RDFC_BUDGET = 1000
RDFC_FALLBACK = "canonicalization work factor exceeded"

# a document raising one of these is quarantined: status "error", no
# quads, one error event (SURVEY.md §4.3.7)
_DOC_ERRORS = (JsonLdError, ValueError, RecursionError, KeyError, TypeError)

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

CANONICAL_SCHEMA = pa.schema([
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("content_sha256", pa.string()),
    ("canonical_nquads", pa.large_string()),
    ("n_quads", pa.int64()),
])

EVENT_SCHEMA = pa.schema([
    ("repo", pa.string()),
    ("path", pa.string()),
    ("content_sha256", pa.string()),
    ("code", pa.string()),
    ("level", pa.string()),
])

# per-row lineage ``docs`` yields, in this order
_LINEAGE = ("repo", "path", "commit", "content_sha256", "partition_id")


def doc_quads(content: str, resolver: ContextResolver,
              canonical_bnodes: bool = False):
    """content (JSON text) → (quads, events). Pure per-document kernel.

    ``canonical_bnodes`` relabels the document's blank nodes with their
    RDFC-1.0 canonical labels (``_:c14n<n>``) — content-derived, hence
    stable under ANY partitioning (SURVEY.md §4.4c). A poison graph that
    exceeds ``RDFC_BUDGET`` keeps its issuance-order labels and records an
    ``RDFC_FALLBACK`` warning event."""
    doc = json.loads(content)
    opts = {"base": None, "processingMode": "json-ld-1.1",
            "context_resolver": resolver,
            # pre-seeded so dict copies inside expand share the same list
            "_events": []}
    expanded = expand_document(doc, opts)
    quads = to_rdf(expanded, {**opts, "issuer": IdentifierIssuer("_:b")})
    if canonical_bnodes:
        from ..core.canonize import canonize_quads
        try:
            quads = canonize_quads(quads, max_deep_iterations=RDFC_BUDGET)
        except JsonLdError as e:
            opts["_events"].append({"code": e.code, "level": "warning"})
    return quads, opts["_events"]


def _prefix_bnodes(quads: list, sha: str) -> list:
    pre = f"_:{sha[:16]}-"

    def ren(label: str) -> str:
        return pre + label[2:] if label.startswith("_:") else label

    return [(ren(s), p, k, ren(v) if k == OBJ_BNODE else v, dt, lg,
             ren(g) if g else g)
            for (s, p, k, v, dt, lg, g) in quads]


def _table(schema: pa.Schema, rows: list) -> pa.Table:
    cols = list(zip(*rows)) or [()] * len(schema)
    return pa.table({f.name: pa.array(list(c), f.type)
                     for f, c in zip(schema, cols)})


class ExpandToQuads:
    """Arrow batch of extracted repo files → one kernel pass per distinct
    document, projected as quads, status, canonical N-Quads or events
    (callable class; tasks reach it through the ``*_batch`` functions)."""

    def __init__(self, snapshot_ref: Optional[dict] = None):
        # a snapshot dict, or None for the constant one
        self.resolver = ContextResolver(
            build_context_snapshot() if snapshot_ref is None
            else snapshot_ref)

    def docs(self, batch: pa.Table) -> Iterator[tuple]:
        """Yield ``(lineage, status, error_code, quads, events)`` per row:
        status is ok, skipped (not JSON-LD) or error (quarantined: no
        quads, no events); quads carry ``doc_quads``'s canonical labels,
        not yet sha-prefixed. The kernel runs once per distinct
        ``content_sha256`` in the batch; every copy yields that result
        with its own lineage."""
        lineage = zip(*(batch.column(n).to_pylist() for n in _LINEAGE))
        contents = batch.column("content").to_pylist()
        is_jsonld = batch.column("is_jsonld").to_pylist()
        # content_sha256 -> (status, code, quads, events): copies of a
        # document in this batch share the first copy's kernel result
        # (read-only: no projection mutates the shared lists)
        done: dict[str, tuple] = {}
        for row, content, jsonld in zip(lineage, contents, is_jsonld):
            if not jsonld:
                yield (row, "skipped", None, [], [])
                continue
            result = done.get(row[3])
            if result is None:
                try:
                    quads, events = doc_quads(content, self.resolver,
                                              canonical_bnodes=True)
                    result = ("ok", None, quads, events)
                except _DOC_ERRORS as e:
                    result = ("error", getattr(e, "code",
                                               type(e).__name__), [], [])
                done[row[3]] = result
            yield (row, *result)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = {name: [] for name in QUAD_SCHEMA.names}
        for (repo, path, commit, sha, part), _, _, quads, _ in \
                self.docs(batch):
            if not quads:
                continue
            # chunked column build: one zip + C-level extends per doc
            # instead of 12 Python appends per quad (~1.6x on assembly)
            n = len(quads)
            s, p, k, v, dt, lg, g = zip(*_prefix_bnodes(quads, sha))
            cols["subject"].extend(s)
            cols["predicate"].extend(p)
            cols["object_kind"].extend(k)
            cols["object_value"].extend(v)
            cols["datatype"].extend(dt)
            cols["language"].extend(lg)
            cols["graph"].extend(g)
            cols["repo"].extend([repo] * n)
            cols["path"].extend([path] * n)
            cols["commit"].extend([commit] * n)
            cols["content_sha256"].extend([sha] * n)
            cols["partition_id"].extend([part] * n)
        return pa.table(
            {n: pa.array(cols[n], QUAD_SCHEMA.field(n).type)
             for n in QUAD_SCHEMA.names})

    def status(self, batch: pa.Table) -> pa.Table:
        """One ``DOC_STATUS_SCHEMA`` row per input row (lineage + triple
        counts for the checkpoint store; BASELINE.json north_star)."""
        return _table(DOC_STATUS_SCHEMA, [
            (*row, status, code, len(quads), len(events))
            for row, status, code, quads, events in self.docs(batch)])

    def canonical(self, batch: pa.Table) -> pa.Table:
        """Per-document RDFC-1.0 canonical N-Quads (sorted, de-duplicated
        lines) for every document that canonicalized within budget."""
        rows = []
        for (repo, path, commit, sha, _), status, _, quads, events in \
                self.docs(batch):
            if status == "ok" and not any(
                    ev.get("code") == RDFC_FALLBACK for ev in events):
                rows.append((repo, path, commit, sha,
                             serialize(quads, sort=True), len(quads)))
        return _table(CANONICAL_SCHEMA, rows)

    def events(self, batch: pa.Table) -> pa.Table:
        """Exploded per-document event rows (code, level) — the
        reference's warning event system as a side-output table
        (SURVEY.md §2.9; cf. jsonld.js lib/events.js:103-129); a
        quarantined document gives one error row."""
        rows = []
        for (repo, path, _, sha, _), status, code, _, events in \
                self.docs(batch):
            if status == "error":
                events = [{"code": code, "level": "error"}]
            rows.extend((repo, path, sha, ev.get("code"),
                         ev.get("level", "warning")) for ev in events)
        return _table(EVENT_SCHEMA, rows)


# The ExpandToQuads of this worker process, built by its first task. It
# must live at module level: Ray pickles a nested function's globals by
# value, so a closure's cache would start empty in every task.
_STAGE: Optional[ExpandToQuads] = None


def _stage() -> ExpandToQuads:
    """One stage per worker process, shared by the four task functions
    and ``transform.api_batch`` and kept for the life of the process: the
    snapshot is a constant, and a processed-context cache hit replays the
    events it captured."""
    global _STAGE
    if _STAGE is None:
        _STAGE = ExpandToQuads()
    return _STAGE


def expand_batch(batch: pa.Table) -> pa.Table:
    """Task-side ``ExpandToQuads.__call__``: the quad rows."""
    return _stage()(batch)


def status_batch(batch: pa.Table) -> pa.Table:
    """Task-side ``ExpandToQuads.status``."""
    return _stage().status(batch)


def canonical_batch(batch: pa.Table) -> pa.Table:
    """Task-side ``ExpandToQuads.canonical``."""
    return _stage().canonical(batch)


def events_batch(batch: pa.Table) -> pa.Table:
    """Task-side ``ExpandToQuads.events``."""
    return _stage().events(batch)
