"""Per-document transform stages for the full reference API surface.

Each reference entry point (expand / compact / flatten / frame / fromRDF /
canonize; cf. /root/reference/lib/jsonld.js public API) becomes an
actor-pool ``map_batches`` stage over Arrow batches of documents: context
snapshot + resolver caches built once per actor, small broadcast inputs
(compaction context, frame) shipped via ``ray.put``.

All stages take/yield JSON *text* columns (large_string) so blocks stay
Arrow-native between stages (SURVEY.md §1.3)."""

from __future__ import annotations

import json
from typing import Optional

import pyarrow as pa

from ..core.resolver import ContextResolver
from ..sources.contexts import load_snapshot


def _get_broadcast(ref):
    if ref is None or isinstance(ref, (dict, list, str)):
        return ref
    import ray
    return ray.get(ref)


class _DocStage:
    """Shared skeleton: parse content, apply self.transform, emit JSON."""

    out_col = "result"

    def __init__(self, snapshot_ref=None, options: Optional[dict] = None):
        self.options = options or {}
        # one resolver per stage instance, so its processed-context LRU
        # outlives the batch that warmed it
        self.resolver = ContextResolver(load_snapshot(snapshot_ref))

    def _opts(self):
        o = dict(self.options)
        o.setdefault("processingMode", "json-ld-1.1")
        o.setdefault("base", "")
        o["context_resolver"] = self.resolver
        return o

    def transform(self, doc, opts):
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        contents = batch.column("content").to_pylist()
        out, ok = [], []
        opts = self._opts()
        for content in contents:
            try:
                doc = json.loads(content)
                res = self.transform(doc, opts)
                out.append(json.dumps(res, separators=(",", ":")))
                ok.append(True)
            except Exception:
                out.append(None)
                ok.append(False)
        result = batch.append_column(
            self.out_col, pa.array(out, pa.large_string()))
        return result.append_column("transform_ok",
                                    pa.array(ok, pa.bool_()))


class ExpandStage(_DocStage):
    out_col = "expanded"

    def transform(self, doc, opts):
        from ..core.expand import expand_document
        return expand_document(doc, opts)


class FlattenStage(_DocStage):
    out_col = "flattened"

    def transform(self, doc, opts):
        from ..core.expand import expand_document
        from ..core.node_map import flatten_expanded
        return flatten_expanded(expand_document(doc, opts))


class CompactStage(_DocStage):
    """Compaction against a broadcast target context."""

    out_col = "compacted"

    def __init__(self, snapshot_ref=None, ctx_ref=None,
                 options: Optional[dict] = None):
        super().__init__(snapshot_ref, options)
        self.ctx = _get_broadcast(ctx_ref) or {}

    def transform(self, doc, opts):
        from ..core.compact import compact_document
        from ..core.expand import expand_document
        expanded = expand_document(doc, opts)
        return compact_document(expanded, self.ctx, opts)


class FrameStage(_DocStage):
    """Framing against a broadcast frame document (per-document scope;
    framing is never distributed internally — SURVEY.md §7.4)."""

    out_col = "framed"

    def __init__(self, snapshot_ref=None, frame_ref=None,
                 options: Optional[dict] = None):
        super().__init__(snapshot_ref, options)
        self.frame = _get_broadcast(frame_ref) or {}

    def transform(self, doc, opts):
        from ..core.frame import frame_document
        return frame_document(doc, self.frame, opts)


class FromRdfStage:
    """N-Quads text column → expanded JSON-LD column (whole-document
    scope so rdf:List reconstruction sees its full graph)."""

    def __init__(self, options: Optional[dict] = None,
                 in_col: str = "nquads", out_col: str = "expanded"):
        self.options = options or {}
        self.in_col = in_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..core.from_rdf import from_rdf_quads
        from ..core.nquads import parse
        out, ok = [], []
        for text in batch.column(self.in_col).to_pylist():
            try:
                res = from_rdf_quads(parse(text), dict(self.options))
                out.append(json.dumps(res, separators=(",", ":")))
                ok.append(True)
            except Exception:
                out.append(None)
                ok.append(False)
        return (batch
                .append_column(self.out_col,
                               pa.array(out, pa.large_string()))
                .append_column("transform_ok", pa.array(ok, pa.bool_())))
