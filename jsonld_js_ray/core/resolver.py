"""Offline context resolution with per-worker caching.

Replaces the reference's HTTP document loader + ContextResolver
(/root/reference/lib/documentLoaders/node.js:34-199,
lib/ContextResolver.js:20-211) with an offline snapshot: a plain dict of
``url -> context document (parsed JSON)`` that each Ray worker process
builds once for itself (SURVEY.md §2.3/§2.4 — schema.org-style contexts are
the skewed hot keys; they are resolved once per worker, never per row).
"""

from __future__ import annotations

from collections import OrderedDict

from .errors import JsonLdError


class LruCache:
    def __init__(self, max_size: int = 100):
        self.max_size = max_size
        self._d: OrderedDict = OrderedDict()

    def get(self, key):
        try:
            self._d.move_to_end(key)
            return self._d[key]
        except KeyError:
            return None

    def put(self, key, value):
        self._d[key] = value
        self._d.move_to_end(key)
        while len(self._d) > self.max_size:
            self._d.popitem(last=False)


def load_remote_document(url: str, options: dict) -> dict:
    """jsonld.get (reference jsonld.js:888-918): dereference a remote
    DOCUMENT via the ``documentLoader`` hook (or the offline
    ``contexts`` snapshot), returning ``{document, documentUrl,
    contextUrl}``. Loader errors propagate raw (the reference awaits
    the loader OUTSIDE its try); a falsy or unparseable document is
    'loading document failed'."""
    import json as _json
    loader = options.get("documentLoader")
    if loader is not None:
        raw = loader(url)
    else:
        snapshot = options.get("contexts") or {}
        if url not in snapshot:
            raise JsonLdError(
                f"URL could not be dereferenced: {url!r}",
                "loading document failed")
        raw = snapshot[url]
    document_url, context_url, doc = url, None, raw
    if isinstance(raw, dict) and "document" in raw \
            and "documentUrl" in raw:
        # RemoteDocument shape (possibly redirected / Link-discovered)
        document_url = raw.get("documentUrl") or url
        context_url = raw.get("contextUrl") or None
        doc = raw["document"]
    try:
        if not doc:
            raise ValueError("no remote document")
        if isinstance(doc, str):
            doc = _json.loads(doc)
    except Exception as e:
        raise JsonLdError(
            f"Could not retrieve a JSON-LD document from the URL: "
            f"{url!r}", "loading document failed") from e
    return {"document": doc, "documentUrl": document_url,
            "contextUrl": context_url}


class ContextResolver:
    """Resolves ``@context`` URLs from an in-memory snapshot.

    ``snapshot`` maps absolute URL -> either a parsed JSON-LD document
    (whose ``@context`` entry is used) or a bare context object/array/URL.
    ``get_processed``/``put_processed`` back the processed-context cache
    keyed by (url, active-context fingerprint) — the Ray analog of the
    reference's ResolvedContext LRU (lib/ResolvedContext.js:8-30).
    """

    def __init__(self, snapshot: dict | None = None,
                 document_loader=None, max_processed: int = 512):
        self.snapshot = snapshot or {}
        self.document_loader = document_loader
        self._processed = LruCache(max_processed)

    def resolve(self, url: str) -> dict:
        doc = self.snapshot.get(url)
        if doc is None and self.document_loader is not None:
            doc = self.document_loader(url)
        if doc is None:
            raise JsonLdError(
                f"Could not dereference context URL (offline): {url!r}",
                "loading remote context failed")
        context_url = None
        if isinstance(doc, dict) and "documentUrl" in doc \
                and "document" in doc:
            # RemoteDocument shape from a loader (e.g.
            # sources.loader.SnapshotDocumentLoader); a Link-discovered
            # contextUrl is APPENDED to the context for resolution in
            # turn (reference ContextResolver.js:202-207)
            context_url = doc.get("contextUrl")
            url = doc.get("documentUrl") or url
            doc = doc["document"]
            if isinstance(doc, str):
                import json
                doc = json.loads(doc)
        if not isinstance(doc, dict):
            # a remote context document must be a JSON object
            # (cf. reference ContextResolver.js:186-192)
            raise JsonLdError(
                f"Dereferencing {url!r} did not result in a JSON object.",
                "invalid remote context")
        if "@context" in doc:
            ctx = doc["@context"]
        else:
            # no @context member: use the empty context
            # (cf. reference ContextResolver.js:194-196)
            ctx = {}
        if context_url:
            ctx = ctx if isinstance(ctx, list) else [ctx]
            ctx = ctx + [context_url]
        # fetch-time URL rewrite (reference ContextResolver.js:120-122,
        # 228-262 _resolveContextUrls): every nested '@context' STRING —
        # including term-scoped context URLs at any depth — absolutizes
        # against the remote document's URL here, so use-time
        # resolution never sees a relative scoped URL. '@import' values
        # are deliberately NOT rewritten (they resolve against
        # options.base at processing time, context.js:347-352).
        import copy as _copy
        ctx = _copy.deepcopy(ctx)  # the snapshot is shared state
        _resolve_context_urls(ctx, url)
        return {"context": ctx, "documentUrl": url}

    def get_processed(self, key):
        return self._processed.get(key)

    def put_processed(self, key, value):
        self._processed.put(key, value)


def _resolve_context_urls(ctx, base: str) -> None:
    """Mirror of the reference's _resolveContextUrls
    (ContextResolver.js:228-262), applied to the VALUE of '@context':
    absolutize string entries (top-level handled by the caller passing
    the ctx value), array string elements, and — recursing through
    every term of an object context — nested scoped-context strings.
    Mutates in place (callers pass a private deep copy)."""
    from .url import prepend_base

    def walk_ctx_value(v):
        # v is the VALUE of some '@context' key
        if isinstance(v, list):
            for i, el in enumerate(v):
                if isinstance(el, str):
                    v[i] = prepend_base(base, el)
                elif isinstance(el, dict):
                    walk_obj(el)
            return v
        if isinstance(v, dict):
            walk_obj(v)
        return v

    def walk_obj(obj):
        # obj is an OBJECT context: recurse into term definitions
        for term, td in obj.items():
            if isinstance(td, dict) and "@context" in td:
                inner = td["@context"]
                if isinstance(inner, str):
                    td["@context"] = prepend_base(base, inner)
                else:
                    walk_ctx_value(inner)

    if isinstance(ctx, list):
        for i, el in enumerate(ctx):
            if isinstance(el, str):
                ctx[i] = prepend_base(base, el)
            elif isinstance(el, dict):
                walk_obj(el)
    elif isinstance(ctx, dict):
        walk_obj(ctx)
