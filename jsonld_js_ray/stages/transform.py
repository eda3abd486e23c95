"""Per-document JSON-LD API queries over the repo-files corpus.

``api_batch`` runs one public API call (``api.expand``, ``api.flatten``,
``api.compact`` or ``api.frame``) per JSON / JSON-LD document of an Arrow
batch. It is a plain function, so it runs in Ray's task pool, with no
actor pool. The context resolver, and with it the processed-context
LRU, is the kernel's per-worker one (``expand_quads._stage``), so it
outlives the batch that warmed it. A document raising one of the
kernel's ``_DOC_ERRORS`` gives a row with a null result and
``transform_ok`` false; any other exception fails the batch.

The result column holds JSON *text* (large_string), so blocks stay
Arrow-native (SURVEY.md §1.3)."""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

from .. import api
from . import expand_quads

# op -> result column
OUT_COLS = {"expand": "expanded", "flatten": "flattened",
            "compact": "compacted", "frame": "framed"}


def api_batch(batch: pa.Table, op: str, arg=None) -> pa.Table:
    """Repo-files batch → ``(repo, path, <OUT_COLS[op]>, transform_ok)``
    for the rows whose ``lang`` is jsonld or json. ``arg`` is the
    compaction context (compact) or the frame (frame)."""
    batch = batch.filter(pc.is_in(batch.column("lang"),
                                  value_set=pa.array(["jsonld", "json"])))
    fn = getattr(api, op)
    # the API's own defaults apply: empty base, processingMode 1.1
    opts = {"contextResolver": expand_quads._stage().resolver}
    out, ok = [], []
    for content in batch.column("content").to_pylist():
        try:
            doc = json.loads(content)
            res = fn(doc, opts) if op == "expand" else fn(doc, arg, opts)
            out.append(json.dumps(res, separators=(",", ":")))
            ok.append(True)
        except expand_quads._DOC_ERRORS:
            out.append(None)
            ok.append(False)
    return pa.table({"repo": batch.column("repo"),
                     "path": batch.column("path"),
                     OUT_COLS[op]: pa.array(out, pa.large_string()),
                     "transform_ok": pa.array(ok, pa.bool_())})
