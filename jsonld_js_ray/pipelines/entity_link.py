"""Corpus-level entity linking / node merge.

The corpus analog of the reference's node-map merge (SURVEY.md §2.5:
"group by (graph, @id), merge property lists, drop dup values",
/root/reference/lib/nodeMap.js + util.addValue semantics) expressed
skew-safely: node merge is ASSOCIATIVE (value-set union with the
reference's compareValues equality), so each slice first combines its
rows map-side, and the partials go through the flagship's exchange
(stages/partition_sink.py) keyed by subject: every row of a (graph,
subject) node meets in one group, whose one reduce task merges them.
Hot keys therefore cost O(distinct values) rows instead of
O(occurrences) — the salting SURVEY.md §4.3 calls for, achieved with a
combiner.

Encoding note (round-5 rework, VERDICT r4 item 7): partials travel as
COLUMNAR deduplicated quad rows, not per-node JSON strings. Because
every RDF-sourced value is a (kind, lexical, datatype, language) string
tuple, the reference's compareValues equality degenerates to plain
tuple equality — so map-side combine is a vectorized distinct and the
reduce side is one sorted ``drop_duplicates`` per group instead of a
JSON parse → addValue linear-scan (O(V^2) on hot nodes) → re-serialize
loop. Node JSON is assembled exactly once, at output. Value order within
a property is canonical (sorted by kind/value/datatype/language),
deterministic under any partitioning."""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.to_rdf import OBJ_BNODE, OBJ_IRI
from ..stages.partition_sink import subject_key
from .kg import aggregate

_ROW_COLS = ["graph", "subject", "predicate", "object_kind",
             "object_value", "datatype", "language"]
_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

NODE_SCHEMA = pa.schema([("graph", pa.string()), ("subject", pa.string()),
                         ("node_json", pa.string()),
                         ("n_values", pa.int64())])


def partial_nodes_batch(batch: pa.Table) -> pa.Table:
    """Map-side combine: the slice's quads deduplicated to distinct
    (graph, subject, predicate, value) rows."""
    return batch.select(_ROW_COLS).group_by(
        _ROW_COLS, use_threads=False).aggregate([])


def _node_json_rows(df: pd.DataFrame) -> pa.Table:
    """Distinct merged rows → one (graph, subject, node_json, n_values)
    row per node. Input must already be deduplicated and SORTED by the
    full row key (so node/property segments are contiguous and the
    emitted JSON, with its keys in sorted order, is canonical).

    Segment-reduce on numpy views instead of a pandas groupby: group
    iteration costs ~600µs/group at 500k single-row groups (measured
    322 s for 860k rows), the boundary scan + string assembly ~2 s."""
    n = len(df)
    if n == 0:
        return NODE_SCHEMA.empty_table()
    g = df["graph"].to_numpy()
    s = df["subject"].to_numpy()
    pred = df["predicate"].to_numpy()
    kind = df["object_kind"].to_numpy()
    val = df["object_value"].to_numpy()
    dt = df["datatype"].to_numpy()
    lg = df["language"].to_numpy()
    bounds = np.r_[np.flatnonzero(
        np.r_[True, (g[1:] != g[:-1]) | (s[1:] != s[:-1])]), n]
    dumps = json.dumps
    is_ref = (kind == OBJ_IRI) | (kind == OBJ_BNODE)
    out_g, out_s, out_json, out_n = [], [], [], []
    for bi in range(len(bounds) - 1):
        a, z = bounds[bi], bounds[bi + 1]
        # "@id" sorts before every http/urn predicate IRI, and rows
        # arrive predicate-sorted, so emission order == sort_keys order
        parts = [f'"@id":{dumps(s[a])}']
        i = a
        while i < z:
            j = i
            p = pred[i]
            vals = []
            while j < z and pred[j] == p:
                if is_ref[j]:
                    vals.append(f'{{"@id":{dumps(val[j])}}}')
                else:
                    # value-dict keys in sorted order:
                    # @language < @type < @value
                    inner = []
                    if lg[j]:
                        inner.append(f'"@language":{dumps(lg[j])}')
                    if dt[j] and dt[j] != _XSD_STRING:
                        inner.append(f'"@type":{dumps(dt[j])}')
                    inner.append(f'"@value":{dumps(val[j])}')
                    vals.append("{" + ",".join(inner) + "}")
                j += 1
            parts.append(f'{dumps(p)}:[{",".join(vals)}]')
            i = j
        out_g.append(g[a])
        out_s.append(s[a])
        out_json.append("{" + ",".join(parts) + "}")
        out_n.append(int(z - a))
    # built from the lists, not from pandas: pandas metadata on the
    # written schema makes Ray's read log "Failed to hash the schemas"
    return pa.table({"graph": out_g, "subject": out_s, "node_json": out_json,
                     "n_values": out_n}, schema=NODE_SCHEMA)


def _merge_group(partials: pa.Table) -> pa.Table:
    # one vectorized sort + dedup merges every partial in the group;
    # the sort doubles as the canonical value order (deterministic
    # regardless of arrival / partitioning)
    merged = (partials.select(_ROW_COLS).to_pandas()
              .sort_values(_ROW_COLS, kind="stable")
              .drop_duplicates())
    return _node_json_rows(merged)


def merge_entities(input_path: str, out_dir: str, batch_size: int = 1024):
    """The quads of the repo files of ``input_path`` merged into nodes
    (``NODE_SCHEMA``: graph, subject, node_json, n_values), written under
    ``out_dir`` and read back. The exchange moves deduplicated value
    rows, not quad occurrences."""
    return aggregate(input_path, out_dir, partial_nodes_batch,
                     subject_key, _merge_group, batch_size)
