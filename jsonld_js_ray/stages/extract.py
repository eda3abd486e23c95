"""Stage 1: extract/sniff + lineage (stateless ``map_batches``).

Pure, cheap, vectorized where possible (SURVEY.md §7.2): computes the
per-row ``content_sha256`` lineage invariant (BASELINE.json input_hint)
and flags JSON-LD candidate rows. Arrow in / Arrow out — zero-copy from
the object store."""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_JSONLD_LANGS = {"jsonld", "json"}

# P of the hive-partitioned output's ``partition_id = hash(repo) % P``
DEFAULT_PARTITIONS = 64


def extract_batch(batch: pa.Table,
                  num_partitions: int = DEFAULT_PARTITIONS) -> pa.Table:
    """Append content_sha256, is_jsonld, partition_id columns. A row whose
    content is null is not JSON-LD and has a null content_sha256."""
    contents = batch.column("content")
    langs = batch.column("lang").to_pylist()
    repos = batch.column("repo").to_pylist()

    # sha256 per row (C-speed per call; content bytes dominate)
    shas = [None if c is None
            else hashlib.sha256(c.encode("utf-8")).hexdigest()
            for c in contents.to_pylist()]

    # candidate sniff: declared lang, or structural "looks like JSON-LD"
    starts_obj = pc.starts_with(pc.utf8_ltrim_whitespace(contents), "{")
    starts_arr = pc.starts_with(pc.utf8_ltrim_whitespace(contents), "[")
    has_at = pc.match_substring(contents, '"@')
    structural = pc.and_(pc.or_(starts_obj, starts_arr), has_at)
    lang_ok = pa.array([lg in _JSONLD_LANGS for lg in langs], pa.bool_())
    # ``structural`` is null where the content is null: not JSON-LD
    is_jsonld = pc.or_(lang_ok, structural).fill_null(False)

    # deterministic partition key of the hive-partitioned output
    # (SURVEY.md §4.3.5: partition_id = hash(repo) % P)
    part = np.array([zlib.crc32(r.encode()) % num_partitions
                     for r in repos], dtype=np.int32)

    return (batch
            .append_column("content_sha256", pa.array(shas, pa.string()))
            .append_column("is_jsonld", is_jsonld.cast(pa.bool_()))
            .append_column("partition_id", pa.array(part, pa.int32())))
