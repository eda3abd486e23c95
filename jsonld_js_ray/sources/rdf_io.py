"""RDF sources/sinks: N-Quads files ↔ quad Datasets.

The reference's pluggable RDF parser registry
(/root/reference/lib/jsonld.js:994-1008, lib/NQuads.js) becomes a codec
registry keyed by content type; the N-Quads codec is built in. Reads are
``read_binary_files`` + a vectorized parse `map_batches`; the canonical
sink sorts per output file (full-file canonical order only on request —
a global sort of all quads is an all-to-all, SURVEY.md §2.6)."""

from __future__ import annotations

import os
from typing import Callable

import pyarrow as pa

from ..core.nquads import parse as parse_nquads
from ..core.nquads import serialize_quad
from ..stages.dedup import QUAD_COLS
from ..stages.expand_quads import QUAD_SCHEMA, _table

RDF_PARSERS: dict[str, Callable] = {}


def register_rdf_parser(content_type: str, parser: Callable):
    """cf. reference registerRDFParser (jsonld.js:994-1005)."""
    RDF_PARSERS[content_type] = parser


def unregister_rdf_parser(content_type: str):
    RDF_PARSERS.pop(content_type, None)


register_rdf_parser("application/n-quads", parse_nquads)
register_rdf_parser("application/nquads", parse_nquads)


# a parsed quad row: the quad columns, then the file it came from
_ROW_SCHEMA = pa.schema([QUAD_SCHEMA.field(c) for c in QUAD_COLS]
                        + [("source_file", pa.string())])


def _source_root(paths) -> str:
    """The directory ``read_nquads`` names its files relative to: the
    one directory given, or the directory holding every path given."""
    paths = [paths] if isinstance(paths, str) else paths
    return os.path.commonpath([
        p if os.path.isdir(p) else os.path.dirname(p)
        for p in map(os.path.abspath, paths)])


def read_nquads(paths, content_type: str = "application/n-quads"):
    """N-Quads file(s) → quad Dataset (one row per quad + source_file,
    the file's path relative to ``paths``' directory, so the rows do not
    depend on where the files live)."""
    import ray
    parser = RDF_PARSERS[content_type]
    root = _source_root(paths)
    files = ray.data.read_binary_files(paths, include_paths=True)

    def parse_batch(batch: pa.Table) -> pa.Table:
        return _table(_ROW_SCHEMA, [
            (*quad, os.path.relpath(path, root))
            for path, data in zip(batch.column("path").to_pylist(),
                                  batch.column("bytes").to_pylist())
            for quad in parser(data.decode("utf-8"))])

    return files.map_batches(parse_batch, batch_format="pyarrow")


def quad_table_to_nquad_lines(batch: pa.Table,
                              sort_lines: bool = True) -> pa.Table:
    """quad rows → one N-Quads line per row (optionally sorted within the
    batch — canonical per-file ordering)."""
    # one to_pylist per column, then zip — per-index .as_py() pays a
    # C-boundary call per cell (measured ~6x slower on 1M-quad batches)
    cols = [batch.column(c).to_pylist() for c in QUAD_COLS]
    lines = [serialize_quad(q) for q in zip(*cols)]
    if sort_lines:
        lines = sorted(lines)
    return pa.table({"nquad": pa.array(lines, pa.large_string())})


def write_nquads(quads_ds, out_dir: str, sort_lines: bool = True):
    """Quad Dataset → directory of .nq shards (each task writes its own
    shard, named by content hash — deterministic and rerun-safe)."""
    import hashlib

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(batch: pa.Table) -> pa.Table:
        tbl = quad_table_to_nquad_lines(batch, sort_lines)
        text = "\n".join(tbl.column("nquad").to_pylist())
        if text:
            text += "\n"
        name = hashlib.blake2b(text.encode(), digest_size=10).hexdigest()
        path = os.path.join(out_dir, f"part-{name}.nq")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
        return pa.table({"n_lines": pa.array([tbl.num_rows], pa.int64())})

    stats = quads_ds.map_batches(write_shard, batch_format="pyarrow")
    total = stats.sum("n_lines")
    return {"out_dir": out_dir, "n_lines": int(total or 0)}
