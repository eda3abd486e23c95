"""Output oracles.

KG workloads: the expected output is the documented partition-scoped
dedup applied to a single-process ``ExpandToQuads(extract_batch(corpus))``
— the set of distinct ``(partition_id, quad)`` pairs. A job's written
quads are compared with it as a multiset:

* ``missing``: expected pairs that were not written;
* ``extra``: written pairs that are not expected, plus every repeat of a
  pair written more than once;
* ``quad_error_frac`` = (missing + extra) / expected.

``stages.dedup.partial_dedup_batch`` dedups across partitions inside one
batch, so a quad that several partitions share can be written to only one
of them. That loss is a known defect, reported through
``quad_error_frac`` and ``cross_partition_missing``. A job *fails* the
oracle when it writes an extra or repeated pair, or loses a quad that no
partition received (``unexplained_missing``).
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa
import pyarrow.dataset as pads

QUAD_COLS = ("subject", "predicate", "object_kind", "object_value",
             "datatype", "language", "graph")


def _pairs(table: pa.Table) -> list[tuple]:
    cols = [table.column(c).to_pylist() for c in QUAD_COLS]
    pids = table.column("partition_id").to_pylist()
    return [(int(p), q) for p, q in zip(pids, zip(*cols))]


def expected_pairs(corpus: pa.Table, snapshot: dict,
                   num_partitions: int) -> set[tuple]:
    """Distinct (partition_id, quad) pairs the pipeline should write."""
    from jsonld_js_ray.stages.expand_quads import ExpandToQuads
    from jsonld_js_ray.stages.extract import extract_batch
    stage = ExpandToQuads(snapshot_ref=snapshot)
    quads = stage(extract_batch(corpus, num_partitions=num_partitions))
    return set(_pairs(quads))


def written_pairs(quads_dir: str) -> list[tuple]:
    """Every (partition_id, quad) row of a job's hive-partitioned output."""
    ds = pads.dataset(quads_dir, format="parquet", partitioning="hive")
    return _pairs(ds.to_table(columns=list(QUAD_COLS) + ["partition_id"]))


def compare(expected: set[tuple], written: list[tuple]) -> dict:
    counts = Counter(written)
    extra = sum(n for pair, n in counts.items() if pair not in expected)
    extra += sum(n - 1 for pair, n in counts.items()
                 if pair in expected and n > 1)
    missing = expected.difference(counts)
    written_quads = {q for _, q in counts}
    unexplained = sum(1 for _, q in missing if q not in written_quads)
    n_exp = max(1, len(expected))
    return {
        "expected": len(expected),
        "written": len(written),
        "missing": len(missing),
        "extra": extra,
        "cross_partition_missing": len(missing) - unexplained,
        "unexplained_missing": unexplained,
        "quad_error_frac": (len(missing) + extra) / n_exp,
        "ok": extra == 0 and unexplained == 0,
    }

