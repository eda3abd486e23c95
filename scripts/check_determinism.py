"""Determinism gate: run float-aggregate-heavy queries twice (and at two
partitionings where the input allows) and require IDENTICAL values —
guards against float-summation order leaking through rounding, the
failure mode the driver's hash gate would flag as a flaky mismatch.
``kg_quads`` is in the default set too: two runs of the flagship sink must
write the same rows, lineage included; so are ``kg_entity_summary`` and
``kg_merged_nodes`` (one group-by shuffle each), the per-document views
``kg_doc_status``, ``kg_doc_events`` and ``kg_canonical_nquads`` and the
four ``jsonld_*_docs`` (projections written by the flagship's map tasks,
one Parquet file per slice, and read back), and ``nquads_roundtrip``
(N-Quads shards named by content hash, read back with paths relative to
their dir).

Usage: python scripts/check_determinism.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys

# the checkout this script lives in; main() also makes it the cwd, which
# Ray workers put first on their sys.path
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

DEFAULT_QUERIES = [
    "q1_pricing_summary", "nation_revenue", "region_revenue",
    "q3_shipping_priority", "events_hourly", "events_sliding_window",
    "events_sessions", "doc_ngram_jaccard", "doc_embedding_near_dup",
    "doc_length_by_lang", "kg_quads", "kg_entity_summary",
    "kg_merged_nodes", "kg_doc_status", "kg_doc_events",
    "kg_canonical_nquads", "jsonld_expand_docs", "jsonld_flatten_docs",
    "jsonld_compact_docs", "jsonld_frame_docs", "nquads_roundtrip",
]


def to_sorted_df(result):
    import pandas as pd
    import pyarrow as pa
    try:
        import ray.data as rd
        if isinstance(result, rd.Dataset):
            result = result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        result = result.to_pandas()
    assert isinstance(result, pd.DataFrame)
    result = result[sorted(result.columns)]
    return result.sort_values(list(result.columns),
                              kind="stable").reset_index(drop=True)


def main():
    import pandas as pd
    import ray
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    sf_dir = os.path.abspath(sf_dir)
    names = sys.argv[2:] or DEFAULT_QUERIES

    os.chdir(ROOT)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod
    qs = entrymod.queries()

    failures = 0
    for name in names:
        fn = qs[name]
        try:
            a = to_sorted_df(fn(sf_dir))
            b = to_sorted_df(fn(sf_dir))
            pd.testing.assert_frame_equal(a, b)
            print(f"OK   {name}: {len(a)} rows identical across runs")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {name}: runs differ — {str(e)[:200]}")
        except Exception as e:
            failures += 1
            print(f"FAIL {name}: raised {type(e).__name__}: {e}")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
