"""Mimic the driver's correctness gate: run each queries() entry and its
oracle_sql() side-by-side, compare row count + schema + order-insensitive
values. Usage: python scripts/check_oracles.py [sf_dir] [name ...]"""

from __future__ import annotations

import os
import sys

# the checkout this script lives in; main() also makes it the cwd, which
# Ray workers put first on their sys.path
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def to_pandas(result):
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
    assert isinstance(result, pd.DataFrame), type(result)
    return result


def normalize(df):
    df = df.copy()
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="stable")
    return df.reset_index(drop=True)


def compare(name, ray_df, sql_df):
    import pandas as pd
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"rowcount ray={len(ray_df)} sql={len(sql_df)}")
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns ray={sorted(ray_df.columns)} "
                        f"sql={sorted(sql_df.columns)}")
    if not problems:
        a, b = normalize(ray_df), normalize(sql_df)
        for col in a.columns:
            av, bv = a[col], b[col]
            # Dtype-exact, like the driver's hash gate: identical values
            # with different dtypes (e.g. int64 vs float64 from a DuckDB
            # HUGEINT sum) must FAIL here too, or mismatches slip through.
            if str(av.dtype) != str(bv.dtype):
                problems.append(
                    f"dtype differs in col {col}: "
                    f"ray={av.dtype} sql={bv.dtype}")
                continue
            try:
                if av.dtype.kind == "f":
                    import numpy as np
                    if not np.allclose(av.values, bv.values,
                                       rtol=0, atol=1e-9, equal_nan=True):
                        problems.append(f"values differ in col {col}")
                else:
                    if not (av.astype(str).values
                            == bv.astype(str).values).all():
                        problems.append(f"values differ in col {col}")
            except Exception as e:
                problems.append(f"compare error in {col}: {e}")
    return problems


def main():
    import duckdb
    import ray
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    sf_dir = os.path.abspath(sf_dir)
    only = set(sys.argv[2:])

    os.chdir(ROOT)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        import time
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name in oracles:
            sql_df = con.execute(oracles[name]).fetchdf()
            problems = compare(name, ray_df, sql_df)
            if problems:
                failures += 1
                print(f"FAIL {name} ({dt:.1f}s): {problems}")
            else:
                print(f"OK   {name} ({dt:.1f}s): {len(ray_df)} rows "
                      "== oracle")
        else:
            print(f"OK   {name} ({dt:.1f}s): {len(ray_df)} rows "
                  "(rows-only)")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
