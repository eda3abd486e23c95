"""Output digests of the KG and JSON-LD queries: the same-bytes gate.

For each query in ``QUERIES``, and for the flagship's quads over the
tier's corpus with forked copies (``kg_quads_forked``), this computes the
number of rows and a sha256 over the column names, the dtypes and the
sorted rows as CSV (``check_determinism.to_sorted_df``). The KG queries
read the synthetic corpus of the tier that ``sf_dir``'s name gives, so
any directory called ``sf0.001`` gives the sf0.001 digests.
``tests/test_query_digests.py`` recomputes them in fresh Ray sessions at
two CPU counts and compares them with the committed fixture
``tests/fixtures/query_digests.json``.
A change that alters a query's output on purpose regenerates the
fixture and says why in CHANGES.md.

Usage:
  python scripts/query_digests.py [--num-cpus N] sf_dir
      prints {query: {"rows": n, "sha256": hex}} as one JSON line
  python scripts/query_digests.py --write [--num-cpus N] sf_dir
      also stores it in the fixture under the tier's name (sf0.001, ...)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

# the checkout this script lives in; main() also makes it the cwd, which
# Ray workers put first on their sys.path
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "scripts"))

FIXTURE = os.path.join(ROOT, "tests", "fixtures", "query_digests.json")

QUERIES = [
    "kg_quads", "kg_entity_summary", "kg_merged_nodes", "kg_doc_status",
    "kg_doc_events", "kg_canonical_nquads", "nquads_roundtrip",
    "jsonld_expand_docs", "jsonld_flatten_docs", "jsonld_compact_docs",
    "jsonld_frame_docs",
]


def digest(df) -> dict:
    """Rows and sha256 of one query's sorted DataFrame."""
    h = hashlib.sha256()
    h.update(json.dumps([[str(c), str(t)] for c, t in
                         df.dtypes.items()]).encode())
    h.update(df.to_csv(index=False, lineterminator="\n").encode())
    return {"rows": len(df), "sha256": h.hexdigest()}


def forked_repo_files(files):
    """The repo files plus two copies of each JSON-LD file that yield the
    same quads, so the dedup's winner rule (``dedup.WINNER_ORDER``) shows
    in the written lineage; the tier's own corpus has no duplicate quad.

    - an edit: same repo, a ``copy/`` path (less than the original's) and
      a trailing space (a different ``content_sha256``);
    - a fork: a repo name in the same partition that sorts first, with
      the same path and content at a commit that sorts last."""
    import zlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from jsonld_js_ray.stages.extract import DEFAULT_PARTITIONS

    def pid(repo):
        return zlib.crc32(repo.encode()) % DEFAULT_PARTITIONS

    docs = files.filter(pc.equal(files["lang"], "jsonld")).to_pylist()
    edits = [dict(d, path="copy/" + d["path"], content=d["content"] + " ")
             for d in docs]
    forks = [dict(d, commit="f" * 41, repo=next(
        f"fork{i}/{d['repo']}" for i in range(10 ** 6)
        if pid(f"fork{i}/{d['repo']}") == pid(d["repo"]))) for d in docs]
    return pa.concat_tables([files, pa.Table.from_pylist(
        edits + forks, schema=files.schema)])


def query_digests(sf_dir: str) -> dict:
    """The digests of ``QUERIES`` on the tier ``sf_dir`` names, and of the
    flagship's quads over its corpus with forks (``forked_repo_files``),
    as ``kg_quads_forked``."""
    import tempfile

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from check_determinism import to_sorted_df
    from jsonld_js_ray.pipelines.kg import (repo_files_for_sf_dir,
                                            run_kg_pipeline)
    qs = entrymod.queries()
    digests = {name: digest(to_sorted_df(qs[name](sf_dir)))
               for name in QUERIES}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus")
        os.makedirs(corpus)
        pq.write_table(forked_repo_files(pads.dataset(
            repo_files_for_sf_dir(sf_dir)).to_table()),
            os.path.join(corpus, "part-0.parquet"))
        run_kg_pipeline(corpus, os.path.join(tmp, "out"))
        digests["kg_quads_forked"] = digest(to_sorted_df(pads.dataset(
            os.path.join(tmp, "out", "quads"), partitioning="hive")
            .to_table()))
    return digests


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("sf_dir")
    parser.add_argument("--num-cpus", type=int, default=4)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    sf_dir = os.path.abspath(args.sf_dir)

    import ray
    os.chdir(ROOT)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    digests = query_digests(sf_dir)
    ray.shutdown()

    print(json.dumps(digests, sort_keys=True))
    if args.write:
        fixture = {}
        if os.path.exists(FIXTURE):
            with open(FIXTURE) as fh:
                fixture = json.load(fh)
        fixture[os.path.basename(os.path.normpath(sf_dir))] = digests
        with open(FIXTURE, "w") as fh:
            json.dump(fixture, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
