"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG-construction pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline from
SURVEY.md §2 plus the training-data ops; ``oracle_sql()`` carries the
DuckDB equivalent for every SQL-expressible one (identical column names
and rounding on both sides). Ray is initialised by the driver before this
module is imported — nothing here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import atexit
import functools
import shutil
import tempfile
from collections.abc import Callable
from typing import Any

_K_ANN = 10
_N_ANN_QUERIES = 5

# this process's root for the dirs that queries write and their returned
# Datasets read lazily; removed at exit
_TMP_ROOT: str | None = None


def _tmp_dir(prefix: str) -> str:
    """A fresh dir under this process's temp root."""
    global _TMP_ROOT
    if _TMP_ROOT is None:
        _TMP_ROOT = tempfile.mkdtemp(prefix="jsonld_js_ray_")
    return tempfile.mkdtemp(prefix=prefix, dir=_TMP_ROOT)


@atexit.register
def _remove_tmp_root() -> None:
    global _TMP_ROOT
    if _TMP_ROOT is not None:
        shutil.rmtree(_TMP_ROOT, ignore_errors=True)
        _TMP_ROOT = None


def _docs(sf_dir: str):
    import ray
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet")


def _read_pdf(sf_dir: str, name: str):
    import pyarrow.parquet as pq
    return pq.read_table(f"{sf_dir}/{name}.parquet").to_pandas()


# ---------------------------------------------------------------------------
# KG pipeline queries (JSON-LD over the synthetic repo-files corpus;
# not SQL-expressible → rows-only checks; correctness is covered by the
# kernel fixture suite in tests/, and kg_quads' rows and lineage by a
# per-row reference in tests/test_pipeline.py)
# ---------------------------------------------------------------------------

def _kg_quads(sf_dir: str):
    """The flagship job's deduped quads: ``run_kg_pipeline`` into a fresh
    dir under ``_TMP_ROOT``, read back as ``QUAD_SCHEMA`` rows
    (``partition_id`` comes back from the hive path, so it is cast to
    int32 again). A job with no quads writes no partition, so it gives
    an empty ``QUAD_SCHEMA`` Dataset."""
    import ray
    from jsonld_js_ray.pipelines.kg import (
        repo_files_for_sf_dir, run_kg_pipeline)
    from jsonld_js_ray.stages.expand_quads import QUAD_SCHEMA
    out_dir = _tmp_dir("kg_quads_")
    summary = run_kg_pipeline(repo_files_for_sf_dir(sf_dir), out_dir)
    if not summary["n_quads"]:
        return ray.data.from_arrow(QUAD_SCHEMA.empty_table())
    return ray.data.read_parquet(f"{out_dir}/quads").map_batches(
        lambda b: b.select(QUAD_SCHEMA.names).cast(QUAD_SCHEMA),
        batch_format="pyarrow")


def _kg_docs(sf_dir: str, project=None):
    """One projection of the per-document kernel pass (``expand_quads``'
    ``expand_batch`` by default, or ``status_batch``, ``events_batch``,
    ``canonical_batch``, ``transform.api_batch``) over the tier's
    repo-files corpus: ``map_docs`` writes it into a fresh dir under
    ``_TMP_ROOT`` with the flagship's map tasks, and the Dataset reads it
    back."""
    from jsonld_js_ray.pipelines.kg import map_docs, repo_files_for_sf_dir
    from jsonld_js_ray.stages.expand_quads import expand_batch
    return map_docs(repo_files_for_sf_dir(sf_dir), project or expand_batch,
                    _tmp_dir("kg_docs_"))


def _kg_nodes(sf_dir: str):
    """Corpus node merge (entity linking): quads → merged JSON-LD nodes."""
    from jsonld_js_ray.pipelines.entity_link import merge_entities
    return merge_entities(_kg_docs(sf_dir))


def _kg_entity_summary(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import entity_summary
    return entity_summary(_kg_docs(sf_dir))


def _jsonld_transform(op: str):
    """Per-document API queries (``api.expand/flatten/compact/frame``)
    over the JSON rows of the repo-files corpus: ``api_batch`` as the
    projection of ``_kg_docs``."""
    def run(sf_dir: str):
        from jsonld_js_ray.stages.transform import api_batch
        arg = {"compact": {"@vocab": "http://ex.org/v/"},
               "frame": {"@context": {
                   "@vocab": "http://schema-like.example/"}}}.get(op)
        return _kg_docs(sf_dir, functools.partial(api_batch, op=op, arg=arg))
    return run


def _nquads_roundtrip(sf_dir: str):
    """Quads → N-Quads shards on disk → parse back (source+sink parity);
    ``source_file`` is the shard's name within the dir."""
    from jsonld_js_ray.sources.rdf_io import read_nquads, write_nquads
    out_dir = _tmp_dir("nq_roundtrip_")
    write_nquads(_kg_docs(sf_dir), out_dir)
    return read_nquads(f"{out_dir}/")


# ---------------------------------------------------------------------------
# documents: dedup + text analysis
# ---------------------------------------------------------------------------

def _doc_exact_dedup(sf_dir: str):
    from jsonld_js_ray.functions.dedup_text import exact_dedup
    return exact_dedup(_docs(sf_dir))


def _doc_token_counts(sf_dir: str):
    from jsonld_js_ray.functions.text import token_count_batch
    return _docs(sf_dir).map_batches(token_count_batch,
                                     batch_format="pyarrow")


def _doc_bpe_tokens(sf_dir: str):
    from jsonld_js_ray.functions.text import bpe_token_count_batch
    return _docs(sf_dir).map_batches(bpe_token_count_batch,
                                     batch_format="pyarrow")


def _doc_quality(sf_dir: str):
    from jsonld_js_ray.functions.text import quality_batch
    return _docs(sf_dir).map_batches(quality_batch, batch_format="pyarrow")


def _doc_langid(sf_dir: str):
    from jsonld_js_ray.functions.text import LangId
    from jsonld_js_ray.util_ray import default_concurrency
    return _docs(sf_dir).map_batches(LangId, batch_format="pyarrow",
                                     concurrency=default_concurrency(8),
                                     num_cpus=1)


def _doc_fingerprint(sf_dir: str):
    from jsonld_js_ray.functions.text import fingerprint_batch
    return _docs(sf_dir).map_batches(fingerprint_batch,
                                     batch_format="pyarrow")


def _doc_minhash_near_dup(sf_dir: str):
    # md5 hash mode: every stage (md5 token hashes -> md5-derived
    # permutations with the uint64-wrap formula -> md5 band keys ->
    # capped bucket pairing -> raw-IEEE Jaccard verify) is reproducible
    # in DuckDB SQL, giving the full pipeline a value-level oracle; the
    # bench headline keeps the faster shingle/blake2b path (bench.py)
    from jsonld_js_ray.functions.dedup_text import (
        jaccard_verify, minhash_candidate_pairs)
    docs = _docs(sf_dir)
    pairs = minhash_candidate_pairs(docs, pair_mode="all",
                                    global_dedup=False, hash_mode="md5")
    return jaccard_verify(docs, pairs, threshold=0.5, hash_mode="md5")


def _doc_simhash(sf_dir: str):
    # md5 hash mode: DuckDB-reproducible (md5_number_lower per token),
    # giving this query a value-level SQL oracle; the near-dup pipeline
    # keeps the faster vectorized-siphash mode
    from jsonld_js_ray.functions.dedup_text import simhash_signatures
    return simhash_signatures(_docs(sf_dir), hash_mode="md5")


def _doc_simhash_near_dup(sf_dir: str):
    # md5 hash mode: the whole near-dup pipeline (signature -> 16-bit
    # band LSH -> exact Hamming verify) is deterministic and has no
    # caps, so with a DuckDB-reproducible hash it gets a value-level
    # SQL oracle (band self-join + bit_count(xor))
    from jsonld_js_ray.functions.dedup_text import simhash_near_dup
    return simhash_near_dup(_docs(sf_dir), max_hamming=8,
                            hash_mode="md5")


def _doc_near_dup_components(sf_dir: str):
    # md5 hash mode (see _doc_minhash_near_dup): star-edge LSH buckets
    # + min-label components are deterministic, so the composition gets
    # a DuckDB recursive-CTE value oracle
    from jsonld_js_ray.functions.dedup_text import (
        connected_components, minhash_candidate_pairs)
    pairs = minhash_candidate_pairs(_docs(sf_dir), global_dedup=False,
                                    hash_mode="md5")
    return connected_components(pairs)


def _doc_simhash_components(sf_dir: str):
    # connected components over the simhash md5-mode near-dup pair
    # graph: every stage of the chain (signature -> band LSH -> Hamming
    # verify -> min-label components) is deterministic, so the full
    # operator composition gets a DuckDB value oracle (recursive-CTE
    # transitive closure + MIN over reachable labels)
    from jsonld_js_ray.functions.dedup_text import (
        connected_components, simhash_near_dup)
    pairs = simhash_near_dup(_docs(sf_dir), max_hamming=8,
                             hash_mode="md5")
    pairs = pairs.map_batches(
        lambda t: t.select(["doc_a", "doc_b"])
                   .rename_columns(["a", "b"]),
        batch_format="pyarrow")
    comps = connected_components(pairs)
    return comps.map_batches(
        lambda t: t.select(["a", "label"])
                   .rename_columns(["doc_id", "component"]),
        batch_format="pyarrow")


def _doc_ngram_jaccard(sf_dir: str):
    from jsonld_js_ray.functions.dedup_text import ngram_jaccard_pairs
    return ngram_jaccard_pairs(_docs(sf_dir), n=3, threshold=0.5)


def _doc_embedding_near_dup(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.ann import embedding_cosine_pairs
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    return embedding_cosine_pairs(emb, threshold=0.35)


# ---------------------------------------------------------------------------
# embeddings: similarity search
# ---------------------------------------------------------------------------

def _ann_queries(sf_dir: str):
    """Pick the _N_ANN_QUERIES smallest vec_ids as query vectors without
    materializing the table: pass 1 scans ONLY the vec_id column
    (row-group at a time) to locate the winners; pass 2 reads just the
    row groups that hold them, with a column projection. Driver holds
    O(row_group) rows at peak, never the corpus."""
    import numpy as np
    import pyarrow.parquet as pq
    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    best: list[tuple] = []  # (vec_id, row_group_idx)
    for rg in range(pf.num_row_groups):
        ids = pf.read_row_group(rg, columns=["vec_id"]).column(
            "vec_id").to_pylist()
        best.extend((v, rg) for v in ids)
        best.sort()
        del best[_N_ANN_QUERIES:]
    want = {v for v, _ in best}
    groups = sorted({rg for _, rg in best})
    rows = {}
    for rg in groups:
        t = pf.read_row_group(rg, columns=["vec_id", "embedding"])
        vid = t.column("vec_id").to_pylist()
        emb = t.column("embedding").to_pylist()
        for v, e in zip(vid, emb):
            if v in want:
                rows[v] = e
    ids = sorted(rows)
    vecs = np.array([rows[v] for v in ids], dtype="float64")
    return ids, vecs


def _ann_brute_force(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.ann import brute_force_topk
    ids, vecs = _ann_queries(sf_dir)
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    out = brute_force_topk(emb, ids, vecs, k=_K_ANN)
    return out.select_columns(["query_id", "vec_id", "cosine", "rank"])


def _ann_lsh(sf_dir: str):
    # md5-derived hyperplanes (functions/ann.py _md5_planes) so the
    # whole bucket→per-bucket-top-k pipeline has a DuckDB value oracle
    import ray
    from jsonld_js_ray.functions.ann import lsh_topk
    ids, vecs = _ann_queries(sf_dir)
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    out = lsh_topk(emb, ids, vecs, k=_K_ANN, hash_mode="md5")
    return out.select_columns(["query_id", "vec_id", "cosine", "rank"])


def _ann_ivf(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.ann import ivf_topk
    ids, vecs = _ann_queries(sf_dir)
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    out = ivf_topk(emb, ids, vecs, k=_K_ANN)
    return out.select_columns(["query_id", "vec_id", "cosine", "rank"])


# ---------------------------------------------------------------------------
# relational / stream-shaped
# ---------------------------------------------------------------------------

def _q1(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import lineitem_pricing_summary
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"])
    return lineitem_pricing_summary(li)


def _nation_revenue(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import customer_nation_revenue
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"])
    return customer_nation_revenue(orders, cust,
                                   _read_pdf(sf_dir, "nation"))


def _top_orders(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import top_orders
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"])
    return top_orders(orders, k=10)


def _events_type_agg(sf_dir: str):
    import ray
    import pyarrow as pa
    from ray.data.aggregate import Sum

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby("event_type", as_index=False)
             .agg(n=("value", "size"), sum_value=("value", "sum")))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ev.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sum_value", alias_name="sum_value")))

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["n"] = df["n"].astype("int64")
        df["sum_value"] = df["sum_value"].round(6)
        return pa.Table.from_pandas(df, preserve_index=False)

    return out.map_batches(finish, batch_format="pyarrow")


def _doc_length_by_lang(sf_dir: str):
    import pyarrow as pa
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["lang", "n_chars"]).to_pandas()
        g = (df.groupby("lang", as_index=False)
             .agg(n_docs=("n_chars", "size"),
                  sum_chars=("n_chars", "sum")))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (_docs(sf_dir).map_batches(partial, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("sum_chars", alias_name="sum_chars")))

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["n_docs"] = df["n_docs"].astype("int64")
        df["sum_chars"] = df["sum_chars"].astype("int64")
        df["avg_chars"] = (df["sum_chars"] / df["n_docs"]).round(6)
        return pa.Table.from_pandas(df, preserve_index=False)

    return out.map_batches(finish, batch_format="pyarrow")


def _part_brand_stats(sf_dir: str):
    import ray
    import pyarrow as pa
    from ray.data.aggregate import Max, Min, Sum

    part = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                 columns=["p_brand", "p_retailprice",
                                          "p_size"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby("p_brand", as_index=False)
             .agg(n_parts=("p_size", "size"),
                  sum_price=("p_retailprice", "sum"),
                  min_size=("p_size", "min"),
                  max_size=("p_size", "max")))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (part.map_batches(partial, batch_format="pyarrow")
           .groupby("p_brand")
           .aggregate(Sum("n_parts", alias_name="n_parts"),
                      Sum("sum_price", alias_name="sum_price"),
                      Min("min_size", alias_name="min_size"),
                      Max("max_size", alias_name="max_size")))

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["n_parts"] = df["n_parts"].astype("int64")
        df["sum_price"] = df["sum_price"].round(2)
        df["min_size"] = df["min_size"].astype("int64")
        df["max_size"] = df["max_size"].astype("int64")
        return pa.Table.from_pandas(df, preserve_index=False)

    return out.map_batches(finish, batch_format="pyarrow")


def _part_topk_by_brand(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import topk_per_group
    part = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                 columns=["p_brand", "p_partkey",
                                          "p_retailprice"])
    return topk_per_group(part, k=3)


def _doc_stratified_sample(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import stratified_sample
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "lang", "n_chars"])
    return stratified_sample(docs)


def _q3_shipping(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import q3_shipping_priority
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_mktsegment"])
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"])
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])
    return q3_shipping_priority(cust, orders, li)


def _region_revenue(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import region_revenue
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey"])
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"])
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"])
    return region_revenue(_read_pdf(sf_dir, "region"),
                          _read_pdf(sf_dir, "nation"),
                          cust, orders, li)


def _events_hourly(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import events_tumbling_window
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts", "user_id",
                                        "value"])
    return events_tumbling_window(ev, window_s=3600)


def _events_sliding(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import events_sliding_window
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts", "user_id",
                                        "value"])
    return events_sliding_window(ev, window_s=3600)


def _events_sessions(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.relational import events_sessionize
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts", "user_id",
                                        "value"])
    return events_sessionize(ev, gap_s=1800)


# ---------------------------------------------------------------------------
# multimodal plumbing (stubbed decode; deterministic fake features)
# ---------------------------------------------------------------------------

def _media_decode(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.multimodal import (
        decode_features, synthesize_media_table)
    from jsonld_js_ray.sources.repo_files import sf_from_dir
    n = max(50, int(sf_from_dir(sf_dir) * 20_000))
    media = ray.data.from_arrow(synthesize_media_table(n))
    return decode_features(media)


def _media_real_decode_bmp(sf_dir: str):
    """REAL image decode lane: genuine 24-bit BMP payloads decoded by
    the stdlib codec (no imaging library), 8x8 block-mean grayscale
    thumbnail features — use_stub=False exercised in this environment."""
    import ray
    import pyarrow.compute as pc
    from jsonld_js_ray.functions.multimodal import (
        decode_features, synthesize_real_media_table)
    from jsonld_js_ray.sources.repo_files import sf_from_dir
    n = max(50, int(sf_from_dir(sf_dir) * 10_000))
    tbl = synthesize_real_media_table(n)
    media = ray.data.from_arrow(tbl.filter(
        pc.equal(tbl.column("kind"), "image")))
    return decode_features(media, use_stub=False, codec="bmp")


def _media_real_audio_chunks_wav(sf_dir: str):
    """REAL audio lane: PCM16 WAV payloads decoded by the stdlib
    `wave` module; chunk boundaries come from actual frames and each
    chunk carries its RMS amplitude."""
    import ray
    from jsonld_js_ray.functions.multimodal import (
        chunk_audio, synthesize_real_media_table)
    from jsonld_js_ray.sources.repo_files import sf_from_dir
    n = max(50, int(sf_from_dir(sf_dir) * 10_000))
    media = ray.data.from_arrow(synthesize_real_media_table(n))
    return chunk_audio(media, chunk_ms=500, codec="wav")


def _media_frames(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.multimodal import (
        sample_frames, synthesize_media_table)
    from jsonld_js_ray.sources.repo_files import sf_from_dir
    n = max(50, int(sf_from_dir(sf_dir) * 20_000))
    media = ray.data.from_arrow(synthesize_media_table(n))
    return sample_frames(media)


def _media_audio_chunks(sf_dir: str):
    import ray
    from jsonld_js_ray.functions.multimodal import (
        chunk_audio, synthesize_media_table)
    from jsonld_js_ray.sources.repo_files import sf_from_dir
    n = max(50, int(sf_from_dir(sf_dir) * 20_000))
    media = ray.data.from_arrow(synthesize_media_table(n))
    return chunk_audio(media)


def entry() -> Any:
    """Flagship pipeline on the sf0.001 testdata: repo files → extract
    → expand+toRDF → partial dedup → spill per exchange group (one plain
    Ray task per read unit) → one reduce task per group writes the
    partitions → the written quads as a Dataset."""
    return _kg_quads("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from jsonld_js_ray.stages import expand_quads
    return {
        # KG construction (SURVEY.md §2.2/§3; rows-only checks)
        "kg_quads": _kg_quads,
        "kg_entity_summary": _kg_entity_summary,
        "kg_merged_nodes": _kg_nodes,
        "kg_doc_status": functools.partial(
            _kg_docs, project=expand_quads.status_batch),
        "kg_doc_events": functools.partial(
            _kg_docs, project=expand_quads.events_batch),
        "kg_canonical_nquads": functools.partial(
            _kg_docs, project=expand_quads.canonical_batch),
        "jsonld_expand_docs": _jsonld_transform("expand"),
        "jsonld_flatten_docs": _jsonld_transform("flatten"),
        "jsonld_compact_docs": _jsonld_transform("compact"),
        "jsonld_frame_docs": _jsonld_transform("frame"),
        "nquads_roundtrip": _nquads_roundtrip,
        # dedup family
        "doc_exact_dedup": _doc_exact_dedup,
        "doc_minhash_near_dup": _doc_minhash_near_dup,
        "doc_simhash": _doc_simhash,
        "doc_simhash_near_dup": _doc_simhash_near_dup,
        "doc_near_dup_components": _doc_near_dup_components,
        "doc_simhash_components": _doc_simhash_components,
        "doc_ngram_jaccard": _doc_ngram_jaccard,
        "doc_embedding_near_dup": _doc_embedding_near_dup,
        # text analysis
        "doc_token_counts": _doc_token_counts,
        "doc_bpe_token_counts": _doc_bpe_tokens,
        "doc_quality": _doc_quality,
        "doc_langid": _doc_langid,
        "doc_fingerprint": _doc_fingerprint,
        # similarity search
        "ann_brute_force_topk": _ann_brute_force,
        "ann_lsh_topk": _ann_lsh,
        "ann_ivf_topk": _ann_ivf,
        # relational / windowed
        "q1_pricing_summary": _q1,
        "nation_revenue": _nation_revenue,
        "top_orders": _top_orders,
        "q3_shipping_priority": _q3_shipping,
        "region_revenue": _region_revenue,
        "events_hourly": _events_hourly,
        "events_sliding_window": _events_sliding,
        "events_type_agg": _events_type_agg,
        "doc_length_by_lang": _doc_length_by_lang,
        "part_brand_stats": _part_brand_stats,
        "part_topk_by_brand": _part_topk_by_brand,
        "doc_stratified_sample": _doc_stratified_sample,
        "events_sessions": _events_sessions,
        # multimodal plumbing
        "media_decode_features": _media_decode,
        "media_real_decode_bmp": _media_real_decode_bmp,
        "media_real_audio_chunks_wav": _media_real_audio_chunks_wav,
        "media_frame_sample": _media_frames,
        "media_audio_chunks": _media_audio_chunks,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "doc_exact_dedup": """
            SELECT md5(text) AS text_md5,
                   min(doc_id) AS keep_id,
                   count(*) AS n_docs
            FROM documents GROUP BY md5(text)
        """,
        "doc_token_counts": r"""
            SELECT doc_id,
                   CASE WHEN length(trim(text)) = 0 THEN 1
                        ELSE length(regexp_split_to_array(trim(text),
                                                          '\s+'))
                   END AS n_tokens
            FROM documents
        """,
        "doc_langid": r"""
            WITH sliced AS (
              SELECT doc_id,
                     list_slice(regexp_extract_all(text,
                         '[a-zA-ZäöüÄÖÜßéèêàâçñ]+'), 1, 200) AS toks
              FROM documents
            ), toks AS (
              SELECT doc_id, lower(unnest(toks)) AS tok FROM sliced
            ), prof (lang, ord, word) AS (
              SELECT * FROM (VALUES
                ('en', 1, 'the'), ('en', 1, 'and'), ('en', 1, 'of'),
                ('en', 1, 'to'), ('en', 1, 'a'), ('en', 1, 'in'),
                ('en', 1, 'is'), ('en', 1, 'that'), ('en', 1, 'for'),
                ('en', 1, 'it'),
                ('de', 2, 'der'), ('de', 2, 'die'), ('de', 2, 'das'),
                ('de', 2, 'und'), ('de', 2, 'ist'), ('de', 2, 'nicht'),
                ('de', 2, 'ein'), ('de', 2, 'mit'), ('de', 2, 'zu'),
                ('de', 2, 'den'),
                ('fr', 3, 'le'), ('fr', 3, 'la'), ('fr', 3, 'les'),
                ('fr', 3, 'et'), ('fr', 3, 'est'), ('fr', 3, 'un'),
                ('fr', 3, 'une'), ('fr', 3, 'des'), ('fr', 3, 'que'),
                ('fr', 3, 'pour'),
                ('es', 4, 'el'), ('es', 4, 'la'), ('es', 4, 'los'),
                ('es', 4, 'y'), ('es', 4, 'es'), ('es', 4, 'un'),
                ('es', 4, 'una'), ('es', 4, 'de'), ('es', 4, 'que'),
                ('es', 4, 'para'))
            ), hits AS (
              SELECT t.doc_id, p.lang, p.ord, COUNT(*) AS h
              FROM toks t JOIN prof p ON t.tok = p.word
              GROUP BY t.doc_id, p.lang, p.ord
            ), best AS (
              SELECT doc_id, lang, h FROM (
                SELECT doc_id, lang, h,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY h DESC, ord ASC) AS rn
                FROM hits)
              WHERE rn = 1
            )
            SELECT s.doc_id AS doc_id,
                   COALESCE(b.lang, 'und') AS lang_pred,
                   CAST(COALESCE(b.h, 0) AS BIGINT) AS lang_hits,
                   CAST(len(s.toks) AS BIGINT) AS lang_toks
            FROM sliced s LEFT JOIN best b USING (doc_id)
        """,
        "doc_simhash": r"""
            WITH toks AS (
              SELECT DISTINCT doc_id, tok FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-z0-9_]+')) AS tok
                FROM documents)
            ), h AS (
              SELECT doc_id, md5_number_lower(tok) AS h64 FROM toks
            ), votes AS (
              SELECT doc_id, j,
                (CASE WHEN 2 * SUM(((h64 >> j) & 1)::BIGINT)
                           - COUNT(*) > 0
                      THEN 1::UBIGINT ELSE 0::UBIGINT END) << j AS bitval
              FROM h CROSS JOIN range(64) t(j)
              GROUP BY doc_id, j
            ), sims AS (
              SELECT doc_id, SUM(bitval) AS s FROM votes GROUP BY doc_id
            )
            SELECT d.doc_id AS doc_id,
                   CAST(COALESCE(s, 0) % 9223372036854775808 AS BIGINT)
                       AS simhash
            FROM documents d LEFT JOIN sims USING (doc_id)
        """,
        "doc_simhash_near_dup": r"""
            WITH toks AS (
              SELECT DISTINCT doc_id, tok FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-z0-9_]+')) AS tok
                FROM documents)
            ), h AS (
              SELECT doc_id, md5_number_lower(tok) AS h64 FROM toks
            ), votes AS (
              SELECT doc_id, j,
                (CASE WHEN 2 * SUM(((h64 >> j) & 1)::BIGINT)
                           - COUNT(*) > 0
                      THEN 1::UBIGINT ELSE 0::UBIGINT END) << j AS bitval
              FROM h CROSS JOIN range(64) t(j)
              GROUP BY doc_id, j
            ), sims AS (
              SELECT doc_id, SUM(bitval) AS s FROM votes GROUP BY doc_id
            ), sig AS (
              SELECT d.doc_id AS doc_id,
                     CAST(COALESCE(s, 0) % 9223372036854775808 AS BIGINT)
                         AS simhash
              FROM documents d LEFT JOIN sims USING (doc_id)
            ), bands AS (
              SELECT doc_id, simhash, j AS band_id,
                     (simhash >> (j * 16)::INT) & 65535 AS band_val
              FROM sig CROSS JOIN range(4) t(j)
            ), cand AS (
              SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     a.simhash AS sa, b.simhash AS sb
              FROM bands a JOIN bands b
                ON a.band_id = b.band_id AND a.band_val = b.band_val
               AND a.doc_id < b.doc_id
            )
            SELECT doc_a, doc_b,
                   CAST(bit_count(xor(sa, sb)) AS BIGINT) AS hamming
            FROM cand
            WHERE bit_count(xor(sa, sb)) <= 8
        """,
        "doc_simhash_components": r"""
            WITH RECURSIVE toks AS (
              SELECT DISTINCT doc_id, tok FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-z0-9_]+')) AS tok
                FROM documents)
            ), h AS (
              SELECT doc_id, md5_number_lower(tok) AS h64 FROM toks
            ), votes AS (
              SELECT doc_id, j,
                (CASE WHEN 2 * SUM(((h64 >> j) & 1)::BIGINT)
                           - COUNT(*) > 0
                      THEN 1::UBIGINT ELSE 0::UBIGINT END) << j AS bitval
              FROM h CROSS JOIN range(64) t(j)
              GROUP BY doc_id, j
            ), sims AS (
              SELECT doc_id, SUM(bitval) AS s FROM votes GROUP BY doc_id
            ), sig AS (
              SELECT d.doc_id AS doc_id,
                     CAST(COALESCE(s, 0) % 9223372036854775808 AS BIGINT)
                         AS simhash
              FROM documents d LEFT JOIN sims USING (doc_id)
            ), bands AS (
              SELECT doc_id, simhash, j AS band_id,
                     (simhash >> (j * 16)::INT) & 65535 AS band_val
              FROM sig CROSS JOIN range(4) t(j)
            ), cand AS (
              SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     a.simhash AS sa, b.simhash AS sb
              FROM bands a JOIN bands b
                ON a.band_id = b.band_id AND a.band_val = b.band_val
               AND a.doc_id < b.doc_id
            ), pairs AS (
              SELECT doc_a, doc_b FROM cand
              WHERE bit_count(xor(sa, sb)) <= 8
            ), edges AS (
              SELECT doc_a AS a, doc_b AS b FROM pairs
              UNION SELECT doc_b, doc_a FROM pairs
              UNION SELECT doc_a, doc_a FROM pairs
              UNION SELECT doc_b, doc_b FROM pairs
            ), reach(node, lab) AS (
              SELECT a, b FROM edges
              UNION
              SELECT r.node, e.b FROM reach r JOIN edges e
                ON r.lab = e.a
            )
            SELECT node AS doc_id, MIN(lab) AS component
            FROM reach GROUP BY node
        """,
        # md5-mode MinHash+LSH near-dup: md5_number_lower token hashes,
        # md5-derived permutation params (pre-reduced mod p = 2^61-1 so
        # a*x+b fits HUGEINT), explicit % 2^64 mirroring numpy's uint64
        # wrap, md5 band keys over the comma-joined signature chunk,
        # capped bucket pairing (<=64 all-pairs, >64 star), raw-IEEE
        # Jaccard over the md5 item sets
        "doc_minhash_near_dup": r"""
            WITH toks AS (
              SELECT DISTINCT doc_id, tok FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-z0-9_]+')) AS tok
                FROM documents)
            ), h AS (
              SELECT DISTINCT doc_id, md5_number_lower(tok) AS h64
              FROM toks
            ), perms AS (
              SELECT j,
                     md5_number_lower('minhash-a-' || j)
                         % 2305843009213693951 AS a,
                     md5_number_lower('minhash-b-' || j)
                         % 2305843009213693951 AS b
              FROM range(64) t(j)
            ), mins AS (
              SELECT doc_id, j,
                     MIN(CAST(((a::HUGEINT
                                * (h64 % 2305843009213693951) + b)
                               % 18446744073709551616)
                              % 2305843009213693951 AS UBIGINT)) AS v
              FROM h CROSS JOIN perms
              GROUP BY doc_id, j
            ), bands AS (
              SELECT doc_id, (j // 4)::INT AS band_id,
                     CAST(md5_number_lower(
                              string_agg(v::VARCHAR, ',' ORDER BY j))
                          % 4611686018427387904 AS BIGINT) AS band_hash
              FROM mins GROUP BY doc_id, (j // 4)
            ), sized AS (
              SELECT doc_id, band_id, band_hash,
                     COUNT(*) OVER (PARTITION BY band_id, band_hash)
                         AS n,
                     MIN(doc_id) OVER (PARTITION BY band_id, band_hash)
                         AS mn
              FROM bands
            ), cand AS (
              SELECT DISTINCT a, b FROM (
                SELECT x.doc_id AS a, y.doc_id AS b
                FROM sized x JOIN sized y
                  ON x.band_id = y.band_id
                 AND x.band_hash = y.band_hash
                 AND x.doc_id < y.doc_id
                WHERE x.n <= 64
                UNION ALL
                SELECT mn AS a, doc_id AS b FROM sized
                WHERE n > 64 AND doc_id <> mn)
            ), sizes AS (
              SELECT doc_id, COUNT(*) AS sz FROM h GROUP BY doc_id
            ), inter AS (
              SELECT c.a, c.b, COUNT(*) AS ci
              FROM cand c
              JOIN h x ON x.doc_id = c.a
              JOIN h y ON y.doc_id = c.b AND y.h64 = x.h64
              GROUP BY c.a, c.b
            ), scored AS (
              SELECT c.a AS a, c.b AS b,
                     CAST(COALESCE(i.ci, 0) AS DOUBLE)
                         / (sa.sz + sb.sz - COALESCE(i.ci, 0))
                         AS jaccard
              FROM cand c
              LEFT JOIN inter i ON i.a = c.a AND i.b = c.b
              JOIN sizes sa ON sa.doc_id = c.a
              JOIN sizes sb ON sb.doc_id = c.b
            )
            SELECT a, b, jaccard FROM scored WHERE jaccard >= 0.5
        """,
        # md5-mode MinHash star-edge buckets -> min-label connected
        # components (recursive-CTE transitive closure, MIN over
        # reachable labels; self-edges keep isolated pair endpoints)
        "doc_near_dup_components": r"""
            WITH RECURSIVE toks AS (
              SELECT DISTINCT doc_id, tok FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-z0-9_]+')) AS tok
                FROM documents)
            ), h AS (
              SELECT DISTINCT doc_id, md5_number_lower(tok) AS h64
              FROM toks
            ), perms AS (
              SELECT j,
                     md5_number_lower('minhash-a-' || j)
                         % 2305843009213693951 AS a,
                     md5_number_lower('minhash-b-' || j)
                         % 2305843009213693951 AS b
              FROM range(64) t(j)
            ), mins AS (
              SELECT doc_id, j,
                     MIN(CAST(((a::HUGEINT
                                * (h64 % 2305843009213693951) + b)
                               % 18446744073709551616)
                              % 2305843009213693951 AS UBIGINT)) AS v
              FROM h CROSS JOIN perms
              GROUP BY doc_id, j
            ), bands AS (
              SELECT doc_id, (j // 4)::INT AS band_id,
                     CAST(md5_number_lower(
                              string_agg(v::VARCHAR, ',' ORDER BY j))
                          % 4611686018427387904 AS BIGINT) AS band_hash
              FROM mins GROUP BY doc_id, (j // 4)
            ), sized AS (
              SELECT doc_id, band_id, band_hash,
                     COUNT(*) OVER (PARTITION BY band_id, band_hash)
                         AS n,
                     MIN(doc_id) OVER (PARTITION BY band_id, band_hash)
                         AS mn
              FROM bands
            ), pairs AS (
              SELECT DISTINCT mn AS a, doc_id AS b FROM sized
              WHERE n > 1 AND doc_id <> mn
            ), edges AS (
              SELECT a, b FROM pairs
              UNION SELECT b, a FROM pairs
              UNION SELECT a, a FROM pairs
              UNION SELECT b, b FROM pairs
            ), reach(node, lab) AS (
              SELECT a, b FROM edges
              UNION
              SELECT r.node, e.b FROM reach r JOIN edges e
                ON r.lab = e.a
            )
            SELECT node AS a, MIN(lab) AS label FROM reach GROUP BY node
        """,
        "doc_fingerprint": r"""
            WITH d AS (
              SELECT doc_id, text, length(text) AS n FROM documents
            ), grams AS (
              SELECT doc_id, i,
                xor(xor(xor(
                    ascii(substr(text, i + 1, 1))::UBIGINT * 16777619,
                    ascii(substr(text, i + 2, 1))::UBIGINT * 31),
                    ascii(substr(text, i + 3, 1))::UBIGINT * 131),
                    ascii(substr(text, i + 4, 1))::UBIGINT) AS g,
                n - 3 AS ng
              FROM d, unnest(range(n - 3)) t(i)
              WHERE n >= 4
            ), winmin AS (
              SELECT doc_id, i, ng, g,
                MIN(g) OVER (PARTITION BY doc_id ORDER BY i
                             ROWS BETWEEN CURRENT ROW
                                      AND 7 FOLLOWING) AS m
              FROM grams
            ), agg AS (
              SELECT doc_id,
                CASE WHEN MAX(ng) <= 8 THEN MIN(g)::HUGEINT
                     ELSE SUM(m) FILTER (WHERE i <= ng - 8) END AS fp
              FROM winmin GROUP BY doc_id
            ), short AS (
              SELECT doc_id,
                COALESCE((SELECT SUM(ascii(substr(text, k + 1, 1)))
                          FROM unnest(range(n)) u(k)), 0) AS fp
              FROM d WHERE n < 4
            )
            SELECT doc_id,
                   CAST(fp % 9223372036854775808 AS BIGINT)
                       AS fingerprint
            FROM (SELECT * FROM agg UNION ALL SELECT * FROM short)
        """,
        "doc_bpe_token_counts": r'''
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text,
                        '[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\r]+'))
                        AS BIGINT) AS n_bpe_tokens
            FROM documents
        ''',
        "doc_quality": r"""
            SELECT doc_id,
                   length(text) AS n_chars,
                   round((length(text) - length(
                       regexp_replace(text, '[^A-Za-z0-9_\s]', '', 'g')))
                       / greatest(length(text), 1)::DOUBLE, 6)
                       AS punct_ratio,
                   round((length(text) - length(
                       regexp_replace(text, '[0-9]', '', 'g')))
                       / greatest(length(text), 1)::DOUBLE, 6)
                       AS digit_ratio,
                   round((length(text) - length(
                       regexp_replace(text, '\s', '', 'g')))
                       / greatest(length(text), 1)::DOUBLE, 6)
                       AS space_ratio
            FROM documents
        """,
        "ann_brute_force_topk": f"""
            WITH q AS (
                SELECT vec_id AS query_id, embedding
                FROM embeddings ORDER BY vec_id LIMIT {_N_ANN_QUERIES}),
            sims AS (
                SELECT q.query_id, e.vec_id,
                       round(list_cosine_similarity(
                           CAST(e.embedding AS DOUBLE[]),
                           CAST(q.embedding AS DOUBLE[])), 6) AS cosine
                FROM embeddings e CROSS JOIN q),
            ranked AS (
                SELECT *, row_number() OVER (
                    PARTITION BY query_id
                    ORDER BY cosine DESC, vec_id ASC) AS rank
                FROM sims)
            SELECT query_id, vec_id, cosine, rank
            FROM ranked WHERE rank <= {_K_ANN}
        """,
        # full LSH pipeline mirror: md5-derived hyperplanes (weight =
        # md5_number_lower('lshplane:d:j') / 2^64 * 2 - 1, identical
        # float ops to functions/ann.py _md5_planes), sign-bit bucket
        # packing, bucket-restricted cosine, (cosine DESC, vec_id ASC)
        # rank — matching the per-bucket combiner's lexsort cut
        "ann_lsh_topk": f"""
            WITH planes AS (
                SELECT j, list(
                    md5_number_lower('lshplane:' || d || ':' || j)
                        / 18446744073709551616.0 * 2 - 1
                    ORDER BY d) AS pw
                FROM (SELECT unnest(range((SELECT len(embedding)
                                           FROM embeddings LIMIT 1)))
                      AS d) dd
                CROSS JOIN (SELECT unnest(range(6)) AS j) jj
                GROUP BY j),
            vb AS (
                SELECT e.vec_id, CAST(sum(
                    CASE WHEN list_dot_product(
                             CAST(e.embedding AS DOUBLE[]), p.pw) > 0
                         THEN 1 << p.j ELSE 0 END) AS BIGINT) AS bucket
                FROM embeddings e CROSS JOIN planes p
                GROUP BY e.vec_id),
            q AS (
                SELECT vec_id AS query_id, embedding
                FROM embeddings ORDER BY vec_id LIMIT {_N_ANN_QUERIES}),
            qb AS (
                SELECT vb.vec_id AS query_id, vb.bucket
                FROM vb JOIN q ON q.query_id = vb.vec_id),
            cands AS (
                SELECT qb.query_id, vb.vec_id,
                       round(list_cosine_similarity(
                           CAST(e.embedding AS DOUBLE[]),
                           CAST(q.embedding AS DOUBLE[])), 6) AS cosine
                FROM qb
                JOIN q ON q.query_id = qb.query_id
                JOIN vb ON vb.bucket = qb.bucket
                JOIN embeddings e ON e.vec_id = vb.vec_id),
            ranked AS (
                SELECT *, row_number() OVER (
                    PARTITION BY query_id
                    ORDER BY cosine DESC, vec_id ASC) AS rank
                FROM cands)
            SELECT query_id, vec_id, cosine, rank
            FROM ranked WHERE rank <= {_K_ANN}
        """,
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS sum_disc_price,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "nation_revenue": """
            SELECT n.n_name,
                   round(sum(o.o_totalprice), 2) AS revenue,
                   count(*) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "top_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice
            FROM orders
            ORDER BY o_totalprice DESC, o_orderkey ASC
            LIMIT 10
        """,
        "events_type_agg": """
            SELECT event_type, count(*) AS n,
                   round(sum(value), 6) AS sum_value
            FROM events GROUP BY event_type
        """,
        "doc_length_by_lang": """
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars,
                   round(sum(n_chars) / count(*)::DOUBLE, 6) AS avg_chars
            FROM documents GROUP BY lang
        """,
        "doc_ngram_jaccard": r"""
            WITH toks AS (
              SELECT doc_id,
                     regexp_split_to_array(lower(trim(text)), '\s+') AS t
              FROM documents),
            grams AS (
              SELECT DISTINCT doc_id,
                     t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS g
              FROM toks,
                   unnest(generate_series(1, greatest(len(t)-2, 0)))
                     AS u(i)),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams
                      GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
              FROM grams a JOIN grams b
                ON a.g = b.g AND a.doc_id < b.doc_id
              GROUP BY 1, 2)
            SELECT doc_a, doc_b,
                   round(i / (sa.n + sb.n - i), 6) AS jaccard
            FROM inter
            JOIN sizes sa ON sa.doc_id = doc_a
            JOIN sizes sb ON sb.doc_id = doc_b
            WHERE i / (sa.n + sb.n - i) >= 0.5
        """,
        "doc_embedding_near_dup": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   round(list_cosine_similarity(
                       a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6)
                       AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.35
        """,
        "part_brand_stats": """
            SELECT p_brand, count(*) AS n_parts,
                   round(sum(p_retailprice), 2) AS sum_price,
                   CAST(min(p_size) AS BIGINT) AS min_size,
                   CAST(max(p_size) AS BIGINT) AS max_size
            FROM part GROUP BY p_brand
        """,
        "part_topk_by_brand": """
            SELECT p_brand, p_partkey, p_retailprice,
                   CAST(rank AS BIGINT) AS rank
            FROM (SELECT p_brand, p_partkey, p_retailprice,
                         row_number() OVER (
                             PARTITION BY p_brand
                             ORDER BY p_retailprice DESC, p_partkey
                         ) AS rank
                  FROM part)
            WHERE rank <= 3
        """,
        "doc_stratified_sample": """
            SELECT doc_id, lang, n_chars,
                   CAST(bucket AS BIGINT) AS bucket
            FROM (SELECT doc_id, lang, n_chars,
                         ('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                         1, 8))::UBIGINT % 100 AS bucket
                  FROM documents)
            WHERE bucket < CASE WHEN lang = 'en' THEN 30 ELSE 10 END
        """,
        "q3_shipping_priority": """
            SELECT l_orderkey,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS revenue,
                   CAST(epoch(o_orderdate) AS BIGINT) AS o_epoch,
                   o_orderpriority
            FROM customer, orders, lineitem
            WHERE c_mktsegment = 'BUILDING'
              AND c_custkey = o_custkey
              AND l_orderkey = o_orderkey
              AND o_orderdate < TIMESTAMP '1998-06-01'
              AND l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY l_orderkey, o_orderdate, o_orderpriority
            ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC,
                     o_epoch, l_orderkey
            LIMIT 10
        """,
        "region_revenue": """
            SELECT r_name,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS revenue,
                   count(*) AS n_items
            FROM region, nation, customer, orders, lineitem
            WHERE r_regionkey = n_regionkey
              AND n_nationkey = c_nationkey
              AND c_custkey = o_custkey
              AND o_orderkey = l_orderkey
            GROUP BY r_name
        """,
        "events_hourly": """
            SELECT user_id,
                   CAST(floor(epoch(ts) / 3600) AS BIGINT) * 3600
                       AS window_start,
                   count(*) AS n_events,
                   round(sum(value), 6) AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "events_sliding_window": """
            WITH e AS (SELECT user_id, event_id, value,
                              CAST(floor(epoch(ts)) AS BIGINT) AS ep
                       FROM events)
            SELECT user_id, event_id, ep,
                   round(sum(value) OVER w, 6) AS sliding_sum,
                   CAST(count(*) OVER w AS BIGINT) AS n_window
            FROM e
            WINDOW w AS (PARTITION BY user_id ORDER BY ep
                         RANGE BETWEEN 3600 PRECEDING AND CURRENT ROW)
        """,
        "events_sessions": """
            WITH e AS (
                SELECT user_id, event_id, value,
                       CAST(floor(epoch(ts)) AS BIGINT) AS ep
                FROM events),
            flagged AS (
                SELECT *,
                       CASE WHEN lag(ep) OVER w IS NULL
                                 OR ep - lag(ep) OVER w > 1800
                            THEN 1 ELSE 0 END AS new_s
                FROM e
                WINDOW w AS (PARTITION BY user_id
                             ORDER BY ep, event_id)),
            sessions AS (
                SELECT *, sum(new_s) OVER (
                    PARTITION BY user_id ORDER BY ep, event_id
                    ROWS UNBOUNDED PRECEDING) AS session_idx
                FROM flagged)
            SELECT user_id,
                   min(ep) AS session_start,
                   max(ep) AS session_end,
                   count(*) AS n_events,
                   round(sum(value), 6) AS sum_value
            FROM sessions GROUP BY user_id, session_idx
        """,
    }
