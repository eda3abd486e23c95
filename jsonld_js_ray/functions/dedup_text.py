"""Document deduplication: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Patterns per the Ray guide / SURVEY.md §2.7: exact dedup is a
hash-partitioned groupby; near-dup is shingle→minhash per batch →
explode to (band, band_hash) rows → groupby buckets → candidate pairs →
distributed shingle hash-join → vectorized Jaccard verify. Connected
components resolve with iterative min-label propagation where labels
stay a Dataset (two hash shuffles per round, scalar convergence check)
— never a driver-side union-find or label dict over big data."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..util_ray import default_concurrency, pool_share

_MERSENNE = (1 << 61) - 1
_WORD_RE = re.compile(r"\w+")
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)],
                      dtype=np.uint8)


def md5_batch(batch: pa.Table) -> pa.Table:
    df = batch.select(["doc_id", "text"]).to_pandas()
    h = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]]
    return pa.table({"doc_id": pa.array(df["doc_id"], pa.int64()),
                     "text_md5": pa.array(h, pa.string())})


def exact_dedup(docs_ds):
    """Exact dedup groups: md5(text) → (keep_id = min doc_id, n)."""
    from ray.data.aggregate import Count, Min
    hashed = docs_ds.map_batches(md5_batch, batch_format="pyarrow")
    return (hashed.groupby("text_md5")
            .aggregate(Min("doc_id", alias_name="keep_id"),
                       Count(alias_name="n_docs")))


def _shingles(text: str, k: int = 5) -> np.ndarray:
    """Character k-shingle 64-bit hashes (numpy rolling hash)."""
    data = np.frombuffer(text.lower().encode("utf-8"), dtype=np.uint8)
    if len(data) < k:
        return np.array([int.from_bytes(data.tobytes(), "little")],
                        dtype=np.uint64)
    mult = np.uint64(1099511628211)
    out = np.zeros(len(data) - k + 1, dtype=np.uint64)
    for i in range(k):
        out = out * mult ^ data[i:len(data) - k + 1 + i].astype(np.uint64)
    return np.unique(out)


def _md5_u64(s: str) -> int:
    """DuckDB ``md5_number_lower``: last 8 md5 digest bytes, LE."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[8:],
                          "little")


def _md5_token_hashes(text: str) -> np.ndarray:
    """Sorted-unique md5 u64 hashes of the doc's distinct ``\\w+``
    word tokens (lowered) — the md5-mode MinHash item set. Matches
    DuckDB ``SELECT DISTINCT md5_number_lower(tok)`` over
    ``regexp_extract_all(lower(text), '[a-z0-9_]+')``."""
    toks = set(_WORD_RE.findall(text.lower()))
    if not toks:
        return np.array([], dtype=np.uint64)
    return np.unique(np.fromiter((_md5_u64(t) for t in toks),
                                 dtype=np.uint64, count=len(toks)))


class MinHasher:
    """Actor-pool stage: doc → minhash signature + LSH band hashes.

    Permutation parameters generated once per actor in __init__
    (num_perm × (a, b) over a Mersenne prime).

    hash_mode="fast" (default): char-5-shingle rolling hash items,
    rng-drawn permutation params, blake2b band keys — the headline
    throughput path. hash_mode="md5": distinct word-token items hashed
    with md5_number_lower, permutation params md5-derived from their
    index, band key = md5_number_lower of the comma-joined signature
    chunk — every stage reproducible in DuckDB SQL (value oracle)."""

    def __init__(self, num_perm: int = 64, bands: int = 16, k: int = 5,
                 seed: int = 7, hash_mode: str = "fast"):
        self.hash_mode = hash_mode
        if hash_mode == "md5":
            # params and item hashes are pre-reduced mod p so the SQL
            # mirror's a*x+b stays under 2^122 (DuckDB HUGEINT is 127
            # bits); numpy's uint64 product still wraps mod 2^64 and
            # SQL reproduces that wrap with an explicit % 2^64
            self.a = np.fromiter(
                (_md5_u64(f"minhash-a-{j}") % _MERSENNE
                 for j in range(num_perm)),
                dtype=np.uint64, count=num_perm)
            self.b = np.fromiter(
                (_md5_u64(f"minhash-b-{j}") % _MERSENNE
                 for j in range(num_perm)),
                dtype=np.uint64, count=num_perm)
        else:
            rng = np.random.default_rng(seed)
            self.a = rng.integers(1, _MERSENNE, size=num_perm,
                                  dtype=np.uint64)
            self.b = rng.integers(0, _MERSENNE, size=num_perm,
                                  dtype=np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = k

    def signature(self, text: str) -> np.ndarray:
        if self.hash_mode == "md5":
            sh = _md5_token_hashes(text) % np.uint64(_MERSENNE)
        else:
            sh = _shingles(text, self.k).astype(np.uint64)
        if not len(sh):
            return sh
        # (a*x + b) wraps mod 2^64 (numpy uint64), then mod p, min over
        # items per permutation — in SQL: ((a::HUGEINT*x+b) % 2^64) % p
        prod = (sh[None, :] * self.a[:, None] + self.b[:, None]) \
            % np.uint64(_MERSENNE)
        return prod.min(axis=1)

    def _band_hash(self, chunk: np.ndarray) -> int:
        if self.hash_mode == "md5":
            key = ",".join(str(int(x)) for x in chunk)
            return _md5_u64(key) % (1 << 62)
        h = hashlib.blake2b(chunk.tobytes(), digest_size=8)
        return int.from_bytes(h.digest(), "little") % (1 << 62)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Explode each doc into one row per LSH band."""
        df = batch.select(["doc_id", "text"]).to_pandas()
        doc_ids, band_ids, band_hashes = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            sig = self.signature(text)
            if not len(sig):  # md5 mode: token-less doc, no bands
                continue
            for b in range(self.bands):
                chunk = sig[b * self.rows_per_band:
                            (b + 1) * self.rows_per_band]
                doc_ids.append(doc_id)
                band_ids.append(b)
                band_hashes.append(self._band_hash(chunk))
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "band_id": pa.array(band_ids, pa.int32()),
            "band_hash": pa.array(band_hashes, pa.int64()),
        })


def _bucket_all_pairs(group: pd.DataFrame, cap: int = 64) -> pd.DataFrame:
    """All within-bucket pairs (a < b), capped.

    Complete recall for the Jaccard-verify path (a near-dup pair (b, c)
    is kept even when the bucket minimum fails verification against
    both). Buckets larger than ``cap`` docs fall back to star edges —
    a giant bucket means near-identical docs, where the star already
    connects everything, and O(n^2) on millions of members is the
    classic LSH skew bomb."""
    ids = np.sort(group["doc_id"].unique())
    if len(ids) < 2:
        return pd.DataFrame({"a": [], "b": []}, dtype="int64")
    if len(ids) > cap:
        lo = ids[0]
        return pd.DataFrame(
            {"a": np.full(len(ids) - 1, lo, dtype="int64"),
             "b": ids[1:].astype("int64")})
    ai, bi = np.triu_indices(len(ids), k=1)
    return pd.DataFrame({"a": ids[ai].astype("int64"),
                         "b": ids[bi].astype("int64")})


def minhash_candidate_pairs(docs_ds, num_perm=64, bands=16, k=5,
                            pair_mode: str = "min_anchor",
                            bucket_cap: int = 64,
                            global_dedup: bool = True,
                            hash_mode: str = "fast"):
    """LSH candidate pairs (a < b), deduplicated.

    pair_mode="min_anchor": star edges per bucket (for components).
    pair_mode="all": all within-bucket pairs, capped (for verify).
    global_dedup=False skips the cross-bucket pair-key shuffle for
    consumers that tolerate duplicate pairs."""
    banded = docs_ds.map_batches(
        MinHasher, fn_constructor_kwargs={
            "num_perm": num_perm, "bands": bands, "k": k,
            "hash_mode": hash_mode},
        batch_format="pyarrow", concurrency=pool_share(0.5, cap=12),
        num_cpus=1)
    # one Ray group per LSH bucket means one python call per distinct
    # (band_id, band_hash) — tens of thousands at sf0.1 (per-group
    # overhead dominated the query). Shuffle on a coarse bucket of the
    # band hash instead and pair ALL contained LSH buckets vectorized.
    n_coarse = 256

    def add_coarse(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["bb"] = (df["band_hash"].to_numpy() % n_coarse).astype("int32")
        return pa.Table.from_pandas(df, preserve_index=False)

    def coarse_pairs(g: pd.DataFrame) -> pd.DataFrame:
        key = ["band_id", "band_hash"]
        g = g.drop_duplicates(subset=key + ["doc_id"])
        sizes = g.groupby(key)["doc_id"].transform("size")
        parts = []
        if pair_mode == "all":
            small = g[(sizes > 1) & (sizes <= bucket_cap)]
            if len(small):
                m = small.merge(small, on=key, suffixes=("_x", "_y"))
                m = m[m["doc_id_x"] < m["doc_id_y"]]
                parts.append(pd.DataFrame(
                    {"a": m["doc_id_x"].to_numpy(),
                     "b": m["doc_id_y"].to_numpy()}))
            rest = g[sizes > bucket_cap]
        else:
            rest = g[sizes > 1]
        if len(rest):
            rest = rest.copy()
            rest["min_doc"] = rest.groupby(key)["doc_id"] \
                .transform("min")
            star = rest[rest["doc_id"] != rest["min_doc"]]
            parts.append(pd.DataFrame(
                {"a": star["min_doc"].to_numpy(),
                 "b": star["doc_id"].to_numpy()}))
        if not parts:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        out = pd.concat(parts, ignore_index=True).drop_duplicates()
        out["a"] = out["a"].astype("int64")
        out["b"] = out["b"].astype("int64")
        return out

    pairs = (banded.map_batches(add_coarse, batch_format="pyarrow")
             .groupby("bb").map_groups(coarse_pairs,
                                       batch_format="pandas"))

    def drop_dup_pairs(b: pa.Table) -> pa.Table:
        df = b.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = pairs.map_batches(drop_dup_pairs, batch_format="pyarrow")
    if not global_dedup:
        # batch-local dedup only: cross-bucket duplicates survive, for
        # consumers that tolerate them — jaccard_verify dedups inside
        # its own pair-bucket groupby (side-aware) and connected
        # components is invariant to duplicate edges. Skipping the
        # pair-key shuffle removes one all-to-all from the query.
        return pairs

    # global pair dedup via coarse-bucket shuffle
    def add_bucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["pb"] = ((df["a"] * 1000003 + df["b"]) % 64).astype("int32")
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = pairs.map_batches(add_bucket, batch_format="pyarrow")
    pairs = pairs.groupby("pb").map_groups(
        lambda g: g.drop_duplicates(subset=["a", "b"]),
        batch_format="pandas")
    return pairs.drop_columns(["pb"])


def jaccard_verify(docs_ds, pairs_ds, threshold: float = 0.8, k: int = 5,
                   hash_mode: str = "fast"):
    """Verify candidate pairs with exact shingle Jaccard — fully
    distributed, nothing is pulled to the driver.

    hash_mode="md5": the pair's item sets are the md5-hashed distinct
    word tokens (same sets the md5-mode MinHasher signs) and the
    jaccard column is the RAW IEEE double inter/union (no rounding) —
    both bit-reproducible in DuckDB for the SQL value oracle.

    Two-shuffle hash join:
      1. explode each pair (a, b) to one row per side keyed on the
         doc_id; union with the (doc_id, text) table; groupby(doc_id)
         co-locates each doc's text with every pair-row that needs it —
         shingles are computed ONCE per doc and shipped as a uint64
         blob per pair-side;
      2. groupby(a, b) brings the two shingle blobs of a pair together
         for a vectorized intersect.
    Both shuffles hash-partition on integer keys; no side is collected
    or broadcast, so it holds at 100 TB (the classic skew risk — one
    doc in millions of pairs — is bounded upstream by the per-bucket
    pair cap in ``_bucket_all_pairs``)."""

    NB = np.int64(64)  # join buckets: groups per shuffle, not per key

    def explode_pairs(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        doc = np.concatenate([a, b])
        side = np.concatenate([np.zeros(len(a), dtype=np.int32),
                               np.ones(len(b), dtype=np.int32)])
        return pa.table({
            "db": pa.array(doc % NB, pa.int64()),
            "doc_id": pa.array(doc, pa.int64()),
            "a": pa.array(np.concatenate([a, a]), pa.int64()),
            "b": pa.array(np.concatenate([b, b]), pa.int64()),
            "side": pa.array(side, pa.int32()),
            "text": pa.array([None] * (2 * len(a)), pa.string()),
        })

    def tag_docs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        doc = batch.column("doc_id").cast(pa.int64())
        return pa.table({
            "db": pa.array(doc.to_numpy(zero_copy_only=False) % NB,
                           pa.int64()),
            "doc_id": doc,
            "a": pa.array(np.full(n, -1), pa.int64()),
            "b": pa.array(np.full(n, -1), pa.int64()),
            "side": pa.array(np.full(n, -1, dtype=np.int32), pa.int32()),
            "text": batch.column("text").cast(pa.string()),
        })

    need = pairs_ds.map_batches(explode_pairs, batch_format="pyarrow")
    docs = (docs_ds.select_columns(["doc_id", "text"])
            .map_batches(tag_docs, batch_format="pyarrow"))

    def attach_shingles(g: pd.DataFrame) -> pd.DataFrame:
        # one bucket = many docs: shingle each needed doc ONCE, then a
        # vectorized merge fans the blob out to its pair rows
        pair_rows = g[g["a"] >= 0]
        if pair_rows.empty:
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64"),
                                 "side": pd.Series(dtype="int32"),
                                 "sh": pd.Series(dtype="object")})
        needed = set(pair_rows["doc_id"])
        doc_rows = g[(g["a"] < 0) & g["doc_id"].isin(needed)]
        mk_items = (_md5_token_hashes if hash_mode == "md5"
                    else lambda t: _shingles(t, k))
        blobs = pd.DataFrame({
            "doc_id": doc_rows["doc_id"].astype("int64"),
            "sh": [mk_items(str(t)).tobytes()
                   for t in doc_rows["text"]]})
        m = pair_rows[["doc_id", "a", "b", "side"]].merge(
            blobs, on="doc_id", how="inner")
        return m[["a", "b", "side", "sh"]]

    sides = (need.union(docs).groupby("db")
             .map_groups(attach_shingles, batch_format="pandas")
             .map_batches(lambda t: t, batch_format="pyarrow"))

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "pb", pa.array((a * np.int64(1000003) + b) % NB, pa.int64()))

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """One vectorized pass per bucket: pair rows up by (a, b), pool
        every side's shingle blob into ONE concatenated array tagged
        with its pair index, sort once, and count per-pair duplicate
        values (each side is sorted-unique, so a value shared by both
        sides appears exactly twice) — no per-pair Python loop."""
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                              "b": pd.Series(dtype="int64"),
                              "jaccard": pd.Series(dtype="float64")})
        if g.empty:
            return empty
        # duplicate candidate pairs (cross-bucket LSH dups, shipped
        # when the producer skipped its global dedup shuffle) collapse
        # HERE on (a, b, side) — the blob per side is deterministic
        g = g.drop_duplicates(subset=["a", "b", "side"])
        g = g.sort_values(["a", "b", "side"], kind="stable")
        a = g["a"].to_numpy(dtype=np.int64)
        bcol = g["b"].to_numpy(dtype=np.int64)
        side = g["side"].to_numpy(dtype=np.int64)
        # adjacent rows with equal (a, b) and side 0|1 are a pair's
        # two blobs (side order fixed by the sort)
        m = (a[:-1] == a[1:]) & (bcol[:-1] == bcol[1:]) \
            & (side[:-1] == 0) & (side[1:] == 1)
        lhs = np.flatnonzero(m)
        if not len(lhs):
            return empty
        blobs = g["sh"].to_numpy()
        arrs_a = [np.frombuffer(blobs[i], dtype=np.uint64) for i in lhs]
        arrs_b = [np.frombuffer(blobs[i + 1], dtype=np.uint64)
                  for i in lhs]
        sizes_a = np.array([x.size for x in arrs_a], dtype=np.int64)
        sizes_b = np.array([x.size for x in arrs_b], dtype=np.int64)
        npairs = len(lhs)
        pair_rep = np.repeat(np.arange(npairs), sizes_a + sizes_b)
        vals = np.concatenate(
            [v for ab in zip(arrs_a, arrs_b) for v in ab])
        order = np.lexsort((vals, pair_rep))
        pv, vv = pair_rep[order], vals[order]
        dup = (pv[1:] == pv[:-1]) & (vv[1:] == vv[:-1])
        inter = np.bincount(pv[1:][dup], minlength=npairs)
        union = sizes_a + sizes_b - inter
        raw = inter / np.maximum(union, 1)
        if hash_mode != "md5":
            # headline path keeps the 6-decimal display rounding; md5
            # mode emits the raw IEEE quotient (np.round is half-even,
            # DuckDB ROUND is half-away — rounding would break the
            # oracle at exact .5 boundaries like 1/128)
            raw = np.round(raw, 6)
        j = np.where(union > 0, raw, 1.0)
        sel = j >= threshold
        return pd.DataFrame({
            "a": pd.Series(a[lhs][sel], dtype="int64"),
            "b": pd.Series(bcol[lhs][sel], dtype="int64"),
            "jaccard": pd.Series(j[sel], dtype="float64")})

    return (sides.map_batches(add_pair_bucket, batch_format="pyarrow")
            .groupby("pb")
            .map_groups(verify_bucket, batch_format="pandas"))


class SimHasher:
    """Actor-pool SimHash (64-bit) over word tokens — batch-vectorized.

    One pandas ``str.findall`` tokenize + explode per batch, one
    ``pd.util.hash_array`` call over the whole token column (vectorized
    siphash, deterministic), and one segment-reduce of the ±1 bit votes
    per document — no per-token or per-bit Python in the hot path.
    tests/test_dedup_text.py carries an independent scalar-python
    re-derivation of the algorithm (same hash primitive) as the oracle."""

    def __init__(self, seed: int = 11, hash_mode: str = "fast"):
        import re
        self.tok = re.compile(r"\w+")
        self.shifts = np.arange(64, dtype=np.uint64)
        # "fast": pd.util.hash_array (vectorized siphash). "md5": the
        # DuckDB-reproducible md5_number_lower(token) — last 8 digest
        # bytes little-endian — memoized per actor (vocabulary-bounded;
        # capped so adversarial vocab can't grow the heap unboundedly)
        self.hash_mode = hash_mode
        self._md5_cache: dict[str, int] = {}

    def _hash_tokens(self, toks: np.ndarray) -> np.ndarray:
        if self.hash_mode == "fast":
            return pd.util.hash_array(toks).astype(np.uint64)
        import hashlib
        cache = self._md5_cache
        out = np.empty(len(toks), dtype=np.uint64)
        for k, t in enumerate(toks):
            h = cache.get(t)
            if h is None:
                h = int.from_bytes(
                    hashlib.md5(t.encode("utf-8")).digest()[8:], "little")
                if len(cache) < 1_000_000:
                    cache[t] = h
            out[k] = h
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", "text"]).to_pandas()
        toks = df["text"].str.lower().str.findall(self.tok)
        ex = toks.explode().dropna()
        sims = np.zeros(len(df), dtype=np.uint64)
        if len(ex):
            # distinct tokens per doc; explode preserves doc order so the
            # doc index is non-decreasing -> segment-reduce via reduceat
            pairs = pd.DataFrame({"i": ex.index.to_numpy(),
                                  "tok": ex.to_numpy()}).drop_duplicates()
            hs = self._hash_tokens(pairs["tok"].to_numpy())
            # bit j of column j via unpackbits on the little-endian byte
            # view (measured ~100x faster cold than a broadcast shift,
            # which pays a multi-second first-ufunc warmup per process)
            bits = np.unpackbits(hs.view(np.uint8).reshape(-1, 8),
                                 axis=1, bitorder="little").astype(np.int32)
            i = pairs["i"].to_numpy()
            starts = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])
            ones = np.add.reduceat(bits, starts, axis=0)
            cnt = np.diff(np.r_[starts, len(i)])
            pos = (2 * ones - cnt[:, None] > 0).astype(np.uint64)
            sims[i[starts]] = (pos << self.shifts[None, :]).sum(axis=1)
        out = (sims % np.uint64(1 << 63)).astype(np.int64)
        return pa.table({"doc_id": pa.array(df["doc_id"], pa.int64()),
                         "simhash": pa.array(out, pa.int64())})


def simhash_signatures(docs_ds, hash_mode: str = "fast"):
    return docs_ds.map_batches(SimHasher, batch_format="pyarrow",
                               fn_constructor_kwargs={
                                   "hash_mode": hash_mode},
                               concurrency=default_concurrency(),
                               num_cpus=1)


def _bucketed_min(ds, key: str, val: str, rename: str | None = None,
                  n_buckets: int = 64):
    """``groupby(key).min(val)`` via a coarse-bucket shuffle plus a
    vectorized pandas min inside each bucket.

    Ray's ``groupby().aggregate()`` pays per-group Python overhead — at
    one group per node/pair that dominates wall-clock (measured 282 s
    for 1.1M pair groups at sf0.1). Bucketing the key space first keeps
    the shuffle but makes the group count a constant."""
    out_val = rename or val

    def add_kb(b: pa.Table) -> pa.Table:
        k = b.column(key).to_numpy(zero_copy_only=False)
        return b.append_column(
            "_kb", pa.array(k % np.int64(n_buckets), pa.int64()))

    def min_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(key, as_index=False)[val].min()
        if rename:
            out = out.rename(columns={val: rename})
        out[out_val] = out[out_val].astype("int64")
        return out

    return (ds.map_batches(add_kb, batch_format="pyarrow")
            .groupby("_kb").map_groups(min_bucket, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow"))


def connected_components(pairs_ds, max_rounds: int = 15,
                         num_buckets: int = 32, hops_per_round: int = 1):
    """Min-label propagation over candidate-pair edges — labels stay a
    Dataset end-to-end; the driver only ever sees one scalar per round.

    Returns (a=node, label=component) with label = min doc_id reachable.
    Each hop is one bucketed hash shuffle + one groupby-Min:
      1. edges keyed on the neighbor, current labels keyed on the node,
         and SHORTCUT edges (node <-> label, i.e. pointer jumping — so
         label(label(n)) reaches n in one round, O(log diameter) rounds
         instead of O(diameter)) are co-located by ``key % B``; inside
         each bucket a vectorized pandas merge attaches each key's label
         to every edge pointing at it and pre-combines per node — B
         Python calls per hop, NOT one per graph node;
      2. groupby(node) Min folds the propagated labels with each node's
         own label (the propagate output carries every node's current
         label row, so no extra union with the labels dataset).
    Labels are monotonically non-increasing, so convergence ==
    Sum(label) unchanged — a single aggregate scalar, never an
    O(nodes) driver dict (that was the round-1 scale killer).

    Per-round fixed overhead (execution startup, not shuffle volume)
    dominated wall-clock on modest graphs; this layout runs ONE
    materialize + one cheap scalar probe per round (initial labels are
    derived from the already-materialized tagged edges, the redundant
    labels union per hop is gone). ``hops_per_round`` > 1 chains hops
    lazily into one execution, but an interleaved A/B at sf0.1 measured
    it SLOWER (8-10 s vs 4-6 s): the shortcut/label branches re-derive
    the intermediate hop inside the DAG, so keep the default 1."""

    def both_dirs(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        rev = df.rename(columns={"a": "b", "b": "a"})
        out = pd.concat([df[["a", "b"]], rev[["a", "b"]]])
        return pa.Table.from_pandas(out, preserve_index=False)

    nb = np.int64(num_buckets)

    def tag_edges(b: pa.Table) -> pa.Table:
        key = b.column("b").to_numpy(zero_copy_only=False)
        return pa.table({
            "kb": pa.array(key % nb, pa.int64()),
            "key": pa.array(key, pa.int64()),
            "node": b.column("a").cast(pa.int64()),
            "label": pa.array(np.full(b.num_rows, -1), pa.int64()),
        })

    def tag_labels(b: pa.Table) -> pa.Table:
        key = b.column("a").to_numpy(zero_copy_only=False)
        return pa.table({
            "kb": pa.array(key % nb, pa.int64()),
            "key": pa.array(key, pa.int64()),
            "node": pa.array(np.full(b.num_rows, -1), pa.int64()),
            "label": b.column("label").cast(pa.int64()),
        })

    def tag_label_edges(b: pa.Table) -> pa.Table:
        n = b.column("a").to_numpy(zero_copy_only=False)
        lab = b.column("label").to_numpy(zero_copy_only=False)
        m = n != lab
        n, lab = n[m], lab[m]
        key = np.concatenate([lab, n])
        return pa.table({
            "kb": pa.array(key % nb, pa.int64()),
            "key": pa.array(key, pa.int64()),
            "node": pa.array(np.concatenate([n, lab]), pa.int64()),
            "label": pa.array(np.full(2 * len(n), -1), pa.int64()),
        })

    def propagate_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lbl = g.loc[g["node"] < 0, ["key", "label"]]
        edg = g.loc[g["node"] >= 0, ["key", "node"]]
        if edg.empty:
            return lbl.rename(columns={"key": "a"})[["a", "label"]]
        m = edg.merge(lbl, on="key", how="left")
        m["label"] = m["label"].fillna(m["key"]).astype("int64")
        out = pd.concat([
            m[["node", "label"]].rename(columns={"node": "a"}),
            lbl.rename(columns={"key": "a"})[["a", "label"]]])
        # map-side combine before the global groupby-Min
        return out.groupby("a", as_index=False)["label"].min()

    # one materialize up front: the tagged-edge layout is reused every
    # hop, and counting it afterwards is metadata-only
    edges_all = pairs_ds.map_batches(both_dirs, batch_format="pyarrow") \
        .map_batches(tag_edges, batch_format="pyarrow").materialize()
    n_edges = edges_all.count()
    # block count sized to the data: at ~10k edges a 32-block layout
    # means every per-round shuffle schedules dozens of near-empty
    # tasks and fixed overhead dominates wall-clock; one block per
    # ~100k rows, floor 2, cap default_concurrency()
    nparts = max(2, min(default_concurrency(), n_edges // 100_000 + 2))
    edges_tagged = edges_all.repartition(nparts).materialize()

    # initial label per node: min(self, min neighbor), derived from the
    # already-materialized tagged edges (key = neighbor, node = self);
    # per-node Ray aggregate would pay per-group overhead, so bucket +
    # vectorize — one execution, repartition fused in
    def tag_node_bucket(b: pa.Table) -> pa.Table:
        n = b.column("node").to_numpy(zero_copy_only=False)
        return b.append_column("_ib", pa.array(n % nb, pa.int64()))

    def init_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False)["key"].min()
        return pd.DataFrame({
            "a": out["node"].astype("int64"),
            "label": np.minimum(out["node"],
                                out["key"]).astype("int64")})

    labels = (edges_tagged.map_batches(tag_node_bucket,
                                       batch_format="pyarrow")
              .groupby("_ib").map_groups(init_bucket,
                                         batch_format="pandas")
              .map_batches(lambda t: t, batch_format="pyarrow")
              .repartition(nparts).materialize())

    prev_sum = None
    for _ in range(max_rounds):
        # ``hops_per_round`` lazy hops chained into ONE execution:
        # shuffle volume is tiny next to per-execution startup, so
        # fusing hops cuts wall-clock even though the shortcut/label
        # branches re-derive the intermediate hop inside the same DAG
        cur = labels
        for _hop in range(hops_per_round):
            lbl_tagged = cur.map_batches(tag_labels,
                                         batch_format="pyarrow")
            shortcut = cur.map_batches(tag_label_edges,
                                       batch_format="pyarrow")
            prop = (edges_tagged.union(shortcut).union(lbl_tagged)
                    .groupby("kb")
                    .map_groups(propagate_bucket, batch_format="pandas")
                    # normalize to Arrow blocks before the next
                    # sort-shuffle (must not mix block types)
                    .map_batches(lambda t: t, batch_format="pyarrow"))
            # propagate output carries every node's current label row,
            # so the groupby-Min needs no union with ``cur``; the
            # repartition keeps block counts bounded (unbounded growth
            # degraded the per-round sort geometrically: 3 s -> 13 s ->
            # 132 s per round)
            cur = _bucketed_min(prop, "a", "label").repartition(nparts)
        labels = cur.materialize()
        s = labels.sum("label")
        if prev_sum is not None and s == prev_sum:
            break
        prev_sum = s
    return labels


# ---------------------------------------------------------------------------
# exact n-gram Jaccard near-dup (inverted-index join)
# ---------------------------------------------------------------------------

_WS_RE = None


def _word_ngrams(text: str, n: int) -> set:
    """Distinct word n-grams after trim+lower, splitting on ASCII \\s+
    (mirrors the SQL oracle's regexp_split_to_array(lower(trim(text)),
    '\\s+'))."""
    global _WS_RE
    if _WS_RE is None:
        import re
        _WS_RE = re.compile(r"\s+", re.ASCII)
    toks = _WS_RE.split(text.strip().lower())
    if len(toks) < n:
        return set()
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def ngram_jaccard_pairs(docs_ds, n: int = 3, threshold: float = 0.5,
                        hot_gram_warn: int = 1024):
    """Exact word-n-gram Jaccard near-duplicate pairs.

    Inverted-index join, fully distributed:
      1. map_batches: each doc → (gram, doc_id, n_grams) rows over its
         DISTINCT n-grams (gram count rides along so no extra join).
      2. groupby(gram).map_groups: emit all within-gram pairs a<b with
         both sizes — docs sharing a gram are co-located by the shuffle.
      3. groupby(doc_a, doc_b): Sum of pair rows = intersection size;
         jaccard = i / (na + nb - i), filtered at ``threshold``.

    Two shuffles, no driver-side state. Scale note: a gram shared by k
    docs emits k(k-1)/2 pair rows, so at corpus scale stop-grams need a
    cap/drop guard (which makes the result approximate); this exact
    setting matches the SQL oracle, and groups beyond ``hot_gram_warn``
    docs are logged as hot keys rather than silently truncated."""

    n_buckets = 256

    def explode_grams(batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", "text"]).to_pandas()
        doc_ids, grams, sizes = [], [], []
        for did, text in zip(df["doc_id"].to_numpy(),
                             df["text"].to_numpy()):
            gs = _word_ngrams(str(text), n)
            doc_ids.extend([did] * len(gs))
            grams.extend(gs)
            sizes.extend([len(gs)] * len(gs))
        t = pa.table({"gram": pa.array(grams, pa.string()),
                      "doc_id": pa.array(doc_ids, pa.int64()),
                      "n_grams": pa.array(sizes, pa.int64())})
        # gram hash-bucket: one map_groups group per BUCKET, not per gram
        # (per-gram groups would mean one python call per distinct gram)
        bucket = pd.util.hash_array(
            np.asarray(grams, dtype=object)) % n_buckets
        return t.append_column(
            "bucket", pa.array(bucket.astype("int64"), pa.int64()))

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized within-gram pairing: self-merge on gram, keep a<b
        counts = g.groupby("gram")["doc_id"].transform("size")
        hot = counts > hot_gram_warn
        if hot.any():
            for gram in g.loc[hot, "gram"].unique()[:5]:
                print(f"[ngram_jaccard] hot gram "
                      f"({int(counts[g['gram'] == gram].iloc[0])} docs): "
                      f"{gram!r}")
        m = g.merge(g, on="gram", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        # map-side combine: many grams of the same pair land in this
        # bucket; pre-sum so the pair shuffle moves one row per
        # (pair, bucket) instead of one per shared gram
        out = (m.groupby(["doc_id_a", "doc_id_b"], as_index=False)
               .agg(cnt=("gram", "size"), na=("n_grams_a", "first"),
                    nb=("n_grams_b", "first")))
        return pd.DataFrame({"doc_a": out["doc_id_a"].to_numpy(),
                             "doc_b": out["doc_id_b"].to_numpy(),
                             "cnt": out["cnt"].to_numpy().astype("int64"),
                             "na": out["na"].to_numpy(),
                             "nb": out["nb"].to_numpy()})

    grams = docs_ds.map_batches(explode_grams, batch_format="pyarrow")
    pair_rows = grams.groupby("bucket").map_groups(emit_pairs,
                                                  batch_format="pandas")

    # final intersection sum: the pair key has millions of tiny groups,
    # and Ray's groupby().aggregate() pays per-group overhead (measured
    # 282 s for 1.1M groups at sf0.1) — so shuffle on a coarse pair
    # bucket instead and aggregate vectorized inside each bucket
    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        pb = (df["doc_a"].to_numpy() * 1000003
              + df["doc_b"].to_numpy()) % n_buckets
        df["pb"] = pb.astype("int64")
        return pa.Table.from_pandas(df, preserve_index=False)

    def sum_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["doc_a", "doc_b"], as_index=False)
               .agg(inter=("cnt", "sum"), na=("na", "min"),
                    nb=("nb", "min")))
        return out

    agg = (pair_rows.map_batches(add_pair_bucket, batch_format="pyarrow")
           .groupby("pb").map_groups(sum_bucket, batch_format="pandas"))

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # summed per-bucket partial counts = intersection size
        inter = df["inter"].astype("int64")
        union = df["na"] + df["nb"] - inter
        jac = inter / union
        keep = jac >= threshold
        out = pd.DataFrame({
            "doc_a": df.loc[keep, "doc_a"].astype("int64"),
            "doc_b": df.loc[keep, "doc_b"].astype("int64"),
            "jaccard": jac[keep].round(6).astype("float64"),
        })
        return pa.Table.from_pandas(out, preserve_index=False)

    return agg.map_batches(finish, batch_format="pyarrow")


def simhash_near_dup(docs_ds, max_hamming: int = 3, n_bands: int = 4,
                     hash_mode: str = "fast"):
    """SimHash near-duplicate pairs: signatures → bit-band LSH →
    exact Hamming verify.

    The 64-bit simhash splits into ``n_bands`` 16-bit bands; two docs
    within Hamming distance < n_bands must agree exactly on at least one
    band (pigeonhole), so banding finds every pair with distance <
    n_bands and most pairs up to ``max_hamming``. One shuffle groups by
    (band_id, band_value) via a coarse bucket; within-bucket pairing and
    the popcount verify are vectorized (XOR + bit_count), no per-pair
    Python. Returns (doc_a, doc_b, hamming)."""
    from .dedup_text import simhash_signatures  # self-import safe

    sigs = simhash_signatures(docs_ds, hash_mode=hash_mode)
    band_bits = 64 // n_bands
    mask = np.uint64((1 << band_bits) - 1)
    n_coarse = 256

    def explode_bands(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        sim = df["simhash"].to_numpy().astype(np.uint64)
        doc = df["doc_id"].to_numpy()
        ids, bands, vals = [], [], []
        for band in range(n_bands):
            v = (sim >> np.uint64(band * band_bits)) & mask
            ids.append(doc)
            bands.append(np.full(len(doc), band, dtype=np.int64))
            vals.append(v.astype(np.int64))
        out = pa.table({
            "doc_id": pa.array(np.concatenate(ids), pa.int64()),
            "band_id": pa.array(np.concatenate(bands), pa.int64()),
            "band_val": pa.array(np.concatenate(vals), pa.int64()),
            "simhash": pa.array(np.tile(sim.astype(np.int64), n_bands),
                                pa.int64()),
        })
        bb = (out.column("band_val").to_numpy() * n_bands
              + out.column("band_id").to_numpy()) % n_coarse
        return out.append_column("_bb", pa.array(bb, pa.int64()))

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        key = ["band_id", "band_val"]
        g = g.drop_duplicates(subset=key + ["doc_id"])
        sizes = g.groupby(key)["doc_id"].transform("size")
        g = g[sizes > 1]
        if g.empty:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "hamming": pd.Series([], dtype="int64")})
        m = g.merge(g, on=key, suffixes=("_x", "_y"))
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        x = (m["simhash_x"].to_numpy().astype(np.uint64)
             ^ m["simhash_y"].to_numpy().astype(np.uint64))
        # vectorized popcount via byte LUT (numpy<2 has no bitwise_count)
        ham = _POPCOUNT8[x.view(np.uint8).reshape(-1, 8)] \
            .sum(axis=1).astype("int64")
        out = pd.DataFrame({"doc_a": m["doc_id_x"].to_numpy(),
                            "doc_b": m["doc_id_y"].to_numpy(),
                            "hamming": ham})
        out = out[out["hamming"] <= max_hamming].drop_duplicates(
            subset=["doc_a", "doc_b"])
        return out

    pairs = (sigs.map_batches(explode_bands, batch_format="pyarrow")
             .groupby("_bb").map_groups(bucket_pairs,
                                        batch_format="pandas"))

    # cross-bucket dedup: the same pair can emerge from several bands
    def add_pb(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["_pb"] = ((df["doc_a"] * 1000003 + df["doc_b"]) % 64) \
            .astype("int64")
        return pa.Table.from_pandas(df, preserve_index=False)

    return (pairs.map_batches(add_pb, batch_format="pyarrow")
            .groupby("_pb").map_groups(
                lambda g: g.drop_duplicates(subset=["doc_a", "doc_b"])
                [["doc_a", "doc_b", "hamming"]],
                batch_format="pandas"))
