"""Seeded workload inputs.

Every input is a pure function of ``(workload, seed)``: the same seed
gives byte-identical Parquet files and documents, a different seed gives
different ones. The program under test only ever reads the files written
here; it never sees the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORKLOADS = ("kg_mixed", "kg_forks")

# rows per KG job: a job takes about 4 s on a 4-vCPU host, so a run
# holds several
KG_ROWS = {"kg_mixed": 5_000, "kg_forks": 4_000}
WARMUP_ROWS = 50
API_DOCS = 300
SHARDS = 4

SCHEMA = pa.schema([("repo", pa.string()), ("path", pa.string()),
                    ("commit", pa.string()), ("lang", pa.string()),
                    ("content", pa.string())])


def _table(rows: list[tuple]) -> pa.Table:
    return pa.table({f.name: pa.array(list(c), f.type)
                     for f, c in zip(SCHEMA, zip(*rows))})


def _zipf_index(rng: random.Random, cdf: np.ndarray) -> int:
    return int(np.searchsorted(cdf, rng.random()))


def _zipf_cdf(n: int, s: float = 1.0) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return np.cumsum(w / w.sum())


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def mixed_table(n_rows: int, seed: int) -> pa.Table:
    """The program's own synthetic corpus: 12 document shapes, 60%
    JSON-LD, unique content, Zipf-distributed repos."""
    from jsonld_js_ray.sources.repo_files import generate_repo_files
    return generate_repo_files(n_rows, seed=seed)


def _small_doc(rng: random.Random, k: int) -> dict:
    iri = f"https://pool.example/doc/{k}"
    shape = k % 4  # a fixed shape mix keeps the quad count steady
    if shape == 0:
        return {"@context": {"@vocab": "http://ex.org/v/"}, "@id": iri,
                "name": f"pooled {k}", "rank": rng.randrange(1000)}
    if shape == 1:
        return {"@context": "https://ctx.example/schema_org_like.jsonld",
                "@id": iri, "type": "Person", "name": f"person {k}",
                "age": rng.randrange(90),
                "knows": f"https://pool.example/doc/{k + 1}"}
    if shape == 2:
        return {"@context": "https://ctx.example/schema_org_like.jsonld",
                "@id": iri, "steps": [f"s{j}" for j in range(1, 4)],
                "author": {"name": f"anon {k}"}}
    return {"@context": {"@vocab": "http://ex.org/v/"}, "@id": iri,
            "twin1": {"t": "same"}, "twin2": {"t": "same"},
            "label": f"t{k}"}


def _source_file(rng: random.Random, i: int) -> str:
    # large non-JSON-LD file: a few KB of code-like text
    n_funcs = rng.randrange(40, 160)
    return "".join(f"def fn_{i}_{j}(x):\n    return x * {j} + {i}\n\n"
                   for j in range(n_funcs))


def forks_table(n_rows: int, seed: int) -> pa.Table:
    """A small pool of distinct JSON-LD docs copied across commits and
    forks of a few Zipf-hot repos, mixed with large source files.

    Copies of one doc in one repo share a partition (the pipeline keys
    partitions on the repo); copies in different forks land in different
    partitions, so the same quads legitimately appear in several
    partitions."""
    rng = random.Random(seed * 7919 + 1)
    pool = [json.dumps(_small_doc(random.Random(seed * 31 + k), k),
                       separators=(",", ":")) for k in range(120)]
    repos = [f"org{b}/proj{b}" if f == 0 else f"user{f}/proj{b}"
             for b in range(6) for f in range(5)]
    repo_cdf = _zipf_cdf(len(repos), 1.1)
    doc_cdf = _zipf_cdf(len(pool), 0.8)
    rows = []
    for i in range(n_rows):
        repo = repos[_zipf_index(rng, repo_cdf)]
        commit = _sha1(f"{repo}@{rng.randrange(4)}")
        if rng.random() < 0.5:
            k = _zipf_index(rng, doc_cdf)
            rows.append((repo, f"data/doc-{k}.jsonld", commit, "jsonld",
                         pool[k]))
        else:
            rows.append((repo, f"src/mod_{i}.py", commit, "py",
                         _source_file(rng, i)))
    return _table(rows)


def kg_table(workload: str, seed: int, n_rows: int | None = None
             ) -> pa.Table:
    n = KG_ROWS[workload] if n_rows is None else n_rows
    if workload == "kg_mixed":
        return mixed_table(n, seed)
    if workload == "kg_forks":
        return forks_table(n, seed)
    raise ValueError(f"not a KG workload: {workload!r}")


def write_corpus(table: pa.Table, out_dir: str, shards: int = SHARDS
                 ) -> str:
    """Write ``table`` as ``shards`` Parquet files; returns ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    step = -(-table.num_rows // shards)
    for s in range(shards):
        part = table.slice(s * step, step)
        pq.write_table(part, os.path.join(out_dir, f"part-{s:03d}.parquet"))
    return out_dir


def api_docs(seed: int, n_docs: int = API_DOCS) -> list[str]:
    """JSON-LD texts for the traced replay of the public API: the mixed
    corpus's documents, the same number of each shape (told apart by
    their top-level keys), so the work in a pass does not depend on the
    seed."""
    table = mixed_table(n_docs * 8, seed)
    shapes: dict[tuple, list[str]] = {}
    for lang, text in zip(table.column("lang").to_pylist(),
                          table.column("content").to_pylist()):
        if lang in ("jsonld", "json"):
            shapes.setdefault(tuple(sorted(json.loads(text))), []).append(
                text)
    groups = [shapes[k] for k in sorted(shapes)]
    per_shape = max(1, n_docs // len(groups))
    if min(len(g) for g in groups) < per_shape:
        raise ValueError("corpus too small for an even shape mix")
    return [g[i] for i in range(per_shape) for g in groups]
