"""End-to-end Ray pipeline tests (FIXTURES.md §4-5 t1 tier):
sha256 invariant, dedup, resume. That the output does not depend on how
the input is sharded, so on how many map tasks run, is
tests/test_kg_sharding.py's check."""

import hashlib
import json
import shutil

import pyarrow.dataset as pads
import pytest

from jsonld_js_ray.sources.repo_files import generate_repo_files
from jsonld_js_ray.stages.dedup import QUAD_COLS, WINNER_ORDER
from jsonld_js_ray.stages.expand_quads import (QUAD_SCHEMA, ExpandToQuads,
                                               doc_quads)
from jsonld_js_ray.stages.extract import extract_batch
from jsonld_js_ray.core.resolver import ContextResolver
from jsonld_js_ray.sources.contexts import build_context_snapshot

N = 300


@pytest.fixture(scope="module")
def small_table():
    return generate_repo_files(N)


def test_generator_deterministic(small_table):
    again = generate_repo_files(N)
    assert small_table.equals(again)


def test_extract_sha256_invariant(small_table):
    out = extract_batch(small_table)
    contents = out.column("content").to_pylist()
    shas = out.column("content_sha256").to_pylist()
    for c, s in zip(contents, shas):
        assert hashlib.sha256(c.encode()).hexdigest() == s


def test_extract_of_no_rows_has_the_extract_columns(small_table):
    out = extract_batch(small_table.slice(0, 0))
    assert out.num_rows == 0
    assert out.schema == extract_batch(small_table).schema


def test_extract_null_content_is_not_jsonld(small_table):
    # null content, under a JSON-LD lang and another: not JSON-LD, no
    # sha256, and the kernel skips the row
    import pyarrow as pa
    table = small_table.slice(0, 3)
    content = table.column("content").to_pylist()
    content[0] = content[1] = None
    table = table.set_column(
        table.schema.get_field_index("content"), "content",
        pa.array(content, table.schema.field("content").type)).set_column(
        table.schema.get_field_index("lang"), "lang",
        pa.array(["jsonld", "python", "jsonld"]))
    out = extract_batch(table)
    assert out.column("is_jsonld").to_pylist() == [False, False, True]
    assert out.column("content_sha256").to_pylist()[:2] == [None, None]
    assert out.column("content_sha256")[2].as_py() == \
        hashlib.sha256(content[2].encode()).hexdigest()
    status = ExpandToQuads().status(out).column("status").to_pylist()
    assert status[:2] == ["skipped", "skipped"]


def test_expand_stage_local(small_table):
    batch = extract_batch(small_table)
    stage = ExpandToQuads()  # local snapshot fallback
    quads = stage(batch)
    assert quads.num_rows > 200
    # lineage joins back to input rows
    in_shas = set(batch.column("content_sha256").to_pylist())
    assert set(quads.column("content_sha256").to_pylist()) <= in_shas
    # all bnode labels are doc-prefixed (globally unique by construction)
    # and RDFC-1.0-canonical within the doc
    for s in quads.column("subject").to_pylist():
        if s.startswith("_:"):
            assert "-c14n" in s or "-b" in s
    # partition ids consistent per repo
    pairs = set(zip(quads.column("repo").to_pylist(),
                    quads.column("partition_id").to_pylist()))
    per_repo = {}
    for r, p in pairs:
        per_repo.setdefault(r, set()).add(p)
    assert all(len(v) == 1 for v in per_repo.values())


def test_doc_quads_matches_api():
    """Stage kernel output == api.to_rdf on the same doc (modulo prefix)."""
    from jsonld_js_ray import api
    doc = {"@context": {"@vocab": "http://v/"}, "@id": "http://v/a",
           "name": "x", "child": {"name": "y"}}
    content = json.dumps(doc)
    resolver = ContextResolver(build_context_snapshot())
    quads, events = doc_quads(content, resolver)
    assert quads == api.to_rdf(doc)


def test_canonical_view_matches_canonize(small_table):
    from jsonld_js_ray.core.canonize import canonize
    batch = extract_batch(small_table)
    stage = ExpandToQuads()
    got = {(r["repo"], r["path"]): r["canonical_nquads"]
           for r in stage.canonical(batch).to_pylist()}
    want = {(r["repo"], r["path"]):
            canonize(doc_quads(r["content"], stage.resolver)[0], 1000)
            for r in batch.to_pylist() if r["is_jsonld"]}
    assert len(want) > 100
    assert got == want


def test_events_view_errors_and_warnings():
    import pyarrow as pa
    table = pa.table({
        "repo": ["o/r"] * 4,
        "path": ["a.jsonld", "b.jsonld", "c.jsonld", "d.py"],
        "commit": ["c"] * 4,
        "lang": ["jsonld", "jsonld", "jsonld", "python"],
        "content": ['{"@context": 5}', '{not json',
                    '{"@id": "http://x/a", "@type": "rel", "bad": 1}',
                    "print(1)"],
    })
    stage = ExpandToQuads()
    rows = stage.events(extract_batch(table)).to_pylist()
    got = [(r["path"], r["code"], r["level"]) for r in rows]
    assert got == [
        ("a.jsonld", "invalid local context", "error"),
        ("b.jsonld", "JSONDecodeError", "error"),
        ("c.jsonld", "relative @type reference", "warning"),
        ("c.jsonld", "invalid property", "warning"),
        ("c.jsonld", "relative object reference", "warning")]


def test_status_view_counts_match_quad_and_event_views(small_table):
    from collections import Counter
    batch = extract_batch(small_table)
    stage = ExpandToQuads()
    quads = stage(batch)
    n_quads = Counter(zip(quads.column("repo").to_pylist(),
                          quads.column("path").to_pylist()))
    events = stage.events(batch)
    n_events = Counter(zip(events.column("repo").to_pylist(),
                           events.column("path").to_pylist()))
    status = stage.status(batch).to_pylist()
    assert len(status) == batch.num_rows
    assert sum(r["n_quads"] for r in status) == quads.num_rows > 0
    assert sum(r["n_events"] for r in status) == events.num_rows > 0
    for r in status:
        assert r["n_quads"] == n_quads[(r["repo"], r["path"])]
        assert r["n_events"] == n_events[(r["repo"], r["path"])]


def _copies_batch(n_copies=3):
    """An extracted batch holding ``n_copies`` copies each of an ok
    document, an invalid-context document, a non-JSON row flagged
    JSON-LD, the poison RDFC document and a skipped file. Copies
    alternate between two repos in different partitions and differ in
    commit; copy ``i`` of every kind has path ``copy<i>``, so distinct
    documents share paths."""
    import zlib

    import pyarrow as pa
    from tests.test_errors_and_poison import _good_and_poison_batch
    good, poison = _good_and_poison_batch().column("content").to_pylist()
    kinds = [("jsonld", good), ("jsonld", '{"@context": 5}'),
             ("jsonld", "{not json"), ("jsonld", poison),
             ("py", "print(1)")]
    repos = ["o/a"] + [r for r in (f"o/b{i}" for i in range(100))
                       if zlib.crc32(r.encode()) % 64
                       != zlib.crc32(b"o/a") % 64][:1]
    rows = [(repos[i % 2], f"copy{i}", f"c{i}", lang, content)
            for i in range(n_copies) for lang, content in kinds]
    names = ["repo", "path", "commit", "lang", "content"]
    batch = extract_batch(pa.table(
        {n: [r[k] for r in rows] for k, n in enumerate(names)}))
    assert len(set(batch.column("partition_id").to_pylist())) == 2
    return batch


def _per_row_reference(batch):
    """Quad, status, canonical and event rows of ``batch`` from a plain
    loop that calls ``doc_quads`` once per row."""
    from jsonld_js_ray.core.nquads import serialize
    from jsonld_js_ray.core.to_rdf import OBJ_BNODE
    from jsonld_js_ray.stages.expand_quads import RDFC_FALLBACK
    resolver = ContextResolver(build_context_snapshot())
    quads_rows, status_rows, canonical_rows, event_rows = [], [], [], []
    for r in batch.to_pylist():
        lineage = {k: r[k] for k in ("repo", "path", "commit",
                                     "content_sha256")}
        status, code, quads, events = "skipped", None, [], []
        if r["is_jsonld"]:
            try:
                quads, events = doc_quads(r["content"], resolver,
                                          canonical_bnodes=True)
                status = "ok"
            except Exception as e:
                status, code = "error", getattr(e, "code",
                                                type(e).__name__)
                events = [{"code": code, "level": "error"}]
        status_rows.append({**lineage, "partition_id": r["partition_id"],
                            "status": status, "error_code": code,
                            "n_quads": len(quads),
                            "n_events": 0 if status == "error"
                            else len(events)})
        if status == "ok" and not any(ev["code"] == RDFC_FALLBACK
                                      for ev in events):
            canonical_rows.append({
                **lineage, "canonical_nquads": serialize(quads, sort=True),
                "n_quads": len(quads)})
        event_rows.extend(
            {"repo": r["repo"], "path": r["path"],
             "content_sha256": r["content_sha256"], "code": ev["code"],
             "level": ev.get("level", "warning")} for ev in events)
        pre = "_:" + r["content_sha256"][:16] + "-"

        def ren(label):
            return pre + label[2:] if label and label.startswith("_:") \
                else label

        for s, p, k, v, dt, lg, g in quads:
            quads_rows.append({
                "subject": ren(s), "predicate": p, "object_kind": k,
                "object_value": ren(v) if k == OBJ_BNODE else v,
                "datatype": dt,
                "language": lg, "graph": ren(g), **lineage,
                "partition_id": r["partition_id"]})
    return {"__call__": quads_rows, "status": status_rows,
            "canonical": canonical_rows, "events": event_rows}


def test_copies_share_one_kernel_pass_and_match_per_row(monkeypatch):
    from collections import Counter
    from jsonld_js_ray.stages import expand_quads
    batch = _copies_batch()
    expected = _per_row_reference(batch)
    # every view of every kind is present, so the check is not vacuous
    assert {r["status"] for r in expected["status"]} \
        == {"ok", "error", "skipped"}
    assert {r["code"] for r in expected["events"]} >= {
        expand_quads.RDFC_FALLBACK, "invalid local context",
        "JSONDecodeError"}
    assert expected["canonical"] and expected["__call__"]

    calls = Counter()
    kernel = expand_quads.doc_quads

    def counting(content, *args, **kwargs):
        calls[content] += 1
        return kernel(content, *args, **kwargs)

    monkeypatch.setattr(expand_quads, "doc_quads", counting)
    stage = ExpandToQuads()
    jsonld = [c for c, j in zip(batch.column("content").to_pylist(),
                                batch.column("is_jsonld").to_pylist()) if j]
    for view, rows in expected.items():
        calls.clear()
        got = getattr(stage, view)(batch).to_pylist()
        assert got == rows, view
        assert calls == Counter(set(jsonld)), view


def _sorted_rows(rows):
    return sorted(rows, key=lambda r: [repr(r[n]) for n in QUAD_SCHEMA.names])


def _with_copies(table):
    """``table`` plus two copies of every 8th JSON-LD row in its own repo
    (so its partition): one at a lesser commit first, one at a lesser
    path last. The least copy is then neither the first to arrive nor
    the one a greatest-wins rule keeps."""
    import pyarrow as pa
    import pyarrow.compute as pc
    picked = table.filter(pc.equal(table["lang"], "jsonld")).take(
        list(range(0, 400, 8)))
    first = picked.set_column(2, "commit",
                              pa.array(["0" * 40] * picked.num_rows))
    last = picked.set_column(1, "path", pc.binary_join_element_wise(
        "0/", picked["path"], ""))
    return pa.concat_tables([first, table, last])


@pytest.mark.parametrize("copies", [False, True], ids=["sf0.001",
                                                       "sf0.001_copies"])
def test_kg_quads_keeps_the_least_copy_per_partition(ray_session, tmp_path,
                                                     monkeypatch, copies):
    """``kg_quads`` at sf0.001 against a single-process reference that
    shares no code with the fused path past ``doc_quads``: per-row quads
    with sha-prefixed blank nodes, then per (partition_id, quad) the row
    least on ``WINNER_ORDER``, lineage included. The sf0.001 corpus holds
    no duplicate quad, so a second run adds copies for the winner rule
    to decide."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    import __ray_entry__
    from jsonld_js_ray.pipelines import kg
    from jsonld_js_ray.sources.repo_files import repo_files_path
    table = pq.read_table(repo_files_path(0.001))
    if copies:
        table = _with_copies(table)
        (tmp_path / "input").mkdir()
        pq.write_table(table, tmp_path / "input" / "part-0.parquet")
        monkeypatch.setattr(kg, "repo_files_for_sf_dir",
                            lambda sf_dir: str(tmp_path / "input"))
    rows = _per_row_reference(extract_batch(table))["__call__"]

    def key(row):
        return (row["partition_id"], *(row[c] for c in QUAD_COLS))

    def rank(row):
        return tuple(row[c] for c in WINNER_ORDER)

    best, ranks = {}, {}
    for row in rows:
        ranks.setdefault(key(row), set()).add(rank(row))
        if key(row) not in best or rank(row) < rank(best[key(row)]):
            best[key(row)] = row
    # with copies, the winner rule decides rows of this check
    assert any(len(r) > 1 for r in ranks.values()) == copies

    ds = __ray_entry__.queries()["kg_quads"](str(tmp_path / "sf0.001"))
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.schema == QUAD_SCHEMA
    assert _sorted_rows(got.to_pylist()) == \
        _sorted_rows(list(best.values()))


def test_kg_quads_without_jsonld_is_empty(ray_session, tmp_path,
                                         monkeypatch):
    """A corpus with no JSON-LD commits a job of 0 quads that writes no
    ``quads/`` dir; ``kg_quads`` then gives 0 ``QUAD_SCHEMA`` rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    import __ray_entry__
    from jsonld_js_ray.pipelines import kg
    schema = generate_repo_files(1).schema
    (tmp_path / "input").mkdir()
    for i in range(4):
        pq.write_table(pa.table({"repo": ["o/r"], "path": [f"m{i}.py"],
                                 "commit": ["c"], "lang": ["python"],
                                 "content": ["print(1)"]}, schema=schema),
                       tmp_path / "input" / f"part-{i}.parquet")
    monkeypatch.setattr(kg, "repo_files_for_sf_dir",
                        lambda sf_dir: str(tmp_path / "input"))
    ds = __ray_entry__.queries()["kg_quads"](str(tmp_path / "sf0.001"))
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.schema == QUAD_SCHEMA
    assert got.num_rows == 0


@pytest.mark.usefixtures("ray_session")
class TestRayPipeline:
    def _run(self, tmp_out):
        from jsonld_js_ray.pipelines.kg import run_kg_pipeline
        from jsonld_js_ray.sources.repo_files import repo_files_path
        path = repo_files_path(0.0003)  # 300 rows in 8 files
        shutil.rmtree(tmp_out, ignore_errors=True)
        return run_kg_pipeline(path, tmp_out)

    def test_end_to_end_and_resume(self, tmp_path, monkeypatch):
        out = str(tmp_path / "kg")
        m1 = self._run(out)
        assert m1["n_quads"] > 100
        ds = pads.dataset(out + "/quads", partitioning="hive")
        t = ds.to_table()
        assert t.num_rows == m1["n_quads"]
        # no duplicate quads
        import pandas as pd
        df = t.to_pandas()
        assert not df.duplicated(subset=QUAD_COLS).any()

        # resume: a second run returns the committed summary and starts
        # no map task
        from jsonld_js_ray.pipelines import kg
        from jsonld_js_ray.sources.repo_files import repo_files_path
        monkeypatch.setattr(kg, "_map_unit", None)
        m2 = kg.run_kg_pipeline(repo_files_path(0.0003), out)
        assert m2 == m1

    def test_entity_summary(self, tmp_path):
        from jsonld_js_ray.pipelines.kg import entity_summary
        from jsonld_js_ray.sources.repo_files import repo_files_path
        ent = entity_summary(repo_files_path(0.0003),
                             str(tmp_path / "ent")).to_pandas()
        assert (ent["n_quads"] > 0).all()
        assert ent["subject"].is_unique

    def test_entity_summary_partition_invariant(self, tmp_path,
                                                monkeypatch):
        # one document in 12 rows, read as 4 units of 3 rows in slices of
        # 1, 4 or 1024 rows: its (subject, doc) partials reach the
        # exchange from many slices and units, and each subject must
        # still count n_docs=1 (a per-slice count summed globally would
        # count it once per slice)
        from jsonld_js_ray.pipelines import kg
        corpus, table = _copies_corpus(tmp_path)
        one_copy = ExpandToQuads()(extract_batch(table.slice(0, 1)))
        per_copy = one_copy.to_pandas().groupby("subject").size()
        assert len(per_copy) > 1
        for batch_size in (1, 4, 1024):
            monkeypatch.setattr(kg, "BATCH_SIZE", batch_size)
            out = kg.entity_summary(
                corpus, str(tmp_path / f"ent{batch_size}")).to_pandas()
            assert {s: (q, d) for s, q, d in zip(
                out["subject"], out["n_quads"], out["n_docs"])} == {
                s: (_COPIES * n, 1) for s, n in per_copy.items()}

    def test_doc_status_quarantine(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        from jsonld_js_ray.pipelines.kg import map_docs
        from jsonld_js_ray.stages.expand_quads import status_batch
        bad = pa.table({
            "repo": ["o/r", "o/r"],
            "path": ["a.jsonld", "b.jsonld"],
            "commit": ["c", "c"],
            "lang": ["jsonld", "jsonld"],
            "content": ['{"@context": 5, "@id": "http://x/a"}',
                        '{"@id": "http://x/a", "http://p": "v"}'],
        })
        (tmp_path / "input").mkdir()
        pq.write_table(bad, tmp_path / "input" / "part-0.parquet")
        st = map_docs(str(tmp_path / "input"), status_batch,
                      str(tmp_path / "status")).to_pandas()
        st = st.set_index("path")
        assert st.loc["a.jsonld", "status"] == "error"
        assert st.loc["b.jsonld", "status"] == "ok"
        assert st.loc["b.jsonld", "n_quads"] == 1


class TestEntityLink:
    def _quads_df(self):
        import pandas as pd
        # duplicate occurrences across "documents", two graphs, typed +
        # language-tagged + IRI values, a hot subject
        rows = []
        for rep in range(3):
            rows += [
                ("", "urn:hot", "http://p/name", 3, "Alice", None, None),
                ("", "urn:hot", "http://p/knows", 1, "urn:bob", None, None),
                ("", "urn:hot", "http://p/age", 3, "30",
                 "http://www.w3.org/2001/XMLSchema#integer", None),
                ("", "urn:bob", "http://p/name", 3, "Bob", None, "en"),
                ("g1", "urn:hot", "http://p/name", 3, "AliceInG1",
                 None, None),
            ]
        rows.append(("", "urn:hot", "http://p/name", 3, "Alias",
                     None, None))
        return pd.DataFrame(rows, columns=[
            "graph", "subject", "predicate", "object_kind",
            "object_value", "datatype", "language"])

    def _scalar_reference_merge(self, df):
        """Independent scalar re-derivation: addValue-style value-set
        union per (graph, subject) using the reference's compareValues
        equality (tuple equality for RDF-sourced string values)."""
        nodes = {}
        for row in df.itertuples(index=False):
            key = (row.graph, row.subject)
            props = nodes.setdefault(key, {})
            tup = (row.predicate, row.object_kind, row.object_value,
                   row.datatype, row.language)
            props.setdefault(row.predicate, set()).add(tup)
        return nodes

    def _merge_in_chunks(self, df, n_chunks, n_groups=3):
        """The exchange's steps without Ray: ``partial_nodes_batch`` per
        chunk of rows, the partials routed by subject into ``n_groups``
        groups, one ``_merge_group`` per group."""
        import pandas as pd
        import pyarrow as pa
        from jsonld_js_ray.pipelines.entity_link import (
            _merge_group, partial_nodes_batch)
        from jsonld_js_ray.stages.partition_sink import subject_key
        table = pa.Table.from_pandas(df, preserve_index=False)
        step = -(-table.num_rows // n_chunks)
        partials = pa.concat_tables(
            partial_nodes_batch(table.slice(i, step))
            for i in range(0, table.num_rows, step))
        _, keys = subject_key(partials)
        return pd.concat([
            _merge_group(partials.filter(pa.array(keys % n_groups == g)))
            .to_pandas() for g in range(n_groups)])

    def test_merge_matches_scalar_reference(self):
        df = self._quads_df()
        ref = self._scalar_reference_merge(df)
        for n_chunks in (1, 3, 8):
            out = self._merge_in_chunks(df, n_chunks)
            assert len(out) == len(ref)
            for row in out.itertuples(index=False):
                node = json.loads(row.node_json)
                refprops = ref[(row.graph, row.subject)]
                # per property: the merged value multiset equals the
                # distinct tuple set (duplicates collapsed exactly once)
                got = {p: len(v) for p, v in node.items() if p != "@id"}
                want = {p: len(v) for p, v in refprops.items()}
                assert got == want, (n_chunks, row.subject, got, want)
                assert row.n_values == sum(want.values())

    @pytest.mark.usefixtures("ray_session")
    def test_merge_partition_invariant(self, tmp_path, monkeypatch):
        # one document in 12 rows, read as 4 units of 3 rows in slices of
        # 1, 4 or 1024 rows: every node is merged once, to the merge of
        # all the rows' quads at once
        from jsonld_js_ray.pipelines import kg
        from jsonld_js_ray.pipelines.entity_link import (
            _merge_group, merge_entities)
        corpus, table = _copies_corpus(tmp_path)
        quads = ExpandToQuads()(extract_batch(table))
        want = _merge_group(quads).to_pandas().sort_values(
            ["graph", "subject"]).reset_index(drop=True)
        assert (want["n_values"] > 0).all() and len(want) > 1
        for batch_size in (1, 4, 1024):
            monkeypatch.setattr(kg, "BATCH_SIZE", batch_size)
            out = (merge_entities(corpus, str(tmp_path / f"m{batch_size}"))
                   .to_pandas()
                   .sort_values(["graph", "subject"])
                   .reset_index(drop=True))
            assert out.equals(want)


_COPIES = 12


def _copies_corpus(tmp_path):
    """One JSON-LD document committed to ``_COPIES`` repos, as 3 files:
    on 4 CPUs, 4 read units of 3 rows each."""
    import pyarrow as pa
    from tests.test_kg_exchange import SHARED_DOC, _corpus
    table = pa.table({"repo": [f"forks/r{i}" for i in range(_COPIES)],
                      "path": ["thing.jsonld"] * _COPIES,
                      "commit": ["c0"] * _COPIES,
                      "lang": ["jsonld"] * _COPIES,
                      "content": [SHARED_DOC] * _COPIES},
                     schema=generate_repo_files(1).schema)
    return _corpus(tmp_path, table, n_files=3), table


def test_aggregate_dirs_hold_only_their_parts(ray_session, tmp_path,
                                             monkeypatch):
    """``kg_entity_summary`` and ``kg_merged_nodes`` leave in their dir
    only the reduces' ``part-<g>.parquet`` files: no spills and no
    per-slice quad files. The files carry no schema metadata, which
    makes Ray's read log "Failed to hash the schemas"."""
    import os

    import pyarrow.parquet as pq

    import __ray_entry__
    from jsonld_js_ray.pipelines.kg import plan, repo_files_for_sf_dir
    from jsonld_js_ray.state import checkpoint
    monkeypatch.setattr(__ray_entry__, "_TMP_ROOT", None)
    sf_dir = str(tmp_path / "sf0.001")
    groups = plan(checkpoint.input_files(repo_files_for_sf_dir(sf_dir)))[1]
    for name, prefix in (("kg_entity_summary", "kg_entity_summary_"),
                         ("kg_merged_nodes", "kg_nodes_")):
        out = __ray_entry__.queries()[name](sf_dir).to_pandas()
        assert len(out) == 1290
        root = __ray_entry__._TMP_ROOT
        dirs = [d for d in os.listdir(root) if d.startswith(prefix)]
        assert len(dirs) == 1
        names = sorted(os.listdir(os.path.join(root, dirs[0])))
        assert names and len(names) <= groups
        assert all(n.startswith("part-") and n.endswith(".parquet")
                   for n in names)
        assert all(pq.read_schema(os.path.join(root, dirs[0], n)).metadata
                   is None for n in names)
    __ray_entry__._remove_tmp_root()


def test_query_dirs_share_one_root_that_cleanup_removes(ray_session,
                                                        tmp_path,
                                                        monkeypatch):
    """``kg_quads`` and ``nquads_roundtrip`` write under one per-process
    temp root; the exit hook removes it with everything in it."""
    import glob
    import os

    import __ray_entry__
    monkeypatch.setattr(__ray_entry__, "_TMP_ROOT", None)
    out = __ray_entry__.queries()["nquads_roundtrip"](
        str(tmp_path / "sf0.001")).to_pandas()
    root = __ray_entry__._TMP_ROOT
    assert root and len(out) == 2171
    # the rows name their shards relative to the query's dir, which
    # holds every one of them
    shards = {os.path.basename(f) for f in
              glob.glob(os.path.join(root, "nq_roundtrip_*", "*.nq"))}
    assert set(out["source_file"]) <= shards
    extra = __ray_entry__._tmp_dir("kg_quads_")
    assert os.path.dirname(extra) == root
    __ray_entry__._remove_tmp_root()
    assert not os.path.exists(root)
    assert __ray_entry__._TMP_ROOT is None


def test_tmp_root_is_removed_at_exit():
    import os
    import subprocess
    import sys

    import __ray_entry__
    code = ("import __ray_entry__ as m; "
            "print(m._tmp_dir('kg_quads_'), flush=True)")
    root = os.path.dirname(os.path.abspath(__ray_entry__.__file__))
    made = subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    assert made and not os.path.exists(os.path.dirname(made))
