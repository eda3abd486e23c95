"""API surface parity: merge, link, the per-document API batches, RDF I/O
(reference surface: /root/reference/lib/jsonld.js public API)."""

import json

import pyarrow as pa
import pytest

from jsonld_js_ray import api
from jsonld_js_ray.core.errors import JsonLdError

V = "http://ex.org/"


def test_merge_two_docs():
    d1 = {"@context": {"@vocab": V}, "@id": V + "a", "name": "x",
          "child": {"name": "anon1"}}
    d2 = {"@context": {"@vocab": V}, "@id": V + "a", "age": 3,
          "child": {"name": "anon2"}}
    merged = api.merge([d1, d2])
    by_id = {n["@id"]: n for n in merged}
    node = by_id[V + "a"]
    assert node[V + "name"] == [{"@value": "x"}]
    assert node[V + "age"] == [{"@value": 3}]
    # two-step relabeling (jsonld.js:800-830): collision-proof per-doc
    # "_:b{i}-" prefixes first, then ONE shared "_:b" issuer in the
    # node map — final labels are _:b0.._:bN and never collide
    kids = [v["@id"] for v in node[V + "child"]]
    assert len(set(kids)) == 2
    assert set(kids) == {"_:b0", "_:b1"}


def test_merge_no_merge_nodes_keeps_first():
    d1 = {"@context": {"@vocab": V}, "@id": V + "a", "name": "first"}
    d2 = {"@context": {"@vocab": V}, "@id": V + "a", "name": "second"}
    merged = api.merge([d1, d2], options={"mergeNodes": False})
    by_id = {n["@id"]: n for n in merged}
    assert by_id[V + "a"][V + "name"] == [{"@value": "first"}]


def test_merge_keep_first_does_not_replace_stub():
    """With mergeNodes=False, later docs fold in only MISSING node-map
    keys (jsonld.js:815-829) — a subject-reference STUB created by a
    doc-0 reference blocks a later full definition."""
    d1 = {"@context": {"@vocab": V, "knows": {"@type": "@id"}},
          "@id": V + "a", "knows": V + "b"}
    d2 = {"@context": {"@vocab": V}, "@id": V + "b", "name": "full"}
    merged = api.merge([d1, d2], options={"mergeNodes": False})
    by_id = {n["@id"]: n for n in merged}
    # the full definition of b was dropped: the stub key already existed
    assert V + "b" not in by_id


def test_merge_reverse_map_crash_is_typed():
    """relabelBlankNodes injects an @id into a @reverse MAP (it looks
    like an anonymous bnode, util.js:431-455); the reference then
    crashes in createNodeMap (nodeMap.js:123-135) — mirrored as a
    typed error (merge fuzz seed 142)."""
    doc = {"@context": {"@vocab": V},
           "alpha": {"@reverse": {V + "rp": {"@id": "urn:rev"}},
                     "name": "anon"}}
    with pytest.raises(JsonLdError):
        api.merge([doc, {"@context": {"@vocab": V}, "name": "other"}])


def test_merge_with_context_compacts():
    ctx = {"@vocab": V}
    out = api.merge([{"@context": ctx, "@id": V + "a", "name": "x"}], ctx)
    assert out["@graph"] == [{"@id": V + "a", "name": "x"}]


def test_link_embeds_references():
    doc = {"@context": {"@vocab": V, "knows": {"@type": "@id"}},
           "@graph": [
               {"@id": V + "a", "name": "A", "knows": V + "b"},
               {"@id": V + "b", "name": "B"}]}
    out = api.link(doc, {"@vocab": V, "knows": {"@type": "@id"}})
    graph = out.get("@graph", [out])
    by_id = {n.get("@id"): n for n in graph} if isinstance(graph, list) \
        else {}
    a = by_id.get(V + "a") or out
    assert isinstance(a["knows"], dict)
    assert a["knows"].get("name") == "B"


def test_link_cycle_identity_no_context():
    # with NO context the reference returns the single graph node
    # ITSELF after the omitGraph collapse (jsonld.js:190-195), so a
    # self-reference is `is`-identical to the root (link fuzz 1287)
    doc = {"@context": {"@vocab": V},
           "@id": "urn:n0", "gamma": True, "zeta": {"@id": "urn:n0"}}
    out = api.link(doc, None)
    assert out[V + "zeta"] is out


def test_link_cycle_identity_with_context():
    # WITH a context the reference shallow-copies the root during the
    # @context rewrap (jsonld.js:239-245) and cleanupNull then forks
    # the shared property arrays: the inner node is cyclic, the root
    # is a distinct object whose property points at the inner node
    # (link fuzz seed 1104)
    ctx = {"@vocab": V}
    doc = {"@context": ctx,
           "@id": "urn:n0", "gamma": True, "zeta": {"@id": "urn:n0"}}
    out = api.link(doc, ctx)
    inner = out["zeta"]
    assert inner is not out
    assert inner["zeta"] is inner


class TestTransformStages:
    """``stages.transform.api_batch`` without Ray."""

    def _doc_batch(self, docs):
        contents = [d if isinstance(d, str) else json.dumps(d)
                    for d in docs]
        return pa.table({
            "repo": ["o/r"] * len(docs),
            "path": [f"{i}.jsonld" for i in range(len(docs))],
            "lang": ["jsonld"] * len(docs),
            "content": pa.array(contents, pa.large_string())})

    def test_expand_flatten_compact_stages(self):
        from jsonld_js_ray.stages.transform import api_batch
        docs = [{"@context": {"@vocab": V}, "@id": V + "a", "name": "x",
                 "child": {"name": "y"}}]
        batch = self._doc_batch(docs)
        exp = api_batch(batch, "expand")
        assert exp.column_names == ["repo", "path", "expanded",
                                    "transform_ok"]
        assert exp.column("transform_ok").to_pylist() == [True]
        expanded = json.loads(exp.column("expanded")[0].as_py())
        assert expanded == api.expand(docs[0])

        flat = api_batch(batch, "flatten")
        assert json.loads(flat.column("flattened")[0].as_py()) == \
            api.flatten(docs[0])

        ctx = {"@vocab": V}
        comp = api_batch(batch, "compact", ctx)
        assert json.loads(comp.column("compacted")[0].as_py()) == \
            api.compact(docs[0], ctx)

    def test_frame_stage(self):
        from jsonld_js_ray.stages.transform import api_batch
        doc = {"@context": {"@vocab": V},
               "@graph": [{"@id": V + "a", "@type": "T", "name": "x"}]}
        frame = {"@context": {"@vocab": V}, "@type": "T"}
        out = api_batch(self._doc_batch([doc]), "frame", frame)
        framed = json.loads(out.column("framed")[0].as_py())
        assert framed == api.frame(doc, frame)

    def test_second_batch_hits_the_lru_the_first_warmed(self, monkeypatch):
        from jsonld_js_ray.sources.contexts import SCHEMA_LIKE
        from jsonld_js_ray.stages import expand_quads
        from jsonld_js_ray.stages.transform import api_batch
        # a cold per-worker stage, as in a fresh worker process
        monkeypatch.setattr(expand_quads, "_STAGE", None)
        resolver = expand_quads._stage().resolver
        lookups = []
        get = resolver.get_processed

        def counting(key):
            value = get(key)
            lookups.append(value is not None)
            return value

        monkeypatch.setattr(resolver, "get_processed", counting)
        batch = self._doc_batch([{"@context": SCHEMA_LIKE, "name": "x"}])
        first = api_batch(batch, "expand")
        assert lookups and not any(lookups)
        lookups.clear()
        second = api_batch(batch, "expand")
        assert lookups and all(lookups)
        assert second.equals(first)

    def test_bad_doc_marks_not_ok(self):
        from jsonld_js_ray.stages.transform import api_batch
        batch = self._doc_batch(
            ["{not json", '{"@context": 5, "@id": "http://x"}',
             {"@id": V + "a", V + "p": "v"}])
        out = api_batch(batch, "expand")
        assert out.column("transform_ok").to_pylist() == [False, False,
                                                          True]
        assert out.column("expanded").to_pylist()[:2] == [None, None]

    def test_programming_error_fails_the_batch(self, monkeypatch):
        # only the kernel's per-document errors are quarantined as
        # not-ok rows; a bug in the code must surface
        from jsonld_js_ray.stages.transform import api_batch

        def broken(document, options=None):
            raise AttributeError("planted")

        monkeypatch.setattr(api, "expand", broken)
        with pytest.raises(AttributeError, match="planted"):
            api_batch(self._doc_batch([{"@id": V + "a"}]), "expand")


# the per-op argument each jsonld_*_docs query promises, restated here so
# a change to the query's definition fails the gate below
_QUERY_ARGS = {
    "expand": (), "flatten": (None,),
    "compact": ({"@vocab": "http://ex.org/v/"},),
    "frame": ({"@context": {"@vocab": "http://schema-like.example/"}},),
}


@pytest.mark.parametrize("op", list(_QUERY_ARGS))
def test_jsonld_docs_query_matches_per_row_api(ray_session, tmp_path,
                                               monkeypatch, op):
    """``queries()["jsonld_<op>_docs"]`` at sf0.001 against a per-row
    reference computed without Ray: ``api.<op>`` on every JSON / JSON-LD
    row with the context snapshot's resolver and an empty base. Three
    planted rows join the corpus, whose documents all transform and
    hold no relative IRI: one whose output depends on the base, and two
    that must come out not-ok."""
    import pyarrow.parquet as pq
    import ray

    import __ray_entry__
    from jsonld_js_ray.core.resolver import ContextResolver
    from jsonld_js_ray.pipelines import kg
    from jsonld_js_ray.sources.contexts import build_context_snapshot
    from jsonld_js_ray.sources.repo_files import repo_files_path
    corpus = pq.read_table(repo_files_path(0.001))
    planted = [("planted/r", path, "c" * 40, lang, content)
               for path, lang, content in [
                   ("rel.jsonld", "jsonld", json.dumps(
                       {"@context": {"@vocab": V}, "@id": "../a/./b",
                        "p": {"@id": "x"}})),
                   ("bad.json", "json", "{not json"),
                   ("ctx.jsonld", "jsonld", '{"@context": 5}')]]
    table = pa.concat_tables([corpus, pa.Table.from_pylist(
        [dict(zip(corpus.column_names, r)) for r in planted],
        schema=corpus.schema)])
    (tmp_path / "input").mkdir()
    pq.write_table(table, tmp_path / "input" / "part-0.parquet")
    monkeypatch.setattr(kg, "repo_files_for_sf_dir",
                        lambda sf_dir: str(tmp_path / "input"))

    opts = {"contextResolver": ContextResolver(build_context_snapshot()),
            "base": ""}
    fn = getattr(api, op)
    want = []
    for row in table.to_pylist():
        if row["lang"] not in ("jsonld", "json"):
            continue
        try:
            res = json.dumps(
                fn(json.loads(row["content"]), *_QUERY_ARGS[op], opts),
                separators=(",", ":"))
        except (JsonLdError, ValueError):
            res = None
        want.append((row["repo"], row["path"], res, res is not None))
    assert len(want) == 604
    assert [w[1] for w in want if not w[3]] == ["bad.json", "ctx.jsonld"]

    out_col = {"expand": "expanded", "flatten": "flattened",
               "compact": "compacted", "frame": "framed"}[op]
    ds = __ray_entry__.queries()[f"jsonld_{op}_docs"](
        str(tmp_path / "sf0.001"))
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.column_names == ["repo", "path", out_col, "transform_ok"]
    assert got.schema.field(out_col).type == pa.large_string()
    assert got.schema.field("transform_ok").type == pa.bool_()
    assert sorted(zip(*(c.to_pylist() for c in got.columns)),
                  key=repr) == sorted(want, key=repr)


@pytest.mark.usefixtures("ray_session")
class TestRdfIO:
    def test_nquads_roundtrip(self, tmp_path):
        from jsonld_js_ray.sources.rdf_io import read_nquads, write_nquads
        doc = {"@context": {"@vocab": V}, "@id": V + "a",
               "name": 'he said "hi"\n', "n": 2.5}
        nq_text = api.to_nquads(doc)
        src = tmp_path / "in.nq"
        src.write_text(nq_text)
        ds = read_nquads(str(src))
        tbl = ds.to_pandas()
        assert len(tbl) == 2
        out = write_nquads(ds, str(tmp_path / "out"))
        assert out["n_lines"] == 2
        # read back and compare quad sets
        import glob
        text = "".join(open(f).read()
                       for f in glob.glob(str(tmp_path / "out" / "*.nq")))
        assert sorted(text.strip().splitlines()) == \
            sorted(nq_text.strip().splitlines())

    def test_custom_parser_registry(self):
        from jsonld_js_ray.sources.rdf_io import (
            RDF_PARSERS, register_rdf_parser, unregister_rdf_parser)
        register_rdf_parser("application/x-test", lambda s: [])
        assert "application/x-test" in RDF_PARSERS
        unregister_rdf_parser("application/x-test")
        assert "application/x-test" not in RDF_PARSERS


# ---------------------------------------------------------------------------
# eventHandler chain / code-map surface (cf. reference lib/events.js:34-101)
# ---------------------------------------------------------------------------

def test_event_handler_function():
    seen = []

    def handler(event, next_):
        seen.append(event["code"])
        next_()

    api.expand({"@context": {"@vocab": "http://e/"}, "@ignoreMe": "x",
                "@id": "http://e/a", "p": "v"},
               {"eventHandler": handler})
    assert any("reserved" in c or "keyword" in c or c for c in seen)
    assert seen  # at least one event reached the handler


def test_event_handler_code_map_and_chain():
    hits = []

    def specific(event, next_):
        hits.append(("map", event["code"]))
        # do NOT call next_: chain stops here

    def fallthrough(event, next_):
        hits.append(("tail", event["code"]))
        next_()

    code_map = {"free-floating scalar": specific}
    api.expand({"@context": {"@vocab": "http://e/"},
                "@graph": ["scalar", {"@id": "http://e/a", "p": "v"}]},
               {"eventHandler": [code_map, fallthrough]})
    map_hits = [h for h in hits if h[0] == "map"]
    tail_hits = [h for h in hits if h[0] == "tail"]
    assert ("map", "free-floating scalar") in map_hits
    # the handled code never fell through to the tail handler
    assert all(c != "free-floating scalar" for _, c in tail_hits)


def test_event_handler_safe_runs_first():
    seen = []

    def handler(event, next_):
        seen.append(event["code"])
        next_()

    with pytest.raises(JsonLdError):
        api.expand({"@context": {"@vocab": "http://e/"},
                    "@graph": ["scalar"]},
                   {"safe": True, "eventHandler": handler})
    # the safe handler raised before the user handler saw the event
    assert "free-floating scalar" not in seen


def test_default_event_handler():
    seen = []
    api.set_default_event_handler(lambda e, n: (seen.append(e["code"]), n()))
    try:
        api.expand({"@context": {"@vocab": "http://e/"},
                    "@graph": ["scalar", {"@id": "http://e/a", "p": "v"}]})
        assert "free-floating scalar" in seen
    finally:
        api.set_default_event_handler(None)
    # unset again: no error, no recording
    seen.clear()
    api.expand({"@context": {"@vocab": "http://e/"}, "@graph": ["scalar",
                {"@id": "http://e/a", "p": "v"}]})
    assert not seen


def test_unhandled_event_handler_raises():
    with pytest.raises(JsonLdError) as ei:
        api.expand({"@context": {"@vocab": "http://e/"},
                    "@graph": ["scalar", {"@id": "http://e/a", "p": "v"}]},
                   {"eventHandler": api.unhandled_event_handler})
    assert ei.value.code == "invalid event handler"


def test_audio_chunker_plumbing(ray_session):
    import ray
    from jsonld_js_ray.functions.multimodal import (
        AudioChunker, chunk_audio, synthesize_media_table)
    tbl = synthesize_media_table(60, seed=9)
    out = chunk_audio(ray.data.from_arrow(tbl), chunk_ms=5000).to_pandas()
    src = tbl.to_pandas()
    audio = src[src["kind"] == "audio"]
    assert set(out["media_id"]) == set(audio["media_id"])
    for mid, grp in out.groupby("media_id"):
        row = audio[audio["media_id"] == mid].iloc[0]
        dur = max(1, int(row["duration_ms"]))
        expect_chunks = (dur + 4999) // 5000
        assert len(grp) == expect_chunks
        # chunks are ordered, contiguous, and reassemble to the payload
        grp = grp.sort_values("chunk_idx")
        assert list(grp["chunk_idx"]) == list(range(expect_chunks))
        assert list(grp["start_ms"]) == [i * 5000
                                         for i in range(expect_chunks)]
        assert b"".join(grp["chunk"]) == row["payload"]


def test_jsonld_processor_facade():
    """WebIDL facade parity (reference JsonLdProcessor.js:6-52): static
    methods delegate to the functional API; arity below the interface's
    required parameter count raises TypeError."""
    import pytest
    from jsonld_js_ray.api import JsonLdProcessor
    doc = {"@context": {"v": "http://example.com/v"}, "v": 1}
    assert JsonLdProcessor.expand(doc) == [
        {"http://example.com/v": [{"@value": 1}]}]
    out = JsonLdProcessor.compact(
        [{"http://example.com/v": [{"@value": 1}]}],
        {"v": "http://example.com/v"})
    assert out == {"@context": {"v": "http://example.com/v"}, "v": 1}
    assert JsonLdProcessor.flatten(doc)
    with pytest.raises(TypeError):
        JsonLdProcessor.expand()
    with pytest.raises(TypeError):
        JsonLdProcessor.compact(doc)
    with pytest.raises(TypeError):
        JsonLdProcessor.flatten()
    assert str(JsonLdProcessor()) == "[object JsonLdProcessor]"


def test_real_decode_raises_without_pillow():
    """In an env without Pillow, the real path must fail LOUDLY at
    actor construction — never fall back silently to the stub."""
    from jsonld_js_ray.functions import multimodal as mm
    if mm.HAS_PIL:
        pytest.skip("Pillow installed; covered by test_real_decode_pillow")
    with pytest.raises(NotImplementedError):
        mm.DecodeFeatures(use_stub=False)
    with pytest.raises(NotImplementedError):
        mm.real_image_decode(b"\x89PNG fake")


def test_real_decode_pillow():
    """Exercised only in a deployment env with Pillow: a genuine PNG
    round-trips the real decode path with the declared feature shape."""
    from jsonld_js_ray.functions import multimodal as mm
    if not mm.HAS_PIL:
        pytest.skip("Pillow not installed in this sandbox")
    import io
    img_mod = mm._try_import_pil()
    buf = io.BytesIO()
    img_mod.new("RGB", (32, 16), (120, 30, 200)).save(buf, format="PNG")
    decoded = mm.real_image_decode(buf.getvalue())
    assert decoded["width"] == 32 and decoded["height"] == 16
    assert decoded["features"].shape == (64,)
    assert decoded["features"].dtype.name == "float32"
    stage = mm.DecodeFeatures(use_stub=False)
    import pyarrow as pa
    batch = pa.table({
        "media_id": pa.array([1], pa.int64()),
        "kind": pa.array(["image"], pa.string()),
        "payload": pa.array([buf.getvalue()], pa.large_binary()),
    })
    out = stage(batch)
    assert out.num_rows == 1
    assert len(out.column("features")[0].as_py()) == stage.FEATURE_DIM


def test_cached_context_event_replay():
    """Cached-context event replay (reference misc.js 'cached context
    event replay'): a processed-context cache hit must re-emit the
    events recorded when the context was first processed — warnings
    accumulate for every caller, handlers fire on hits, and a SAFE
    caller hitting a warm cache still errors."""
    from jsonld_js_ray.core.expand import expand_document
    from jsonld_js_ray.core.resolver import ContextResolver

    snapshot = {"https://c.example/l.jsonld":
                {"@context": {"@language": "en_bad_",
                              "p": "http://e/p"}}}
    resolver = ContextResolver(snapshot)
    doc = {"@context": "https://c.example/l.jsonld",
           "@id": "urn:a", "p": "v"}
    for _ in range(2):  # second run is the cache hit
        opts = {"context_resolver": resolver, "_events": [],
                "base": None, "processingMode": "json-ld-1.1"}
        expand_document(doc, opts)
        assert [e["code"] for e in opts["_events"]] == \
            ["invalid @language value"]
    # handler fires on the (now warm) cache hit
    calls = []
    opts = {"context_resolver": resolver, "base": None,
            "processingMode": "json-ld-1.1",
            "eventHandler": lambda ev, next_h: calls.append(ev)}
    expand_document(doc, opts)
    assert len(calls) == 1
    # safe caller after a non-safe caller warmed the cache still raises
    with pytest.raises(JsonLdError) as ei:
        expand_document(doc, {"context_resolver": resolver,
                              "base": None, "safe": True,
                              "processingMode": "json-ld-1.1"})
    assert ei.value.code == "invalid @language value"
    # inline (doc-ctx) cache path replays too
    resolver2 = ContextResolver({})
    doc2 = {"@context": {"@language": "bad_tag_"},
            "@id": "urn:a", "http://e/p": "v"}
    for _ in range(2):
        opts = {"context_resolver": resolver2, "_events": [],
                "base": None, "processingMode": "json-ld-1.1"}
        expand_document(doc2, opts)
        assert [e["code"] for e in opts["_events"]] == \
            ["invalid @language value"]


def test_merge_array_type_value_objects_never_dedupe():
    """compareValues is JS === per member (util.js:383-389): a garbage
    value object carrying an ARRAY @type only equals itself, so two
    structurally equal copies from two docs both survive the merge
    (fuzz seed 6726)."""
    # a @type-CONTAINER map key is pushed onto a value object's @type
    # as an ARRAY during expansion — the only spec-legal source of an
    # array @type on a value object
    d = {"@context": {"@vocab": V,
                      "alpha": {"@id": V + "alpha", "@container": "@type"}},
         "@id": V + "a",
         "alpha": {"delta": {"@value": True}}}
    import copy
    merged = api.merge([d, copy.deepcopy(d)])
    node = {n["@id"]: n for n in merged}[V + "a"]
    assert len(node[V + "alpha"]) == 2


def test_bmp_stdlib_roundtrip():
    """REAL image lane: synthesize_bmp emits a valid 24-bit BMP and
    decode_bmp recovers the exact pixels (independent re-derivation of
    the seeded source array)."""
    import numpy as np
    from jsonld_js_ray.functions import multimodal as mm
    payload = mm.synthesize_bmp(13, 9, seed=5)
    decoded = mm.decode_bmp(payload)
    assert (decoded["width"], decoded["height"]) == (13, 9)
    expect = np.random.default_rng(5).integers(
        0, 256, size=(9, 13, 3), dtype=np.uint8)
    assert (decoded["pixels"] == expect).all()
    feats = mm.real_image_decode(payload)["features"]
    assert feats.shape == (64,) and feats.dtype.name == "float32"
    assert 0.0 <= float(feats.min()) and float(feats.max()) <= 1.0


def test_decode_features_real_bmp_stage():
    """use_stub=False runs END-TO-END in this environment via the
    stdlib BMP codec — no imaging library required."""
    import pyarrow.compute as pc
    from jsonld_js_ray.functions import multimodal as mm
    tbl = mm.synthesize_real_media_table(6)
    images = tbl.filter(pc.equal(tbl.column("kind"), "image"))
    stage = mm.DecodeFeatures(use_stub=False, codec="bmp")
    out = stage(images)
    assert out.num_rows == 3
    assert all(len(f) == stage.FEATURE_DIM
               for f in out.column("features").to_pylist())


def test_wav_stdlib_roundtrip_and_chunker():
    """REAL audio lane: PCM16 WAV decode via stdlib `wave`; the
    chunker derives boundaries from actual frames and emits RMS."""
    import numpy as np
    from jsonld_js_ray.functions import multimodal as mm
    payload = mm.synthesize_wav(1234, rate=8000, seed=3)
    dec = mm.decode_wav(payload)
    assert dec["rate"] == 8000
    assert dec["duration_ms"] == 1234
    assert len(dec["samples"]) == 8000 * 1234 // 1000
    tbl = mm.synthesize_real_media_table(4)
    out = mm.AudioChunker(chunk_ms=500, codec="wav")(tbl)
    assert out.num_rows > 0
    # chunk count per audio row = ceil(frames / frames_per_chunk)
    import pyarrow.compute as pc
    for mid in set(out.column("media_id").to_pylist()):
        row = tbl.filter(pc.equal(tbl.column("media_id"), mid))
        frames = mm.decode_wav(row.column("payload")[0].as_py())["n_frames"]
        n = len(out.filter(pc.equal(out.column("media_id"), mid)))
        assert n == -(-frames // (8000 * 500 // 1000))
    rms = np.array(out.column("rms").to_pylist())
    assert (rms > 0).all() and (rms < 2 ** 15).all()


def test_public_get_process_context_create_node_map():
    """The remaining public surface trio (jsonld.js:888-941, 730-748):
    get() returns the RemoteDocument shape with string payloads parsed;
    processContext(null) is the initial context; createNodeMap merges
    named graphs Reference-style (graph content stays under the graph
    node's @graph, inner nodes are not lifted). Expected values probed
    from the reference under node."""
    out = api.get("https://a.example/d", {"contexts": {
        "https://a.example/d": {"document": '{"x": 1}',
                                "documentUrl": "https://b.example/"}}})
    assert out == {"document": {"x": 1},
                   "documentUrl": "https://b.example/",
                   "contextUrl": None}

    initial = api.process_context_api(None, None, {})
    assert initial.mappings == {}
    ctx = api.process_context_api(initial, {"t": "http://x/t"}, {})
    assert ctx.mappings["t"]["@id"] == "http://x/t"
    # null context resets to initial even from a non-empty context
    assert api.process_context_api(ctx, None, {}).mappings == {}

    doc = {"@context": {"p": "http://x/p"}, "@id": "_:a",
           "p": {"@id": "urn:b", "p": "v"},
           "@graph": [{"@id": "urn:g", "p": 1}]}
    nm = api.create_node_map_api(doc)
    assert nm == {
        "_:b0": {"@graph": [{"@id": "urn:g",
                             "http://x/p": [{"@value": 1}]}],
                 "@id": "_:b0",
                 "http://x/p": [{"@id": "urn:b"}]},
        "urn:b": {"@id": "urn:b",
                  "http://x/p": [{"@value": "v"}]}}
