"""Spec error codes + poison-document guard behavior (reference error
surface: JSON-LD 1.1 API error codes; guard analog of maxWorkFactor,
/root/reference/tests/test.js:652-666)."""

import json

import pytest

from jsonld_js_ray import api
from jsonld_js_ray.core.errors import JsonLdError
from jsonld_js_ray.core.resolver import ContextResolver
from jsonld_js_ray.stages.expand_quads import ExpandToQuads, doc_quads

V = "http://ex.org/"


@pytest.mark.parametrize("doc,code", [
    ({"@context": {"term": {"@id": V, "@container": "@bogus"}},
      "term": "x"}, "invalid container mapping"),
    ({"@context": {"term": {"@id": V + "t",
                            "@type": "not a keyword or iri "}},
      "term": "x"}, "invalid type mapping"),
    ({"@context": {"@direction": "sideways"}, V + "p": "x"},
     "invalid base direction"),
    ({"@context": {"a": "b:x", "b": "a:y"}, "a": 1},
     "cyclic IRI mapping"),
    ({"@context": {"t": {"@id": V + "t", "@prefix": "yes"}},
      "t": 1}, "invalid @prefix value"),
    ({"@context": {"@version": 9.1}, V + "p": 1},
     "invalid @version value"),
    ({"@context": {"t": None}, "@id": V + "a",
      "@reverse": "not-an-object"}, "invalid @reverse value"),
    ({"@id": V + "a", "@type": 17}, "invalid type value"),
    ({"@id": V + "a", "@index": 17}, "invalid @index value"),
    ({"@context": {"t": {"@id": V + "t", "@container": "@list"}},
      "@id": V + "a", "t": {"@list": [1], "@id": V + "x"}},
     "invalid set or list object"),
])
def test_error_codes(doc, code):
    with pytest.raises(JsonLdError) as e:
        api.expand(doc)
    assert e.value.code == code


def test_i18n_roundtrip_through_rdf():
    doc = {"@context": {"@vocab": V},
           "@id": V + "a",
           "label": {"@value": "x", "@language": "ar",
                     "@direction": "rtl"}}
    quads = api.to_rdf(doc, {"rdfDirection": "i18n-datatype"})
    assert quads[0][4] == "https://www.w3.org/ns/i18n#ar_rtl"
    back = api.from_rdf(quads, {"rdfDirection": "i18n-datatype"})
    assert back == [{"@id": V + "a",
                     V + "label": [{"@value": "x", "@language": "ar",
                                    "@direction": "rtl"}]}]


def _poison_doc(n=9):
    # an n-clique of interchangeable blank nodes: first-degree hashes all
    # equal; HNDQ permutation search explodes without the budget
    nodes = [{"@id": f"_:n{i}"} for i in range(n)]
    for i, node in enumerate(nodes):
        node[V + "p"] = [{"@id": f"_:n{j}"} for j in range(n) if j != i]
    return nodes


def test_canonize_poison_raises_with_budget():
    quads = api.to_rdf(_poison_doc(), {"skipExpansion": True})
    with pytest.raises(JsonLdError) as e:
        api.canonize_dataset(quads, {"maxDeepIterations": 40})
    assert "work factor" in e.value.code


def test_doc_quads_poison_falls_back_to_issuance_labels():
    content = json.dumps({"@context": {"@vocab": V},
                          "@graph": _poison_doc()})
    resolver = ContextResolver({})
    quads, _ = doc_quads(content, resolver, canonical_bnodes=True)
    # canonicalization gave up (budget) but the doc still emits quads
    # with deterministic issuance-order labels
    assert len(quads) == 9 * 8
    assert any(q[0].startswith("_:b") for q in quads)


def _good_and_poison_batch():
    import pyarrow as pa
    good = json.dumps({"@context": {"@vocab": V}, "@id": V + "ok",
                       "name": "fine"})
    return pa.table({
        "repo": ["o/r", "o/r"],
        "path": ["good.jsonld", "poison.jsonld"],
        "commit": ["c", "c"],
        "content": [good, json.dumps({"@context": {"@vocab": V},
                                      "@graph": _poison_doc()})],
        "content_sha256": ["a" * 64, "b" * 64],
        "partition_id": pa.array([0, 0], pa.int32()),
        "is_jsonld": [True, True],
        "lang": ["jsonld", "jsonld"],
    })


def test_expand_stage_quarantines_poison_without_failing_batch():
    stage = ExpandToQuads()
    out = stage(_good_and_poison_batch())
    paths = set(out.column("path").to_pylist())
    assert "good.jsonld" in paths          # good doc flowed through
    assert "poison.jsonld" in paths        # poison fell back, not dropped


def test_poison_fallback_is_visible_in_every_view():
    stage = ExpandToQuads()
    batch = _good_and_poison_batch()
    status = {r["path"]: r for r in stage.status(batch).to_pylist()}
    assert status["poison.jsonld"]["status"] == "ok"
    assert status["poison.jsonld"]["n_events"] >= 1
    assert status["poison.jsonld"]["n_quads"] == 9 * 8
    events = stage.events(batch).to_pylist()
    assert {"repo": "o/r", "path": "poison.jsonld",
            "content_sha256": "b" * 64,
            "code": "canonicalization work factor exceeded",
            "level": "warning"} in events
    # a graph without canonical labels has no canonical N-Quads
    canonical = stage.canonical(batch)
    assert canonical.column("path").to_pylist() == ["good.jsonld"]
    # quads keep their issuance-order labels, sha-prefixed
    quads = stage(batch).to_pylist()
    labels = {q["subject"] for q in quads if q["path"] == "poison.jsonld"}
    assert len(labels) == 9
    assert all(s.startswith("_:" + "b" * 16 + "-b") for s in labels)
