"""Offline context snapshot.

Replaces the reference's network document loader
(/root/reference/lib/documentLoaders/node.js) with a deterministic
in-memory snapshot of "remote" contexts. It is a constant, so each
worker process builds it once for itself and nothing ships it
(stages/expand_quads.py ``_stage``; SURVEY.md §2.4: the schema.org-like
context is the skewed hot key — used by ~60% of documents, resolved once
per worker)."""

from __future__ import annotations

SCHEMA_LIKE = "https://ctx.example/schema_org_like.jsonld"
SMALL1 = "https://ctx.example/small1.jsonld"
SMALL2 = "https://ctx.example/small2.jsonld"
CHAIN = "https://ctx.example/chain.jsonld"

_VOCAB = "http://schema-like.example/"
XSD = "http://www.w3.org/2001/XMLSchema#"


def _schema_like_context() -> dict:
    """A large schema.org-shaped context: @vocab + typed terms."""
    terms: dict = {
        "@vocab": _VOCAB,
        "xsd": XSD,
        "id": "@id",
        "type": "@type",
        "name": _VOCAB + "name",
        "description": _VOCAB + "description",
        "url": {"@id": _VOCAB + "url", "@type": "@id"},
        "sameAs": {"@id": _VOCAB + "sameAs", "@type": "@id"},
        "author": {"@id": _VOCAB + "author", "@type": "@id"},
        "knows": {"@id": _VOCAB + "knows", "@type": "@id"},
        "memberOf": {"@id": _VOCAB + "memberOf", "@type": "@id"},
        "birthDate": {"@id": _VOCAB + "birthDate",
                      "@type": XSD + "date"},
        "age": {"@id": _VOCAB + "age", "@type": XSD + "integer"},
        "weight": {"@id": _VOCAB + "weight", "@type": XSD + "double"},
        "active": {"@id": _VOCAB + "active", "@type": XSD + "boolean"},
        "keywords": {"@id": _VOCAB + "keywords", "@container": "@set"},
        "steps": {"@id": _VOCAB + "steps", "@container": "@list"},
        "label": {"@id": _VOCAB + "label", "@container": "@language"},
        "reviews": {"@id": _VOCAB + "reviews", "@container": "@index"},
        "payload": {"@id": _VOCAB + "payload", "@type": "@json"},
        "childOf": {"@id": _VOCAB + "childOf"},
        "parentOf": {"@reverse": _VOCAB + "childOf"},
        "Person": {"@id": _VOCAB + "Person",
                   "@context": {"fullName": _VOCAB + "fullName"}},
    }
    for i in range(40):
        terms[f"prop{i}"] = _VOCAB + f"prop{i}"
    return {"@context": terms}


def build_context_snapshot() -> dict:
    """url → parsed context document (the small side every worker
    process builds for itself)."""
    return {
        SCHEMA_LIKE: _schema_like_context(),
        SMALL1: {"@context": {"@vocab": "http://small1.example/",
                              "title": "http://small1.example/title",
                              "ref": {"@id": "http://small1.example/ref",
                                      "@type": "@id"}}},
        SMALL2: {"@context": {"@vocab": "http://small2.example/",
                              "@language": "en"}},
        CHAIN: {"@context": [SMALL1,
                             {"extra": "http://chain.example/extra"}]},
    }
