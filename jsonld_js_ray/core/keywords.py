"""JSON-LD keywords, constants, and structural type predicates.

Semantics follow the JSON-LD 1.1 spec; behavioral parity targets
/root/reference/lib/graphTypes.js, lib/types.js, lib/constants.js.
"""

from __future__ import annotations

import math
import re

KEYWORDS = frozenset({
    "@base", "@container", "@context", "@default", "@direction", "@embed",
    "@explicit", "@first", "@graph", "@id", "@import", "@included", "@index",
    "@json", "@language", "@list", "@nest", "@none", "@omitDefault",
    "@prefix", "@preserve", "@propagate", "@protected", "@requireAll",
    "@reverse", "@set", "@type", "@value", "@version", "@vocab", "@any",
})

# reserved-term shape: "@" followed by one or more ASCII letters
# (cf. /root/reference/lib/util.js:18)
KEYWORD_LIKE_RE = re.compile(r"^@[a-zA-Z]+$")

# BCP47 well-formedness (cf. /root/reference/lib/util.js:13)
BCP47_RE = re.compile(
    r"^[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF + "type"
RDF_FIRST = RDF + "first"
RDF_REST = RDF + "rest"
RDF_NIL = RDF + "nil"
RDF_JSON_LITERAL = RDF + "JSON"
RDF_VALUE = RDF + "value"
RDF_LANGUAGE = RDF + "language"
RDF_DIRECTION = RDF + "direction"
RDF_LANGSTRING = RDF + "langString"
RDF_LIST = RDF + "List"
XSD_BOOLEAN = XSD + "boolean"
XSD_DOUBLE = XSD + "double"
XSD_INTEGER = XSD + "integer"
XSD_STRING = XSD + "string"
I18N_NS = "https://www.w3.org/ns/i18n#"

MAX_CONTEXT_URLS = 10


def is_keyword(v) -> bool:
    return isinstance(v, str) and v in KEYWORDS


def is_keyword_like(v) -> bool:
    return isinstance(v, str) and KEYWORD_LIKE_RE.match(v) is not None


def is_scalar(v) -> bool:
    return isinstance(v, (str, bool)) or (
        isinstance(v, (int, float)) and not isinstance(v, bool))


def is_bool(v) -> bool:
    return isinstance(v, bool)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_double(v) -> bool:
    """True when a JS processor would serialize as xsd:double.

    Exactly the reference's rule (/root/reference/lib/types.js:35):
    ``String(v).indexOf('.') !== -1 || Math.abs(v) >= 1e21``. JS has a
    single number type; ``String(5.0) === "5"`` so an integral float is
    an integer, and — observably — ``String(1e-7) === "1e-7"`` has no
    '.', so tiny non-integral floats are *integers* too (serialized
    ``"0"^^xsd:integer`` via toFixed(0), matching toRdf.js:307-309).
    """
    if not is_number(v):
        return False
    if isinstance(v, int):
        return abs(v) >= 1e21
    if math.isnan(v) or math.isinf(v):
        return True
    from .literals import es6_number_str
    return "." in es6_number_str(v) or abs(v) >= 1e21


def is_list(v) -> bool:
    """List object: has @list (cf. graphTypes.js:64)."""
    return isinstance(v, dict) and "@list" in v


def is_value(v) -> bool:
    return isinstance(v, dict) and "@value" in v


def is_graph(v) -> bool:
    """Graph object (cf. /root/reference/lib/graphTypes.js:75-97)."""
    if not isinstance(v, dict) or "@graph" not in v:
        return False
    extra = [k for k in v if k not in ("@id", "@index", "@graph", "@context")]
    return len(extra) == 0


def is_simple_graph(v) -> bool:
    return is_graph(v) and "@id" not in v


def is_subject_reference(v) -> bool:
    return isinstance(v, dict) and len(v) == 1 and "@id" in v


def is_absolute_iri(v) -> bool:
    # fast structural check: scheme ':' present; blank nodes count as absolute
    if not isinstance(v, str):
        return False
    return ABS_IRI_RE.match(v) is not None


# scheme per RFC 3986 + non-space remainder; matches the reference's pragmatic
# regex (lib/url.js isAbsolute)
ABS_IRI_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+\-.]*|_):[^\s]*$")
