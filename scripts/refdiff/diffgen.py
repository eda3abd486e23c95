"""Differential conformance-case harness.

Runs every candidate case through BOTH this repo's kernel and the
reference jsonld.js (driven offline via refrun.js + dependency shims),
compares, and on ``--emit`` writes the matching cases into
tests/fixtures/w3c/<suite>/ with the REFERENCE output as the expected
fixture (the reference is the behavior target; outputs are
differentially validated, never hand-guessed).

Usage (MODULE defines CASES; the round-3..5 case modules are in git
history at commit 793b439 as scripts/refdiff/cases_round*.py):
    python scripts/refdiff/diffgen.py check  MODULE
    python scripts/refdiff/diffgen.py emit   MODULE

Case dict shape:
    {"suite": "expand", "id": "t0100", "name": "...",
     "op": "expand",                   # expand|compact|flatten|frame|toRDF|fromRDF
     "input": {...} | "nquads string",
     "context": {...},                 # compact/flatten
     "frame": {...},                   # frame
     "options": {...},                 # passed to BOTH sides
     "contexts": {url: doc},           # documentLoader snapshot (both sides)
     "neg": True,                      # expect an error; code taken from reference
    }
"""

from __future__ import annotations

import importlib
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).parent
REPO = HERE.parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "w3c"
OFFICIAL_BASE = "https://w3c.github.io/json-ld-api/tests/"

sys.path.insert(0, str(REPO))

from jsonld_js_ray import api  # noqa: E402
from jsonld_js_ray.core.canonize import canonize as canonize_nquads  # noqa: E402
from jsonld_js_ray.core.errors import JsonLdError  # noqa: E402
from jsonld_js_ray.core.nquads import parse as parse_nquads  # noqa: E402

OPS = {"expand": "ExpandTest", "compact": "CompactTest",
       "flatten": "FlattenTest", "frame": "FrameTest",
       "toRDF": "ToRDFTest", "fromRDF": "FromRDFTest"}
IN_EXT = {"fromRDF": ".nq"}


def _input_name(case):
    return case["id"] + "-in" + IN_EXT.get(case["op"], ".jsonld")


def _default_base(case):
    return f"{OFFICIAL_BASE}{case['suite']}/{_input_name(case)}"


def run_reference(cases):
    reqs = []
    for c in cases:
        options = dict(c.get("options") or {})
        options.setdefault("base", _default_base(c))
        reqs.append({"op": c["op"], "input": c["input"],
                     "context": c.get("context"), "frame": c.get("frame"),
                     "options": options, "contexts": c.get("contexts")})
    proc = subprocess.run(
        ["node", str(HERE / "refrun.js")],
        input=json.dumps(reqs).encode(),
        env={"NODE_PATH": str(HERE / "node_modules"),
             "PATH": "/usr/bin:/bin"},
        capture_output=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def run_mine(case):
    options = dict(case.get("options") or {})
    options.setdefault("base", _default_base(case))
    if case.get("contexts"):
        options["contexts"] = case["contexts"]
    op = case["op"]
    try:
        if op == "expand":
            return {"result": api.expand(case["input"], options)}
        if op == "compact":
            return {"result": api.compact(case["input"], case["context"],
                                          options)}
        if op == "flatten":
            return {"result": api.flatten(case["input"], case.get("context"),
                                          options)}
        if op == "frame":
            return {"result": api.frame(case["input"], case["frame"],
                                        options)}
        if op == "toRDF":
            return {"result": api.to_nquads(case["input"], options)}
        if op == "fromRDF":
            return {"result": api.from_rdf(case["input"], options)}
        raise ValueError(op)
    except JsonLdError as e:
        return {"errorCode": e.code}


def compare(case, ref, mine):
    if "errorCode" in ref or "errorCode" in mine:
        return (ref.get("errorCode") == mine.get("errorCode"),
                f"ref={ref.get('errorCode')!r} mine={mine.get('errorCode')!r}")
    if case["op"] == "toRDF":
        try:
            a = canonize_nquads(parse_nquads(mine["result"]))
            b = canonize_nquads(parse_nquads(ref["result"]))
        except JsonLdError as e:
            return False, f"canonize failed: {e}"
        return a == b, f"canonized datasets {'match' if a == b else 'DIFFER'}"
    same = ref["result"] == mine["result"]
    return same, "" if same else (
        f"\n  ref : {json.dumps(ref['result'], sort_keys=True)[:400]}"
        f"\n  mine: {json.dumps(mine['result'], sort_keys=True)[:400]}")


def emit(case, ref):
    suite_dir = FIXTURES / case["suite"]
    entry = {"@id": "#" + case["id"]}
    test_type = "jld:" + OPS[case["op"]]
    in_name = _input_name(case)
    inp = case["input"]
    if isinstance(inp, str):
        (suite_dir / in_name).write_text(inp)
    else:
        (suite_dir / in_name).write_text(json.dumps(inp, indent=2) + "\n")
    entry["name"] = case["name"]
    entry["input"] = in_name
    if "context" in case and case["context"] is not None:
        cname = case["id"] + "-context.jsonld"
        (suite_dir / cname).write_text(
            json.dumps({"@context": case["context"]}, indent=2) + "\n")
        entry["context"] = cname
    if "frame" in case:
        fname = case["id"] + "-frame.jsonld"
        (suite_dir / fname).write_text(
            json.dumps(case["frame"], indent=2) + "\n")
        entry["frame"] = fname
    if "errorCode" in ref:
        entry["@type"] = ["jld:NegativeEvaluationTest", test_type]
        entry["expectErrorCode"] = ref["errorCode"]
    else:
        entry["@type"] = ["jld:PositiveEvaluationTest", test_type]
        out_ext = ".nq" if case["op"] == "toRDF" else ".jsonld"
        out_name = case["id"] + "-out" + out_ext
        if case["op"] == "toRDF":
            (suite_dir / out_name).write_text(ref["result"])
        else:
            (suite_dir / out_name).write_text(
                json.dumps(ref["result"], indent=2) + "\n")
        entry["expect"] = out_name
    opt = dict(case.get("options") or {})
    if case.get("contexts"):
        cxname = case["id"] + "-ctxs.json"
        (suite_dir / cxname).write_text(
            json.dumps(case["contexts"], indent=2) + "\n")
        entry["contexts"] = cxname
    if opt:
        entry["option"] = opt
    manifest_path = suite_dir / "manifest.jsonld"
    manifest = json.loads(manifest_path.read_text())
    seq = [e for e in manifest["sequence"] if e["@id"] != entry["@id"]]
    seq.append(entry)
    manifest["sequence"] = seq
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")


def main():
    mode, module = sys.argv[1], sys.argv[2]
    cases = importlib.import_module(module).CASES
    only = set(sys.argv[3:])
    if only:
        cases = [c for c in cases if c["id"] in only]
    refs = run_reference(cases)
    n_match = n_diff = n_emitted = 0
    for case, ref in zip(cases, refs):
        mine = run_mine(case)
        ok, detail = compare(case, ref, mine)
        if ok:
            n_match += 1
        else:
            n_diff += 1
            print(f"DIFF {case['suite']}/{case['id']} {case['name']}: "
                  f"{detail}")
        if mode == "emit":
            # reference output is the fixture truth either way; a DIFF
            # case becomes a failing pytest case to fix in the kernel
            emit(case, ref)
            n_emitted += 1
    print(f"{n_match} match, {n_diff} differ"
          + (f", {n_emitted} emitted" if mode == "emit" else ""))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
