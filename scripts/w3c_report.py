"""Per-entry conformance report for the vendored W3C-style manifest suite.

Runs ``tests/test_w3c_suite.test_w3c`` on every manifest entry in
``CASES`` (the same runner and comparators pytest uses) and writes one
JSON record per entry:

  {"id": "expand/t0001",
   "manifest": "tests/fixtures/w3c/expand/manifest.jsonld",
   "types": ["jld:ExpandTest", "jld:PositiveEvaluationTest"],
   "outcome": "passed" | "failed" | "skipped", "error": "..." (failed only)}

Totals, overall and per manifest, go to stderr as one JSON line. Exits 1
if any entry failed.

Usage: python scripts/w3c_report.py [--out report.jsonl]   (default: stdout)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

import pytest  # noqa: E402

from tests.test_w3c_suite import (  # noqa: E402
    CASES, _case_id, _types, test_w3c)


def run_case(case) -> dict:
    suite_dir, entry = case
    record = {"id": _case_id(case),
              "manifest": str((suite_dir / "manifest.jsonld")
                              .relative_to(REPO)),
              "types": _types(entry)}
    try:
        test_w3c(case)
        record["outcome"] = "passed"
    except pytest.skip.Exception:
        record["outcome"] = "skipped"
    except Exception as e:
        record["outcome"] = "failed"
        record["error"] = f"{type(e).__name__}: {e}"
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON Lines report path (default: stdout)")
    args = ap.parse_args(argv)
    totals: Counter = Counter()
    per_manifest: dict[str, Counter] = {}
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for case in CASES:
            record = run_case(case)
            out.write(json.dumps(record) + "\n")
            totals[record["outcome"]] += 1
            suite = case[0].name
            per_manifest.setdefault(suite, Counter())[record["outcome"]] += 1
    finally:
        if args.out:
            out.close()
    print(json.dumps({"total": len(CASES), **totals,
                      "per_manifest": {m: {"total": sum(c.values()), **c}
                                       for m, c in per_manifest.items()}}),
          file=sys.stderr)
    return 1 if totals["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
