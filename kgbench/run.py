"""KG-construction benchmark: one workload run.

    python3 kgbench/run.py --workload kg_mixed --seed 1 --seconds 35 --trace 0

Run from the repository root. The run happens in a fresh worker process
under a hard wall-clock timeout; a hang is killed with its whole process
group and counted as a failed operation. Standard output ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of the traced replay. The lines before it carry the oracle
verdict details and the host fingerprint. See kgbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(HERE, "_run")
# a run must end within 180 s; this leaves room to kill and report
TIMEOUT_S = 165


def _stop_group(pgid: int, wait_s: float = 10.0):
    """SIGKILL every process left in the worker's process group (Ray's
    daemons stay in it) and wait until none is left."""
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def _run_worker(args, work: str) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_USAGE_STATS_ENABLED="0")
    with open(os.path.join(work, "worker.log"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    _stop_group(proc.pid)
    # keep only the small artifacts: result.json, worker.log, spans.jsonl
    for bulky in ("input", "warmup", "out"):
        shutil.rmtree(os.path.join(work, bulky), ignore_errors=True)
    shutil.rmtree(os.path.join(RUN_DIR, "r"), ignore_errors=True)
    if proc.returncode != 0:
        return None
    with open(os.path.join(work, "result.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "jsonld_js_ray")):
        print("kgbench: the jsonld_js_ray package is not beside kgbench/; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    work = os.path.join(RUN_DIR, f"{args.workload}-s{args.seed}"
                                 f"-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t0 = time.perf_counter()
    result = _run_worker(args, work)
    if result is None:
        # a crash or a hang: one attempted operation, failed, no metrics
        with open(os.path.join(work, "worker.log")) as fh:
            tail = fh.read()[-2000:]
        print(tail, file=sys.stderr)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "error": "worker crashed or timed out",
                          "elapsed_s": time.perf_counter() - t0}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    report = dict(result.pop("report"), workload=args.workload,
                  seed=args.seed, trace=args.trace)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report, default=str))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
