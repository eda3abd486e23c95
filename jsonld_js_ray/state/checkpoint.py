"""Job-level commit record → restart after failure.

Ray task retries cover task-level failure; this manifest covers job-level
restart (SURVEY.md §4.3.5). The job is the unit of commit: its output is
complete only when every exchange group's reduce task has returned, and
a failed reduce makes ``finalize()`` raise. Then each partition gets a
JSON entry with its counts, and ``job.json``, written last and
atomically with the input fingerprint, commits the job. A rerun over an
unchanged input finds it and has nothing to do; any other run deletes
the manifest and the output and recomputes the whole job."""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Optional


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def input_files(input_path: str) -> list[tuple[str, str]]:
    """The sorted (relative path, path) of the files
    ``ray.data.read_parquet(input_path)`` reads. Like Ray, a directory is
    walked recursively and relative paths starting with "." or "_" are
    skipped."""
    root = os.path.abspath(input_path)
    if os.path.isfile(root):
        return [(os.path.basename(root), root)]
    files = []
    for parent, _, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            rel = os.path.relpath(path, root)
            if not rel.startswith((".", "_")):
                files.append((rel, path))
    return sorted(files)


def input_fingerprint(files: list[tuple[str, str]],
                      num_partitions: int) -> str:
    """sha256 over the (relative path, byte size, mtime_ns) of each of
    ``files`` (an ``input_files`` listing), plus ``num_partitions``."""
    h = hashlib.sha256(f"num_partitions={num_partitions}".encode())
    for rel, path in files:
        st = os.stat(path)
        h.update(f"\0{rel}\0{st.st_size}\0{st.st_mtime_ns}".encode())
    return h.hexdigest()


def committed_job(out_dir: str, fingerprint: str) -> Optional[dict]:
    """The committed job summary of ``out_dir`` if its input fingerprint
    is ``fingerprint``; None otherwise."""
    try:
        with open(os.path.join(manifest_dir(out_dir), "job.json")) as fh:
            job = json.load(fh)
    except (OSError, ValueError):
        return None
    return job if job.get("input_fingerprint") == fingerprint else None


def write_partition_entry(out_dir: str, partition_id: int,
                          n_quads: int, n_docs: int,
                          input_fingerprint: str = ""):
    mdir = manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    entry = {
        "partition_id": int(partition_id),
        "n_quads": int(n_quads),
        "n_docs": int(n_docs),
        "input_fingerprint": input_fingerprint,
        "completed_at": time.time(),
    }
    path = os.path.join(mdir, f"partition-{partition_id:05d}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(entry, fh)
    os.replace(tmp, path)


def write_job_summary(out_dir: str, summary: dict):
    mdir = manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    path = os.path.join(mdir, "job.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(summary, fh, indent=1)
    os.replace(tmp, path)


def read_entries(out_dir: str) -> list[dict]:
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return []
    out = []
    for name in sorted(os.listdir(mdir)):
        if name.startswith("partition-") and name.endswith(".json"):
            with open(os.path.join(mdir, name)) as fh:
                out.append(json.load(fh))
    return out
