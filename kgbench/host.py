"""Host fingerprint and the memory of a run's processes, read from /proc
(Linux)."""

from __future__ import annotations

import os
import platform
import subprocess
import threading


def _cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal, ... in clock ticks."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def busy_cpu_s() -> float:
    """Cumulative non-idle CPU seconds of the host (user, nice, system,
    irq, softirq, steal)."""
    f = _cpu_ticks()
    return (f[0] + f[1] + f[2] + f[5] + f[6] + f[7]) / os.sysconf(
        "SC_CLK_TCK")


def _git_commit(root: str) -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True, timeout=10)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def nproc() -> int:
    """What the ``nproc`` command prints. It honours OMP_NUM_THREADS, so
    it can be lower than the CPUs this process may run on."""
    out = subprocess.run(["nproc"], capture_output=True, text=True,
                         timeout=10)
    return int(out.stdout)


def group_pids() -> list[str]:
    """The processes in this process's group. The worker leads its own
    group, and Ray's daemons and workers stay in it."""
    pgrp, pids = os.getpgrp(), []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                # the fields after the parenthesised command name:
                # state, ppid, pgrp, ...
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgrp:
            pids.append(pid)
    return pids


def pss_mb(pids: list[str]) -> float:
    """Summed proportional set size of ``pids``, in MB: each shared page
    counts once across them. Processes that have ended are skipped."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0


class Fingerprint:
    """Host facts taken before and after a run."""

    def __init__(self, root: str):
        self.root = root
        self.before_load = os.getloadavg()
        self.before_steal = _cpu_ticks()[7]

    def finish(self, ray_cpus: int) -> dict:
        import pyarrow
        import ray
        return {
            "nproc": nproc(),
            "cpus": len(os.sched_getaffinity(0)),
            "loadavg_before": self.before_load,
            "loadavg_after": os.getloadavg(),
            "steal_ticks": _cpu_ticks()[7] - self.before_steal,
            "ray_num_cpus": ray_cpus,
            "ray": ray.__version__,
            "pyarrow": pyarrow.__version__,
            "python": platform.python_version(),
            "commit": _git_commit(self.root),
        }


class MemSampler:
    """Samples the summed PSS of this process group every ``period``
    seconds on a thread while the block runs, and reports the peak above
    the sum on entry."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.period):
            self.peak = max(self.peak, pss_mb(group_pids()))

    def __enter__(self):
        self.base = self.peak = pss_mb(group_pids())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak = max(self.peak, pss_mb(group_pids()))

    @property
    def growth_mb(self) -> float:
        return self.peak - self.base
