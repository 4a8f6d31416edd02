"""Helpers shared by the workloads: statistics, host stamp, process hygiene."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A percentile is reported only while this many samples lie beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def _rank(n: int, pct: float) -> int:
    # The tolerance keeps float noise (99.9 / 100 * 10000 = 9990.000...2)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(len(ordered), pct) - 1])


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` nearest-rank samples lie above the ``pct`` percentile."""
    return n - _rank(n, pct)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest ladder percentile with at least ``min_beyond`` samples beyond it."""
    eligible = [p for p in PERCENTILE_LADDER if samples_beyond(n, p) >= min_beyond]
    return eligible[-1] if eligible else None


# -- host stamp ---------------------------------------------------------

_STRAY = re.compile(r"\brepro[.-]|from repro\b|multiprocessing")


def _cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return ""
    return raw.replace(b"\0", b" ").decode("utf-8", "replace")


def _pids() -> list[int]:
    try:
        return [int(p) for p in os.listdir("/proc") if p.isdigit()]
    except OSError:
        return []


def stray_processes() -> list[dict]:
    """Live ``repro`` or ``multiprocessing`` processes that are not ours."""
    me = os.getpid()
    found = []
    for pid in _pids():
        if pid == me:
            continue
        cmd = _cmdline(pid)
        if cmd and _STRAY.search(cmd):
            found.append({"pid": pid, "cmd": cmd[:160]})
    return found


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(src: Path) -> str:
    """Content hash of the program's Python sources.

    The benchmark's checkout is not a git repository, so this stands
    in for the commit id; ``git rev-parse`` is used when it works.
    """
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def environment() -> dict:
    """What a report's bytes may depend on besides the program and its inputs."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def host_stamp(root: Path, strays: list[dict]) -> dict:

    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **environment(),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root / "src" / "repro"),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "stray_processes": len(strays),
    }


# -- child processes ----------------------------------------------------


def tagged_pids(tag: str) -> list[int]:
    """Processes whose environment carries ``PERFBENCH_TAG=<tag>``.

    Every child the benchmark starts gets the tag; forked descendants
    inherit it, and it survives their reparenting to init, so this
    finds pool workers that outlived the process that started them.
    """
    needle = f"PERFBENCH_TAG={tag}".encode()
    found = []
    for pid in _pids():
        if pid == os.getpid():
            continue
        try:
            env = Path(f"/proc/{pid}/environ").read_bytes()
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z" and needle in env.split(b"\0"):
            found.append(pid)
    return found


def reap_survivors(tag: str) -> int:
    """Kill and count tagged processes still alive; wait until they are gone."""
    survivors = tagged_pids(tag)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    remaining = list(survivors)
    deadline = time.monotonic() + 10.0
    while remaining and time.monotonic() < deadline:
        time.sleep(0.05)
        remaining = tagged_pids(tag)
    return len(survivors)


def child_env(root: Path, work: Path, tag: str) -> dict:
    """Environment for a program process: isolated cache and runs dirs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["REPRO_RUNS_DIR"] = str(work / "runs")
    env["PERFBENCH_TAG"] = tag
    env["PYTHONHASHSEED"] = "0"
    for name in ("REPRO_PROCESS_FAULTS", "REPRO_CHUNK_ROWS"):
        env.pop(name, None)
    return env


def proc_cpu_s(pid: int) -> float:
    """utime+stime (+ reaped children) of ``pid`` from /proc, in seconds."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB; 0 once it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_children(pid: int) -> list[int]:
    kids = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
            kids.extend(int(k) for k in text.split())
    except OSError:
        pass
    return kids


def python() -> str:
    return sys.executable or "python3"
