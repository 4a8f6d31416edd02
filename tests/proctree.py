"""Process-tree helpers for the survivor drills (Linux ``/proc`` only)."""

import sys
import time
from pathlib import Path

import pytest

needs_proc = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads the process tree from /proc/<pid>/task/*/children",
)


def descendants(pid: int) -> set[int]:
    """Every live descendant of ``pid``, read from ``/proc``."""
    found: set[int] = set()
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for children in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                pids = {int(p) for p in children.read_text().split()}
            except OSError:  # the task exited mid-walk
                continue
            frontier.extend(pids - found)
            found |= pids
    return found


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    # The state letter follows the parenthesised command name; a zombie
    # is dead, only not yet reaped by whichever process adopted it.
    return stat[stat.rindex(")") + 2] != "Z"


def survivors(pids, within_s: float = 5.0) -> set[int]:
    """Which of ``pids`` are still alive ``within_s`` seconds from now."""
    deadline = time.monotonic() + within_s
    alive = {pid for pid in pids if _alive(pid)}
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = {pid for pid in alive if _alive(pid)}
    return alive
