"""Peak memory of the benchmark's whole process tree, read from ``/proc``.

Cluster workers are forkserver grandchildren of this process, so
``RUSAGE_CHILDREN`` (which only sees waited-for children) misses them;
walking ``/proc`` parent links finds every live descendant.
"""

from __future__ import annotations

import os
from pathlib import Path

_PROC = Path("/proc")


def _parent(pid: int) -> "int | None":
    try:
        stat = (_PROC / str(pid) / "stat").read_text()
    except OSError:  # exited while we looked
        return None
    # the command name may hold spaces or parentheses: split after the last ')'
    return int(stat.rsplit(")", 1)[1].split()[1])


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in _PROC.iterdir():
        if entry.name.isdigit():
            parent = _parent(int(entry.name))
            if parent is not None:
                children.setdefault(parent, []).append(int(entry.name))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def _hwm_kb(pid: int) -> int:
    try:
        for line in (_PROC / str(pid) / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(root: "int | None" = None) -> float:
    """Summed ``VmHWM`` (peak resident set) over the live process tree, MB."""
    pids = descendants(os.getpid() if root is None else root)
    return sum(_hwm_kb(pid) for pid in pids) / 1024.0


def stop_helpers(timeout_s: float = 10.0) -> list[int]:
    """Stop multiprocessing's helper processes and wait for the tree to empty.

    The forkserver and the resource tracker otherwise outlive the run
    until interpreter exit, unwaited.  Their ``_stop`` methods are the
    library's own shutdown path (private, used by its tests).  Returns the
    descendants still alive after ``timeout_s`` (empty on success).
    """
    import time
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout_s
    while True:
        left = descendants(os.getpid())[1:]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)
