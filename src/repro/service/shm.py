"""Shared-memory leak check for cluster runs.

The cluster creates no shared-memory segments: scores ride the reply
frame.  Drills still assert that a run, SIGKILLs included, leaves
nothing under the coordinator's segment prefix in ``/dev/shm``.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["leaked_segments"]


def leaked_segments(prefix: str) -> list[str]:
    """Shared-memory segment names starting with ``prefix`` (Linux only).

    Returns ``[]`` on platforms without a visible ``/dev/shm``.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in shm_dir.glob(f"{prefix}*"))
