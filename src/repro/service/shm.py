"""Zero-copy score transport: per-worker shared-memory slab rings.

Replies carrying dense score arrays used to pickle them through the
worker pipe — for a preset-sized 3-D request that is ~69 KB serialized,
copied, framed, read and deserialized *per reply*.  This module replaces
that with one :class:`ScoreSlabRing` per worker: a
``multiprocessing.shared_memory`` segment split into fixed-size slots,
each guarded by a one-byte in-use flag.  The worker writes a score array
into a free slot and ships a tiny :class:`SlabRef` (name, slot, length,
dtype) over the pipe; the coordinator maps the same segment once and
hands out **read-only views** — the scores never cross the pipe and are
never copied on the answer path.

Slot protocol (lock-free by single-writer discipline):

* the **worker** is the only writer of ``1`` — it claims a free slot,
  memcpys the scores, *then* sends the ref (the pipe write is the
  happens-before edge: the coordinator only looks at a slot after
  receiving its ref);
* the **coordinator** is the only writer of ``0`` — it releases a slot
  when the answer is consumed (``ClusterResponse.release()``), when a
  late reply arrives for an already-written-off request, or when a
  feedback record's scores have been copied out.

A full ring or an oversized array degrades gracefully: ``write`` returns
``None`` and the caller falls back to pickling the array — the path
cross-host futures will keep using, so it stays exercised.

Lifecycle (crash-safe by construction): the **coordinator** creates and
unlinks every segment; the worker only attaches.  Python registers
attached segments with the ``resource_tracker`` exactly as created ones,
but every multiprocessing child shares the *parent's* tracker process
(the tracker fd is inherited / passed at spawn), so the worker's attach
just re-registers the same name in the same tracker — a set, hence a
no-op — and the coordinator's unlink unregisters it once.  A SIGKILLed
worker therefore never triggers tracker cleanup of a segment the
coordinator still maps, and anything the coordinator itself fails to
unlink is swept by the shared tracker at process exit.  On Linux an
unlink only removes the *name*; existing mappings stay valid, which is
why the coordinator can unlink at worker exit or quarantine (chaos runs
must not leak ``/dev/shm`` entries) while outstanding score views keep
reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ScoreSlabRing", "SlabRef", "leaked_segments"]

#: flag bytes live at the head of the segment, slot data after this many
#: bytes (page-aligned so slot 0 starts cache-line clean)
_HEADER_BYTES = 4096

#: default slot size: one preset-sized 3-D score array (8640 × float64)
DEFAULT_SLOT_BYTES = 8640 * 8

#: default slots per ring (~4.4 MB per worker at the default slot size)
DEFAULT_SLOTS = 64


@dataclass(frozen=True)
class SlabRef:
    """A pipe-sized handle to one score array parked in a slab slot."""

    #: shared-memory segment name (the ring identity)
    name: str
    slot: int
    #: element count of the parked 1-D array
    count: int
    #: numpy dtype name of the parked array
    dtype: str


class ScoreSlabRing:
    """A fixed-slot shared-memory ring for one worker's score arrays."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slots: int,
        slot_bytes: int,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.slots = slots
        self.slot_bytes = slot_bytes
        #: True on the coordinator side (created the segment, may unlink)
        self.owner = owner
        self._flags: "np.ndarray | None" = np.ndarray(
            (slots,), dtype=np.uint8, buffer=shm.buf
        )
        self._cursor = 0
        self._unlinked = False
        self._closed = False
        self._close_pending = False
        #: arrays parked (worker side)
        self.writes = 0
        #: arrays that could not be parked (ring full / oversized)
        self.fallbacks = 0
        #: slots returned (coordinator side)
        self.releases = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        slots: int = DEFAULT_SLOTS,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> "ScoreSlabRing":
        """Coordinator side: create (and own) a zeroed ring segment."""
        if slots < 1 or slots > _HEADER_BYTES:
            raise ValueError(f"slots must be in [1, {_HEADER_BYTES}], got {slots}")
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=_HEADER_BYTES + slots * slot_bytes
        )
        ring = cls(shm, slots, slot_bytes, owner=True)
        ring._flags[:] = 0
        return ring

    @classmethod
    def attach(
        cls,
        name: str,
        slots: int = DEFAULT_SLOTS,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> "ScoreSlabRing":
        """Worker side: map an existing ring (never unlinks it)."""
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, slots, slot_bytes, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- slot protocol ---------------------------------------------------------

    def write(self, arr: np.ndarray) -> "SlabRef | None":
        """Park a 1-D array in a free slot; None means "pickle it instead".

        Scans from a rotating cursor so consecutive writes spread over the
        ring instead of hammering slot 0's flag line.
        """
        arr = np.ascontiguousarray(arr).reshape(-1)
        if self._closed or arr.nbytes > self.slot_bytes:
            self.fallbacks += 1
            return None
        flags = self._flags
        for i in range(self.slots):
            slot = (self._cursor + i) % self.slots
            if flags[slot] == 0:
                flags[slot] = 1
                self._cursor = (slot + 1) % self.slots
                dst = np.ndarray(
                    arr.shape,
                    dtype=arr.dtype,
                    buffer=self._shm.buf,
                    offset=_HEADER_BYTES + slot * self.slot_bytes,
                )
                dst[...] = arr
                self.writes += 1
                return SlabRef(self.name, slot, arr.size, arr.dtype.name)
        self.fallbacks += 1
        return None

    def view(self, ref: SlabRef) -> np.ndarray:
        """A read-only zero-copy view of a parked array (coordinator side)."""
        if self._closed:
            raise ValueError(f"ring {self.name!r} is closed")
        if ref.slot < 0 or ref.slot >= self.slots:
            raise ValueError(f"slot {ref.slot} outside ring of {self.slots}")
        out = np.ndarray(
            (ref.count,),
            dtype=np.dtype(ref.dtype),
            buffer=self._shm.buf,
            offset=_HEADER_BYTES + ref.slot * self.slot_bytes,
        )
        out.setflags(write=False)
        return out

    def release(self, ref: SlabRef) -> None:
        """Return a slot to the worker; views of it must not be read after."""
        if self._closed:
            return
        if 0 <= ref.slot < self.slots:
            self._flags[ref.slot] = 0
            self.releases += 1
        if self._close_pending and self.in_use() == 0:
            self._do_close()

    def in_use(self) -> int:
        """Slots currently holding unreleased arrays."""
        if self._closed:
            return 0
        return int(np.count_nonzero(self._flags))

    # -- lifecycle -------------------------------------------------------------

    def unlink(self) -> None:
        """Remove the segment name (owner only; mappings stay valid)."""
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def close(self) -> None:
        """Unmap the segment, deferring while score slots are outstanding.

        ``SharedMemory.close`` unmaps immediately even when numpy views
        of the buffer still exist (the views do not export-lock the
        mapping), so closing under a live :class:`SlabRef` lease would
        turn its next flag write or score read into a use-after-unmap
        crash.  Instead the close is deferred: while any slot is in use
        the ring only marks itself close-pending, and the **last**
        ``release`` performs the real unmap.  Callers must treat score
        views as dead once their slot is released — that was already the
        slot-protocol contract.
        """
        if self._closed:
            return
        if self.in_use():
            self._close_pending = True
            return
        self._do_close()

    def _do_close(self) -> None:
        self._closed = True
        self._flags = None  # drop our own view before unmapping
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exporting buffers exist
            pass

    def stats(self) -> dict:
        return {
            "slab_slots": self.slots,
            "slab_in_use": self.in_use(),
            "slab_writes_total": self.writes,
            "slab_fallbacks_total": self.fallbacks,
            "slab_releases_total": self.releases,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScoreSlabRing({self.name!r}, {self.in_use()}/{self.slots} in use, "
            f"owner={self.owner})"
        )


def leaked_segments(prefix: str) -> list[str]:
    """Shared-memory segment names starting with ``prefix`` (Linux only).

    The chaos soak asserts this is empty after a run full of SIGKILLs —
    the crash-safety claim of the unlink-at-exit/quarantine protocol.
    Returns ``[]`` on platforms without a visible ``/dev/shm``.
    """
    from pathlib import Path

    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in shm_dir.glob(f"{prefix}*"))
