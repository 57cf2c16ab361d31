"""Unit tests for the score slab ring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.shm import (
    DEFAULT_SLOT_BYTES,
    ScoreSlabRing,
    SlabRef,
    leaked_segments,
)


@pytest.fixture()
def ring():
    r = ScoreSlabRing.create("rsl-test-unit", slots=4, slot_bytes=256)
    yield r
    r.unlink()
    r.close()


class TestSlabRing:
    def test_write_view_roundtrip_bit_identical(self, ring):
        arr = np.arange(32, dtype=np.float64) * 0.5
        ref = ring.write(arr)
        assert isinstance(ref, SlabRef)
        assert ref.count == 32 and ref.dtype == "float64"
        view = ring.view(ref)
        assert view.flags.writeable is False
        assert np.array_equal(view, arr)

    def test_release_returns_slot(self, ring):
        refs = [ring.write(np.arange(4.0)) for _ in range(3)]
        assert ring.in_use() == 3
        for ref in refs:
            ring.release(ref)
        assert ring.in_use() == 0
        assert ring.stats()["slab_releases_total"] == 3

    def test_full_ring_falls_back_to_none(self, ring):
        refs = [ring.write(np.arange(4.0)) for _ in range(4)]
        assert all(r is not None for r in refs)
        assert ring.write(np.arange(4.0)) is None  # full -> pickle fallback
        assert ring.stats()["slab_fallbacks_total"] == 1
        ring.release(refs[0])
        assert ring.write(np.arange(4.0)) is not None  # freed slot reused

    def test_oversized_array_falls_back(self, ring):
        big = np.zeros(ring.slot_bytes // 8 + 1, dtype=np.float64)
        assert ring.write(big) is None
        assert ring.stats()["slab_fallbacks_total"] == 1
        assert ring.in_use() == 0  # nothing claimed on the fallback path

    def test_float32_roundtrip(self, ring):
        arr = np.linspace(-1, 1, 16, dtype=np.float32)
        ref = ring.write(arr)
        assert ref.dtype == "float32"
        assert np.array_equal(ring.view(ref), arr)

    def test_attach_sees_owner_writes(self, ring):
        attached = ScoreSlabRing.attach(ring.name, slots=4, slot_bytes=256)
        try:
            ref = attached.write(np.array([1.0, 2.0, 3.0]))
            assert np.array_equal(ring.view(ref), [1.0, 2.0, 3.0])
            assert ring.in_use() == 1
            ring.release(ref)
            assert attached.in_use() == 0
        finally:
            attached.close()

    def test_close_defers_until_last_release(self):
        ring = ScoreSlabRing.create("rsl-test-defer", slots=2, slot_bytes=256)
        ref = ring.write(np.arange(4.0))
        view = ring.view(ref)
        ring.unlink()
        ring.close()  # slot outstanding: must NOT unmap yet
        assert view.sum() == 6.0  # view still readable
        assert ring.write(np.arange(2.0)) is not None  # ring still live
        assert ring.in_use() == 2
        ring.release(SlabRef(ring.name, 1, 2, "float64"))
        ring.release(ref)  # last release performs the real unmap
        assert ring.in_use() == 0
        assert ring.write(np.arange(2.0)) is None  # closed -> fallback
        with pytest.raises(ValueError, match="closed"):
            ring.view(ref)
        ring.release(ref)  # idempotent no-op after close
        assert leaked_segments("rsl-test-defer") == []

    def test_unlink_is_owner_only_and_idempotent(self, ring):
        attached = ScoreSlabRing.attach(ring.name, slots=4, slot_bytes=256)
        try:
            attached.unlink()  # non-owner: no-op
            assert leaked_segments(ring.name) == [ring.name]
        finally:
            attached.close()
        ring.unlink()
        ring.unlink()
        assert leaked_segments(ring.name) == []

    def test_view_rejects_out_of_range_slot(self, ring):
        with pytest.raises(ValueError, match="outside ring"):
            ring.view(SlabRef(ring.name, 99, 4, "float64"))

    def test_default_slot_fits_preset_score_array(self):
        assert DEFAULT_SLOT_BYTES >= 8640 * 8
