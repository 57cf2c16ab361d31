"""Tests for ServiceTelemetry, including percentile and merge edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import Histogram, percentile_from_hist
from repro.service.telemetry import ServiceTelemetry, merge_stats


def _within_one_bucket(estimate_s: float, exact_s: float) -> bool:
    """Whether a histogram percentile sits within one bucket of the exact."""
    h = Histogram()
    lower, upper = h.bucket_bounds(h.bucket_index(exact_s))
    return abs(estimate_s - exact_s) <= upper - lower


class TestPercentileEdgeCases:
    def test_empty_window_reports_zero(self):
        snap = ServiceTelemetry().snapshot()
        assert snap["latency_p50_ms"] == 0.0
        assert snap["latency_p99_ms"] == 0.0

    def test_single_sample_all_percentiles_equal(self):
        t = ServiceTelemetry()
        t.record_completion(0.25)
        hist = t.snapshot()["latency_hist"]
        for q in (0, 50, 99, 100):
            assert _within_one_bucket(percentile_from_hist(hist, q), 0.25)

    def test_single_failed_sample_still_counts_latency(self):
        t = ServiceTelemetry()
        t.record_completion(0.1, failed=True)
        assert t.failed_total == 1 and t.completed_total == 0
        assert _within_one_bucket(t.snapshot()["latency_p50_ms"] / 1e3, 0.1)


class TestCounters:
    def test_mean_batch_size_zero_before_first_batch(self):
        assert ServiceTelemetry().mean_batch_size == 0.0

    def test_batch_accounting(self):
        t = ServiceTelemetry()
        t.record_batch(4)
        t.record_batch(8)
        assert t.batches_total == 2
        assert t.mean_batch_size == pytest.approx(6.0)
        assert t.max_batch_size == 8

    def test_snapshot_keys_stable(self):
        keys = set(ServiceTelemetry().snapshot())
        assert {
            "requests_total",
            "completed_total",
            "failed_total",
            "batches_total",
            "mean_batch_size",
            "max_batch_size",
            "scored_candidates_total",
            "degraded_total",
            "shed_total",
            "latency_p50_ms",
            "latency_p99_ms",
            "latency_hist",
        } <= keys

    def test_degraded_and_shed_are_first_class(self):
        t = ServiceTelemetry()
        t.record_degraded()
        t.record_shed()
        t.record_shed()
        snap = t.snapshot()
        assert snap["degraded_total"] == 1
        assert snap["shed_total"] == 2
        merged = merge_stats([snap, ServiceTelemetry().snapshot()])
        assert merged["degraded_total"] == 1
        assert merged["shed_total"] == 2


def _busy_snapshot(latencies, **counter_overrides):
    t = ServiceTelemetry()
    for latency in latencies:
        t.record_request()
        t.record_completion(latency, failed=counter_overrides.get("failed", False))
    return t


class TestMergeStatsEdgeCases:
    def test_empty_windows_merge_to_zero_percentiles(self):
        a, b = ServiceTelemetry(), ServiceTelemetry()
        merged = merge_stats([a.snapshot(), b.snapshot()])
        assert merged["workers"] == 2
        assert merged["requests_total"] == 0
        assert merged["latency_p50_ms"] == 0.0
        assert merged["latency_p99_ms"] == 0.0

    def test_no_snapshots_at_all(self):
        merged = merge_stats([])
        assert merged["workers"] == 0
        assert merged["max_batch_size"] == 0
        assert merged["mean_batch_size"] == 0.0
        assert merged["cache_hit_rate"] == 0.0
        assert merged["latency_p50_ms"] == 0.0

    def test_single_worker_merge_is_identity_on_percentiles(self):
        t = _busy_snapshot([0.01, 0.02, 0.03, 0.04])
        snap = t.snapshot()
        merged = merge_stats([snap])
        assert merged["workers"] == 1
        assert merged["requests_total"] == 4
        # one worker: the merged histogram IS the worker's histogram, and the
        # merged percentiles are exactly what that histogram reads back
        assert merged["latency_hist"] == snap["latency_hist"]
        hist = Histogram.from_dict(snap["latency_hist"])
        assert merged["latency_p50_ms"] == hist.percentile(50) * 1e3
        assert merged["latency_p99_ms"] == hist.percentile(99) * 1e3

    def test_all_failed_workers_still_report_latency(self):
        """Failures carry latencies too — the merge must not divide by zero
        or hide the latency story of a fully-failing cluster."""
        workers = [_busy_snapshot([0.05, 0.1], failed=True) for _ in range(3)]
        merged = merge_stats([w.snapshot() for w in workers])
        assert merged["completed_total"] == 0
        assert merged["failed_total"] == 6
        assert merged["cache_hit_rate"] == 0.0
        assert merged["mean_batch_size"] == 0.0
        assert merged["latency_p99_ms"] >= merged["latency_p50_ms"] > 0.0

    def test_hist_merge_agrees_with_exact(self):
        """Merged-histogram p50/p99 within one bucket width of the exact
        percentiles over every worker's samples."""
        rng = np.random.default_rng(17)
        samples = [rng.lognormal(-4.0, 1.0, size=200) for _ in range(4)]
        merged = merge_stats([_busy_snapshot(s).snapshot() for s in samples])
        pooled = np.concatenate(samples)
        for q in (50, 99):
            exact_s = float(np.percentile(pooled, q))
            hist_s = merged[f"latency_p{q}_ms"] / 1e3
            assert _within_one_bucket(hist_s, exact_s), (
                f"p{q}: hist {hist_s} vs exact {exact_s}"
            )

    @pytest.mark.parametrize(
        "bad_hist",
        [
            None,
            {"counts": "garbage"},
            Histogram(growth=2.0).to_dict(),
            {**Histogram().to_dict(), "counts": [1] * 500},
        ],
        ids=["missing", "malformed", "mismatched", "overlong"],
    )
    def test_unmergeable_hist_is_left_out(self, bad_hist):
        """Stats can come from remote workers: a snapshot whose histogram
        will not merge must not raise.  Its counters still sum; the
        percentiles come from the other workers alone."""
        good = [_busy_snapshot([0.01, 0.02]), _busy_snapshot([0.03])]
        bad = _busy_snapshot([5.0, 5.0, 5.0]).snapshot()
        bad["latency_hist"] = bad_hist
        merged = merge_stats([good[0].snapshot(), bad, good[1].snapshot()])
        assert merged["requests_total"] == 6
        assert merged["completed_total"] == 6
        assert merged["latency_hist"]["count"] == 3
        expected = merge_stats([g.snapshot() for g in good])
        assert merged["latency_p50_ms"] == expected["latency_p50_ms"]
        assert merged["latency_p99_ms"] == expected["latency_p99_ms"]
        assert merged["latency_p99_ms"] < 1000  # the 5 s samples are out


class TestMergeStatsMissingWorkers:
    """A ``None`` snapshot is a worker that never connected (a socket dial
    failure) or never answered — counted in the fleet, absent from every
    aggregate, never a crash."""

    def test_none_snapshot_is_counted_not_merged(self):
        live = _busy_snapshot([0.01, 0.02])
        merged = merge_stats([live.snapshot(), None])
        assert merged["workers"] == 2
        assert merged["missing_workers"] == 1
        assert merged["requests_total"] == 2
        # percentiles come from the one live worker, unperturbed
        assert merged["latency_p50_ms"] == live.snapshot()["latency_p50_ms"]

    def test_all_missing_merges_to_empty_fleet_shape(self):
        merged = merge_stats([None, None, None])
        assert merged["workers"] == 3
        assert merged["missing_workers"] == 3
        assert merged["requests_total"] == 0
        assert merged["max_batch_size"] == 0
        assert merged["mean_batch_size"] == 0.0
        assert merged["cache_hit_rate"] == 0.0
        assert merged["latency_p50_ms"] == 0.0

    def test_fully_connected_fleet_reports_zero_missing(self):
        a, b = ServiceTelemetry(), ServiceTelemetry()
        merged = merge_stats([a.snapshot(), b.snapshot()])
        assert merged["missing_workers"] == 0

    def test_histogram_merge_skips_missing_workers(self):
        """Exact histogram merging must consider only live snapshots — a
        None among them used to poison the hist path into a TypeError."""
        a = _busy_snapshot([0.01])
        b = _busy_snapshot([0.03])
        merged = merge_stats([a.snapshot(), None, b.snapshot()])
        assert "latency_hist" in merged
        assert merged["latency_hist"]["count"] == 2
        assert merged["missing_workers"] == 1
