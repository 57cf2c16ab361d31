"""Service telemetry: request counters, batch shapes and latency quantiles.

The tuning service records enough to answer the operational questions a
ranking service gets asked: how many requests, how well micro-batching is
coalescing them (batches formed, mean/max batch size), how often the
ranking cache answers without re-encoding, and where the latency quantiles
sit.  Every latency lands in a fixed-bucket
:class:`~repro.obs.metrics.Histogram`; p50/p99 are read back from it,
within one bucket width of the exact sample percentile.

A multi-process cluster has one telemetry object **per worker**;
:func:`merge_stats` folds those snapshots into one cluster view — summed
counters, a hit rate recomputed over the summed lookups (never an average
of per-worker rates, which would weight an idle worker like a busy one),
and cluster-wide latency percentiles read off the **exactly merged**
histograms that ride each snapshot as ``latency_hist``.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.metrics import Histogram, merge_histograms, percentile_from_hist

__all__ = ["ServiceTelemetry", "merge_stats"]


class ServiceTelemetry:
    """Counters and quantiles for one :class:`~repro.service.TuningService`."""

    def __init__(self) -> None:
        self.requests_total = 0
        self.completed_total = 0
        self.failed_total = 0
        self.batches_total = 0
        self.batched_requests_total = 0
        self.max_batch_size = 0
        self.scored_candidates_total = 0
        self.degraded_total = 0
        self.shed_total = 0
        # buckets never evict, so the cluster merge stays exact over the
        # full service lifetime
        self._latency_hist = Histogram()

    # -- recording -------------------------------------------------------------

    def record_request(self) -> None:
        """A request was accepted into the queue."""
        self.requests_total += 1

    def record_batch(self, size: int) -> None:
        """A micro-batch of ``size`` requests was formed."""
        self.batches_total += 1
        self.batched_requests_total += size
        self.max_batch_size = max(self.max_batch_size, size)

    def record_scored(self, num_candidates: int) -> None:
        """``num_candidates`` rows went through encode+score (cache misses)."""
        self.scored_candidates_total += num_candidates

    def record_completion(self, latency_s: float, failed: bool = False) -> None:
        """A request finished (successfully or not) after ``latency_s``."""
        if failed:
            self.failed_total += 1
        else:
            self.completed_total += 1
        self._latency_hist.observe(latency_s)

    def record_degraded(self) -> None:
        """A request was answered by the degraded path (fallback/replay)."""
        self.degraded_total += 1

    def record_shed(self) -> None:
        """A request was refused at admission (queue over capacity)."""
        self.shed_total += 1

    # -- reporting -------------------------------------------------------------

    @property
    def mean_batch_size(self) -> float:
        """Average requests per micro-batch (0 before the first batch)."""
        if self.batches_total == 0:
            return 0.0
        return self.batched_requests_total / self.batches_total

    def snapshot(self) -> dict:
        """One dict with every headline number (for logs and benchmarks)."""
        hist = self._latency_hist.to_dict()
        return {
            "requests_total": self.requests_total,
            "completed_total": self.completed_total,
            "failed_total": self.failed_total,
            "batches_total": self.batches_total,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "scored_candidates_total": self.scored_candidates_total,
            "degraded_total": self.degraded_total,
            "shed_total": self.shed_total,
            "latency_p50_ms": percentile_from_hist(hist, 50) * 1e3,
            "latency_p99_ms": percentile_from_hist(hist, 99) * 1e3,
            "latency_hist": hist,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceTelemetry(requests={self.requests_total}, "
            f"batches={self.batches_total}, "
            f"mean_batch={self.mean_batch_size:.1f})"
        )


#: snapshot counters that merge by summation (telemetry + cache keys)
_SUMMED = (
    "requests_total",
    "completed_total",
    "failed_total",
    "batches_total",
    "scored_candidates_total",
    "degraded_total",
    "shed_total",
    "registry_corruption_detected_total",
    "registry_corruption_fallbacks_total",
    "cache_entries",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "frames_corrupt_total",
    "frame_decode_bugs_total",
)


def merge_stats(snapshots: "Sequence[dict | None]") -> dict:
    """Fold per-worker ``service.stats()`` snapshots into one cluster view.

    * counters sum; ``max_batch_size`` takes the max;
    * ``mean_batch_size`` is recomputed as total batched requests over
      total batches (recovered from each worker's own mean × count);
    * ``cache_hit_rate`` is recomputed over the summed lookups;
    * ``latency_p50_ms``/``latency_p99_ms`` are read off the exact merge
      of every snapshot's ``latency_hist`` (kept in the merged dict as
      ``latency_hist``), 0 with no observations.  Stats can arrive from
      remote workers, so a snapshot whose histogram is missing, malformed
      or bucketed differently from :class:`~repro.obs.metrics.Histogram`'s
      defaults never raises: its counters still sum and its latencies are
      left out.

    >>> merged = merge_stats([
    ...     {"requests_total": 3, "batches_total": 1, "mean_batch_size": 3.0,
    ...      "max_batch_size": 3, "cache_hits": 2, "cache_misses": 1},
    ...     {"requests_total": 1, "batches_total": 1, "mean_batch_size": 1.0,
    ...      "max_batch_size": 1, "cache_hits": 0, "cache_misses": 1},
    ... ])
    >>> merged["requests_total"], merged["mean_batch_size"]
    (4, 2.0)
    >>> round(merged["cache_hit_rate"], 3)
    0.5

    A ``None`` snapshot stands for a worker that never produced stats —
    a socket dial that failed, a worker that died before answering a
    ``StatsRequest``.  Those workers are *counted* (``workers`` is the
    fleet size the caller asked about, ``missing_workers`` how many of
    them were silent) but contribute nothing to any aggregate:

    >>> merged = merge_stats([{"requests_total": 2}, None])
    >>> merged["workers"], merged["missing_workers"], merged["requests_total"]
    (2, 1, 2)
    """
    live = [s for s in snapshots if s is not None]
    merged: dict = {
        "workers": len(snapshots),
        "missing_workers": len(snapshots) - len(live),
    }
    for key in _SUMMED:
        merged[key] = sum(int(s.get(key, 0)) for s in live)
    merged["max_batch_size"] = max(
        (int(s.get("max_batch_size", 0)) for s in live), default=0
    )
    batched = sum(
        s.get("mean_batch_size", 0.0) * s.get("batches_total", 0) for s in live
    )
    merged["mean_batch_size"] = (
        batched / merged["batches_total"] if merged["batches_total"] else 0.0
    )
    lookups = merged["cache_hits"] + merged["cache_misses"]
    merged["cache_hit_rate"] = merged["cache_hits"] / lookups if lookups else 0.0
    # start from an empty histogram in the service's own bucket config, so
    # a snapshot bucketed any other way is the one left out
    merged_hist = Histogram().to_dict()
    for snapshot in live:
        try:
            merged_hist = merge_histograms(
                [merged_hist, snapshot.get("latency_hist")]
            )
        except (IndexError, KeyError, TypeError, ValueError):
            continue  # unmergeable: this worker's latencies are left out
    merged["latency_hist"] = merged_hist
    merged["latency_p50_ms"] = percentile_from_hist(merged_hist, 50) * 1e3
    merged["latency_p99_ms"] = percentile_from_hist(merged_hist, 99) * 1e3
    return merged
