"""Deterministic observability for the serving stack.

Six pieces, all import-light and dependency-free:

- :mod:`repro.obs.trace` — per-request spans with hash-derived trace ids,
  deterministic request-id sampling, a bounded ring recorder per process,
  a JSONL sink, and per-stage latency attribution.
- :mod:`repro.obs.metrics` — counters, gauges, and fixed-exponential-bucket
  histograms that merge *exactly* across workers, with dict snapshots and
  Prometheus-style text exposition.
- :mod:`repro.obs.quality` — streaming ranking-quality gauges (rolling
  Kendall τ per family), promotion-outcome tracking (shadow τ vs realized
  online τ), and a deterministic quality-regression detector.
- :mod:`repro.obs.slo` — declarative SLO objectives evaluated with
  multi-window burn rates over the exact-merge telemetry, with a
  deterministic ok→warning→breach alert state machine.
- :mod:`repro.obs.audit` — an append-only, checksum-chained audit journal
  of model-lifecycle and fleet-health events, with :func:`replay` to
  reconstruct which model version answered which request, and why.
- :mod:`repro.obs.ledger` — a schema-versioned benchmark history ledger
  (``BENCH_history.jsonl``) plus a trailing-median regression sentinel.

Everything is behind a no-op fast path: a cluster constructed without a
:class:`TraceConfig` (or without ``audit=``) holds no tracer/journal and
pays only ``None`` checks.
"""

from repro.obs.audit import GENESIS, AuditJournal, verify_entries
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    append_row,
    check_regression,
    format_report,
    git_sha,
    ledger_row,
    read_history,
    record_run,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exposition,
    merge_histograms,
    percentile_from_hist,
)
from repro.obs.quality import PromotionOutcome, QualityWatch
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    SLOEngine,
    SLObjective,
    default_objectives,
)
from repro.obs.trace import (
    ROOT_SPAN,
    Span,
    SpanRecorder,
    TraceConfig,
    TraceContext,
    Tracer,
    read_jsonl,
    sample_request,
    stage_breakdown,
    trace_id_for,
    write_jsonl,
)

__all__ = [
    "AuditJournal",
    "Counter",
    "DEFAULT_OBJECTIVES",
    "GENESIS",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA_VERSION",
    "MetricsRegistry",
    "PromotionOutcome",
    "QualityWatch",
    "ROOT_SPAN",
    "SLOEngine",
    "SLObjective",
    "Span",
    "SpanRecorder",
    "TraceConfig",
    "TraceContext",
    "Tracer",
    "append_row",
    "check_regression",
    "default_objectives",
    "exposition",
    "format_report",
    "git_sha",
    "ledger_row",
    "merge_histograms",
    "percentile_from_hist",
    "read_history",
    "read_jsonl",
    "record_run",
    "sample_request",
    "stage_breakdown",
    "trace_id_for",
    "verify_entries",
    "write_jsonl",
]
