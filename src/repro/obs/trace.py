"""Deterministic per-request tracing across the serving cluster.

A *trace* is the story of one ranking request: a root ``request`` span
(submit to answer, coordinator clock) plus non-overlapping **stage spans**
that partition its wall time —

========================  =====================================================
stage                     what the time is
========================  =====================================================
``dispatch``              coordinator: route + pickle + pipe write
``worker-ingress``        pipe transit + worker inbox/loop scheduling wait
``service-queue``         wait behind the batch in flight + in-batch wait
                          before the request is scored (or, cache path,
                          until answered)
``encode``                the request's own ``FeatureEncoder.factor`` call
``score``                 the request's own ``decision_function`` call
``service-finish``        argsort / materialize / future resolution
``cache``                 zero-width marker: the ranking cache answered
``reply-egress``          reply pickle + pipe transit + coordinator reader wake
``retry-backoff``         detour: jittered wait before a re-dispatch
``degraded-score``        detour: coordinator-side fallback answer
========================  =====================================================

Stage times are *experienced* latency: a request scored after others in
its micro-batch spends their scoring time in ``service-queue``, and its
``encode``/``score`` spans cover only its own work (``attrs`` carry its
candidate ``rows``).  Because every process on one host reads the same monotonic
clock, worker spans and coordinator spans compose: the coordinator
synthesizes the two transport stages from the gaps around the worker's
span block and clamps any cross-process skew at zero.

Determinism: whether a request is traced is a pure function of its
request id (:func:`sample_request` hashes it against ``sample_rate``), so
two identical runs trace identical request sets — and tracing *itself*
never changes an answer, only observes it.

Recording is a bounded ring per process (:class:`SpanRecorder`): a
long-lived coordinator keeps the newest spans and counts what it dropped,
never growing without bound.  :func:`write_jsonl` /

:func:`read_jsonl` are the sink format, and :func:`stage_breakdown` turns
a span set into the per-stage attribution table the cluster benchmark
records (see ``benchmarks/bench_cluster.py --trace``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.util.rng import hash_bits

__all__ = [
    "ROOT_SPAN",
    "Span",
    "SpanRecorder",
    "TraceConfig",
    "TraceContext",
    "Tracer",
    "read_jsonl",
    "sample_request",
    "stage_breakdown",
    "trace_id_for",
    "write_jsonl",
]

#: the name of the per-request root span (submit → answer wall time)
ROOT_SPAN = "request"


@dataclass(frozen=True)
class TraceConfig:
    """How a process samples and buffers traces."""

    #: fraction of requests traced, decided by request-id hash (0 = none,
    #: 1 = all); deterministic — identical runs trace identical requests
    sample_rate: float = 1.0
    #: bounded span ring per process (oldest spans drop past this)
    ring_size: int = 16384

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        if self.ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {self.ring_size}")


@dataclass(frozen=True)
class TraceContext:
    """The per-request trace identity that travels over the wire.

    Presence *is* the sampling decision: a worker instruments a request
    iff its :class:`~repro.service.ipc.RankRequest` carries a context.
    """

    trace_id: str
    req_id: int


@dataclass(frozen=True)
class Span:
    """One named interval (or zero-width event) in one process."""

    #: hex id shared by every span of one request ("" for process events)
    trace_id: str
    #: stage or event name (see the module table)
    name: str
    #: ``time.monotonic()`` at span start, in the recording process
    start_s: float
    duration_s: float
    #: which process recorded it ("coordinator", "worker-3", "service")
    process: str
    #: the cluster request id (-1 for process events)
    req_id: int = -1
    #: small JSON-able extras (rows, attempt ordinal, reason, ...)
    attrs: "dict | None" = None

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def to_json(self) -> dict:
        d = {
            "trace_id": self.trace_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "process": self.process,
            "req_id": self.req_id,
        }
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Span":
        return cls(
            trace_id=d["trace_id"],
            name=d["name"],
            start_s=float(d["start_s"]),
            duration_s=float(d["duration_s"]),
            process=d["process"],
            req_id=int(d.get("req_id", -1)),
            attrs=d.get("attrs"),
        )


def trace_id_for(req_id: int) -> str:
    """The 64-bit hex trace id derived (deterministically) from a request id."""
    return f"{hash_bits('trace-id', req_id)[0]:016x}"


def sample_request(req_id: int, sample_rate: float) -> bool:
    """Whether ``req_id`` is traced at ``sample_rate`` (pure, hash-based).

    >>> sample_request(7, 1.0), sample_request(7, 0.0)
    (True, False)
    >>> all(sample_request(i, 0.5) == sample_request(i, 0.5) for i in range(32))
    True
    """
    if sample_rate >= 1.0:
        return True
    if sample_rate <= 0.0:
        return False
    return hash_bits("trace-sample", req_id)[0] / 2**64 < sample_rate


class SpanRecorder:
    """A bounded, thread-safe ring buffer of spans (per process).

    Reader threads, the monitor thread, and the event loop all record
    concurrently; the ring keeps the newest ``ring_size`` spans and counts
    the overflow honestly (``dropped``) instead of growing without bound.
    """

    def __init__(self, ring_size: int = 16384) -> None:
        self._spans: deque[Span] = deque(maxlen=ring_size)
        self._lock = threading.Lock()
        self.recorded = 0
        self.dropped = 0

    def record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)
            self.recorded += 1

    def record_many(self, spans: "Iterable[Span]") -> None:
        for span in spans:
            self.record(span)

    def spans(self) -> list[Span]:
        """The buffered spans, oldest first (a copy)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Remove and return everything buffered."""
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class Tracer:
    """Sampling decisions + the process's span ring, in one handle.

    ``context_for`` is the hot-path gate: with tracing disabled the
    serving layer holds no tracer at all (a ``None`` check), and with a
    tracer at ``sample_rate=0`` the per-request cost is one short hash.
    """

    def __init__(self, config: "TraceConfig | None" = None, process: str = "coordinator") -> None:
        self.config = config if config is not None else TraceConfig()
        self.process = process
        self.recorder = SpanRecorder(self.config.ring_size)

    def context_for(self, req_id: int) -> "TraceContext | None":
        """A trace context iff ``req_id`` is sampled (None otherwise)."""
        if not sample_request(req_id, self.config.sample_rate):
            return None
        return TraceContext(trace_id=trace_id_for(req_id), req_id=req_id)

    def span(
        self,
        ctx: TraceContext,
        name: str,
        start_s: float,
        end_s: float,
        attrs: "dict | None" = None,
    ) -> Span:
        """Record (and return) one stage span for a traced request."""
        span = Span(
            trace_id=ctx.trace_id,
            name=name,
            start_s=start_s,
            duration_s=max(0.0, end_s - start_s),
            process=self.process,
            req_id=ctx.req_id,
            attrs=attrs,
        )
        self.recorder.record(span)
        return span

    def record_event(
        self, name: str, req_id: int = -1, attrs: "dict | None" = None
    ) -> None:
        """Record a zero-width process event (health flip, requeue, shed)."""
        self.recorder.record(
            Span(
                trace_id="",
                name=f"event:{name}",
                start_s=time.monotonic(),
                duration_s=0.0,
                process=self.process,
                req_id=req_id,
                attrs=attrs,
            )
        )

    def spans(self) -> list[Span]:
        return self.recorder.spans()


# -- sink ----------------------------------------------------------------------


def write_jsonl(path: "str | Path", spans: "Iterable[Span]") -> int:
    """Write spans as JSON lines; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
            n += 1
    return n


def read_jsonl(path: "str | Path") -> list[Span]:
    """Read a span JSONL file back (inverse of :func:`write_jsonl`)."""
    out: list[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(Span.from_json(json.loads(line)))
    return out


# -- attribution ---------------------------------------------------------------


def stage_breakdown(spans: "Sequence[Span]") -> dict:
    """Per-stage latency attribution over a set of recorded spans.

    Groups spans by trace id, and for every trace with a root ``request``
    span computes *coverage* — the fraction of the request's wall time its
    stage spans account for (stages are designed to partition the wall, so
    uninstrumented time shows up as missing coverage, never double
    counting).  Process events (empty trace id) are ignored.

    Returns::

        {
          "n_traces": ...,                 # traces with a root span
          "wall_total_s": ...,             # sum of root durations
          "coverage_mean": ..., "coverage_min": ..., "coverage_p10": ...,
          "stages": {name: {"count", "total_s", "mean_ms", "fraction"}},
        }

    ``fraction`` is the stage's share of total wall time — the direct
    answer to "where does a request's time go".
    """
    by_trace: dict[str, list[Span]] = {}
    for span in spans:
        if span.trace_id:
            by_trace.setdefault(span.trace_id, []).append(span)
    stages: dict[str, dict] = {}
    coverages: list[float] = []
    wall_total = 0.0
    n_traces = 0
    for trace_spans in by_trace.values():
        root = next((s for s in trace_spans if s.name == ROOT_SPAN), None)
        if root is None:
            continue
        n_traces += 1
        wall_total += root.duration_s
        staged = 0.0
        for span in trace_spans:
            if span.name == ROOT_SPAN:
                continue
            agg = stages.setdefault(span.name, {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += span.duration_s
            staged += span.duration_s
        coverages.append(staged / root.duration_s if root.duration_s > 0 else 1.0)
    for agg in stages.values():
        agg["mean_ms"] = 1e3 * agg["total_s"] / agg["count"]
        agg["fraction"] = agg["total_s"] / wall_total if wall_total else 0.0
    coverages.sort()
    return {
        "n_traces": n_traces,
        "wall_total_s": wall_total,
        "coverage_mean": (
            sum(coverages) / len(coverages) if coverages else 0.0
        ),
        "coverage_min": coverages[0] if coverages else 0.0,
        "coverage_p10": (
            coverages[int(0.1 * (len(coverages) - 1))] if coverages else 0.0
        ),
        "stages": {name: stages[name] for name in sorted(stages)},
    }
