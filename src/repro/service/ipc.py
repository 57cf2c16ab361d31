"""The cluster wire protocol: what crosses a worker pipe, and nothing else.

One frozen dataclass per message kind, shipped over
``multiprocessing.Pipe`` connections by pickle.  Everything on the wire is
**content**, never identity: instances and tuning vectors are value
objects whose hashes (:func:`repro.stencil.execution.instance_hash`,
``TuningVector.content_key``) survive pickling bit-for-bit, which is what
lets a worker's ranking cache and the parent's router agree on keys
without ever sharing memory.

Deliberate wire economies, all load-bearing for throughput:

* a :class:`RankRequest` with ``candidates=None`` means "use your preset
  set" — the worker regenerates (and memoizes) the paper's preset
  candidates locally instead of receiving ~8640 pickled vectors per
  request (~700 bytes instead of ~300 KB on the wire);
* ``include_scores=False`` asks the worker to omit the full score array
  from the reply;
* a :class:`RankReply` answers with ``ranked_idx`` — integer positions
  into the request's own candidate list — instead of re-pickling the
  candidate objects; the coordinator rehydrates from the list it already
  holds (explicit sets, interned sets, or its preset memo), so a
  full-ranking reply ships a ~69 KB index array instead of ~8640 pickled
  vectors, and a top-k reply ships k integers;
* score arrays that do cross the boundary prefer the shared-memory slab
  transport (:mod:`repro.service.shm`): the reply carries a tiny
  :class:`~repro.service.shm.SlabRef` and the coordinator maps the bytes
  zero-copy, with pickled arrays kept as the fallback for full rings,
  oversized sets and cross-host futures;
* replies produced in one worker event-loop iteration coalesce into a
  single :class:`ReplyBatch` frame — one pipe write (and one coordinator
  reader wake-up) for a whole micro-batch of answers.

The same preset economy applies in the opposite direction: a
:class:`FeedbackRecord` (a served answer sampled for the coordinator's
continual-learning collector) ships ``candidates=None`` when the request
used the worker's preset set, and the coordinator regenerates the
identical list from its own memo.

Determinism note: scores travel as ``float64`` bytes (slab memcpy or
pickle), an exact byte-level round trip either way — the cross-process
bit-identity suites in ``tests/cluster/`` compare them with
``np.array_equal``, no tolerance.
"""

from __future__ import annotations

import pickle
import traceback as _traceback
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.trace import Span, TraceContext
from repro.service.cache import InternedCandidates
from repro.service.shm import SlabRef
from repro.stencil.instance import StencilInstance
from repro.tuning.vector import TuningVector

__all__ = [
    "CorruptFrameError",
    "ErrorReply",
    "FeedbackRecord",
    "Heartbeat",
    "Hello",
    "Ping",
    "Pong",
    "RankReply",
    "RankRequest",
    "ReplyBatch",
    "Shutdown",
    "StatsReply",
    "StatsRequest",
    "UNPICKLING_ERRORS",
    "WireError",
    "decode_frame_payload",
    "picklable_error",
    "recv_frame",
]


@dataclass(frozen=True)
class RankRequest:
    """One ranking query routed to a worker."""

    req_id: int
    instance: StencilInstance
    #: explicit candidates, an interned set, or None for worker-side presets
    candidates: "Sequence[TuningVector] | InternedCandidates | None"
    #: registry version id, tag, or ``latest``
    model_ref: str
    #: answer with only the k best candidates (None = full ranking)
    top_k: "int | None" = None
    #: ship the full score array back (False: reply.scores is None)
    include_scores: bool = True
    #: trace identity when this request is sampled (None: untraced — the
    #: worker emits no spans and the reply carries none)
    trace: "TraceContext | None" = None


@dataclass(frozen=True)
class RankReply:
    """A successfully answered :class:`RankRequest`.

    ``ranked_idx`` is the preferred answer form: best-first positions into
    the request's candidate list (truncated to ``top_k`` when the request
    asked for one), which the coordinator rehydrates against the list it
    already holds.  ``ranked`` carries concrete vectors only when the
    worker could not produce indices.  ``scores`` is a pickled array, a
    :class:`~repro.service.shm.SlabRef` into the worker's slab ring, or
    None when the request set ``include_scores=False``.
    """

    req_id: int
    ranked: "list[TuningVector] | None"
    scores: "np.ndarray | SlabRef | None"
    model_version: str
    cached: bool
    #: queue-to-answer latency inside the worker's service, in seconds
    service_latency_s: float
    worker_id: int
    #: worker-emitted stage spans for a traced request (None: untraced);
    #: the coordinator merges these into its own recorder
    spans: "tuple[Span, ...] | None" = None
    #: best-first positions into the request's candidate order
    ranked_idx: "np.ndarray | None" = None


@dataclass(frozen=True)
class ReplyBatch:
    """Several loop-thread frames coalesced into one pipe write.

    A worker micro-batch answers tens of requests in one event-loop
    iteration; sending each reply as its own frame costs a pipe write
    *and* a coordinator reader wake-up apiece.  The worker's reply sender
    buffers frames produced in the same iteration and flushes them as one
    batch — the coordinator unpacks in order.
    """

    messages: tuple


@dataclass(frozen=True)
class FeedbackRecord:
    """One served answer streamed back for coordinator-side feedback.

    Workers sample their *successful* responses (every ``feedback_every``-th
    answer, counted per worker) and ship the ``(instance, candidates,
    scores, version)`` tuple the continual-learning collector needs to
    grade the ranking later — response content only, no reply plumbing:
    the record is an observation, not an answer, and losing one can never
    strand a request.

    ``candidates=None`` means the request used the worker's preset set;
    the coordinator regenerates (and memoizes) the identical list instead
    of receiving ~8640 pickled vectors.
    """

    instance: StencilInstance
    #: the request's explicit candidates, or None for the preset set
    candidates: "Sequence[TuningVector] | None"
    #: full model scores aligned with the request's candidate order (a
    #: SlabRef when the worker parked them in its slab ring; the
    #: coordinator copies the bytes out and releases the slot before
    #: fanning the record out to listeners)
    scores: "np.ndarray | SlabRef"
    #: the concrete version that served the answer
    model_version: str
    worker_id: int


@dataclass(frozen=True)
class StatsRequest:
    """Ask a worker for its service stats and telemetry window."""

    req_id: int


@dataclass(frozen=True)
class StatsReply:
    """One worker's ``service.stats()`` snapshot plus its latency window."""

    req_id: int
    worker_id: int
    stats: dict
    latency_window: tuple[float, ...]


@dataclass(frozen=True)
class ErrorReply:
    """A request that failed inside the worker (the exception travels)."""

    req_id: int
    error: Exception
    worker_id: int


@dataclass(frozen=True)
class Heartbeat:
    """Periodic worker liveness beacon (sent unprompted from the loop).

    Because it is sent *from the event loop*, a heartbeat proves more than
    "the process exists": it proves the loop is scheduling — a worker
    blocked mid-request (a slow loris) goes heartbeat-silent even though
    its process is alive, which is exactly the symptom the coordinator's
    health machinery keys on.  ``sent_at`` is the worker's own monotonic
    clock (cross-process monotonic clocks are not comparable; the
    coordinator times staleness by *receipt*, this field is diagnostic).
    """

    worker_id: int
    seq: int
    sent_at: float


@dataclass(frozen=True)
class Ping:
    """A coordinator probe of a suspect or quarantined worker."""

    req_id: int


@dataclass(frozen=True)
class Pong:
    """The probe reply: the worker's loop round-tripped a frame."""

    req_id: int
    worker_id: int


@dataclass(frozen=True)
class Shutdown:
    """Drain inflight work, then exit the worker process."""


@dataclass(frozen=True)
class Hello:
    """The coordinator's handshake to a *remote* worker host.

    Local workers (forked or loopback-socket) receive their
    :class:`~repro.service.worker.WorkerConfig` as a spawn argument; a
    worker on another host has no spawn channel, so the first frame the
    coordinator sends after dialing carries the worker's identity and
    config instead.  ``config`` is typed loosely to keep this module free
    of a worker import — on the wire it is always a ``WorkerConfig``.
    """

    worker_id: int
    config: object


#: what ``pickle.loads`` raises on corrupted bytes — kept for callers
#: that still pattern-match exception types, but readers should use
#: :func:`recv_frame`, which separates the byte read from the decode and
#: *classifies* decode failures instead of assuming every one is frame
#: loss (an ``AttributeError`` raised by a payload's own ``__setstate__``
#: is a genuine bug, not wire corruption).
UNPICKLING_ERRORS = (
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    IndexError,
)

#: modules whose frames mean "the decode machinery itself failed" — i.e.
#: the bytes were garbage.  A failure whose deepest traceback frame lives
#: anywhere else was raised by the *payload's* own reconstruction code
#: (``__setstate__``/``__reduce__``), which is a bug to surface, not a
#: corrupt frame to shrug off.
_WIRE_MODULES = ("pickle", "_pickle", "multiprocessing", "importlib", "copyreg")


class CorruptFrameError(Exception):
    """A received frame's bytes did not decode into a message.

    ``genuine_bug`` distinguishes the two very different failures that
    used to be conflated: ``False`` means the bytes were garbage (wire
    corruption — count it against the link and move on), ``True`` means a
    well-formed pickle's own reconstruction code raised (a bug in the
    payload class — losing the frame is unavoidable, but it must be
    reported as a bug, never silently counted as frame loss).
    """

    def __init__(self, message: str, genuine_bug: bool = False, cause_type: str = "") -> None:
        super().__init__(message)
        self.genuine_bug = genuine_bug
        #: the decode failure's exception type name (diagnostics)
        self.cause_type = cause_type


def _decode_is_genuine_bug(exc: BaseException) -> bool:
    """Whether a decode failure was raised by payload code, not the wire."""
    tb = exc.__traceback__
    deepest = None
    while tb is not None:
        deepest = tb.tb_frame
        tb = tb.tb_next
    if deepest is None:
        # the C unpickler raises with no Python frames at all: garbage bytes
        return False
    module = deepest.f_globals.get("__name__", "")
    if module == __name__:
        return False  # raised straight out of our own loads call
    return not any(
        module == wire or module.startswith(wire + ".") for wire in _WIRE_MODULES
    )


def decode_frame_payload(buf: bytes) -> object:
    """Materialize one frame's payload bytes, classifying failures.

    The shared decode half of :func:`recv_frame`, reused by every
    transport that delimits frames itself (the socket transport's
    :class:`~repro.service.transport.SocketConnection` and the codec
    fuzz suite): garbage bytes surface as :class:`CorruptFrameError`
    with ``genuine_bug=False``, a well-formed pickle whose own
    reconstruction code raised as ``genuine_bug=True``.
    """
    try:
        return pickle.loads(buf)
    except Exception as exc:
        raise CorruptFrameError(
            f"frame failed to decode: {type(exc).__name__}: {exc}",
            genuine_bug=_decode_is_genuine_bug(exc),
            cause_type=type(exc).__name__,
        ) from exc


def recv_frame(conn) -> object:
    """Read one frame and decode it, classifying decode failures.

    Splits what ``Connection.recv()`` fuses: ``recv_bytes`` raises
    EOFError/OSError only for a genuinely gone peer (callers keep treating
    those as shutdown), while decode failures surface as
    :class:`CorruptFrameError` with ``genuine_bug`` telling the reader
    whether to count frame loss or report a materialization bug.  Works
    against any connection exposing the duck-typed ``recv_bytes()`` —
    ``multiprocessing.Pipe`` ends and
    :class:`~repro.service.transport.SocketConnection` alike (the latter
    may itself raise ``CorruptFrameError`` from ``recv_bytes`` for
    framing-level corruption; it propagates with the same meaning).
    """
    buf = conn.recv_bytes()
    return decode_frame_payload(buf)


class WireError(RuntimeError):
    """A faithful, always-picklable stand-in for an unpicklable exception.

    Carries the original type name and its formatted traceback so the
    coordinator-side handler of an :class:`ErrorReply` keeps a diagnosable
    failure instead of a bare one-line ``RuntimeError``.
    """

    def __init__(
        self,
        message: str,
        original_type: str = "",
        original_traceback: str = "",
    ) -> None:
        super().__init__(message)
        self.original_type = original_type
        self.original_traceback = original_traceback

    def __reduce__(self):
        return (type(self), (self.args[0], self.original_type, self.original_traceback))

    def __str__(self) -> str:
        return self.args[0]


def picklable_error(exc: Exception) -> Exception:
    """``exc`` itself when it survives pickling, else a faithful stand-in.

    Exceptions holding unpicklable payloads (open handles, locks) must not
    kill the reply path — the *request* failed, the pipe must not.  The
    stand-in is a :class:`WireError` carrying the original type name and
    formatted traceback, so the class and the raise site survive even when
    the exception object cannot.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return WireError(
            f"{type(exc).__name__}: {exc}",
            original_type=type(exc).__name__,
            original_traceback="".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )
