"""The cluster worker: one process, one event loop, one ``TuningService``.

:func:`worker_main` is the target of every
:class:`~repro.service.cluster.ServiceCluster` process.  It builds a fresh
:class:`~repro.service.registry.ModelRegistry` handle on the shared root
and a :class:`~repro.service.server.TuningService` with its **own**
ranking cache and telemetry, then bridges the parent pipe onto the event
loop:

* a reader thread blocks on ``conn.recv()`` and forwards each message to
  the loop (the loop itself must never block on the pipe);
* each :class:`~repro.service.ipc.RankRequest` becomes a task awaiting
  ``service.rank(...)`` — so requests micro-batch *inside* the worker
  exactly as they would in a single-process service;
* replies are sent from the loop thread only, which serializes pipe
  writes without a lock.

When the parent armed feedback streaming (``WorkerConfig.feedback_every``),
the worker also rides its own service's response-hook API: every Nth
successful answer is shipped back as a
:class:`~repro.service.ipc.FeedbackRecord` — content only (preset requests
travel as ``candidates=None``), sent from the loop thread like any reply,
so the stream can never interleave into a torn pipe write.  The
coordinator's :class:`~repro.online.feedback.ClusterFeedbackCollector`
is the consumer.

Hot swap needs no cluster machinery: the service re-resolves model tags
against the on-disk registry on every micro-batch, so a tag moved by any
process (a promotion, an operator) is observed here within one batch —
the registry's content-cached tag reads make that poll one tiny file
read, not a JSON parse.

A worker never dies because one request did: per-request failures travel
back as :class:`~repro.service.ipc.ErrorReply`; only
:class:`~repro.service.ipc.Shutdown` (or a closed pipe) ends the process,
and both drain inflight work first.

Liveness rides the same loop: a :class:`~repro.service.ipc.Heartbeat`
task beats every ``heartbeat_interval_s`` — *from the event loop*, so a
beat proves the loop is scheduling, and a worker hung mid-request goes
beat-silent even though its process lives — and every
:class:`~repro.service.ipc.Ping` is answered with a
:class:`~repro.service.ipc.Pong` the moment the inbox loop sees it (the
coordinator's probe of suspect/quarantined workers).  Unknown or
corrupted inbound frames are *skipped*, never fatal: a garbage frame on
the wire loses that frame, not the worker.

Chaos drills (``WorkerConfig.chaos``) inject faults at exactly two
points: before handling a rank request (latency / a loop-blocking slow
loris) and on its reply (drop / corrupt).  Heartbeats and pongs are never
forged — a slow loris stalls them *honestly* by blocking the loop, which
is what the coordinator's health machinery is supposed to notice.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from repro.service.chaos import ChaosConfig, ChaosState, send_corrupt_frame
from repro.service.ipc import (
    CorruptFrameError,
    ErrorReply,
    FeedbackRecord,
    Heartbeat,
    Ping,
    Pong,
    RankReply,
    RankRequest,
    ReplyBatch,
    Shutdown,
    StatsReply,
    StatsRequest,
    picklable_error,
    recv_frame,
)
from repro.service.registry import LATEST, ModelRegistry
from repro.service.server import TuningService
from repro.service.shm import DEFAULT_SLOT_BYTES, DEFAULT_SLOTS, ScoreSlabRing

__all__ = ["WorkerConfig", "socket_worker_main", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Per-worker service knobs, shipped once at spawn time."""

    default_model: str = LATEST
    max_batch_size: int = 64
    cache_entries: int = 4096
    latency_window: int = 4096
    max_cached_models: int = 8
    #: stream every Nth successful answer back to the coordinator as a
    #: :class:`~repro.service.ipc.FeedbackRecord` (0 = no feedback stream)
    feedback_every: int = 0
    #: cadence of loop-liveness Heartbeat frames (0 = no heartbeats)
    heartbeat_interval_s: float = 0.25
    #: fault injections for chaos drills (None = behave perfectly)
    chaos: "ChaosConfig | None" = None
    #: the coordinator-created score slab segment to attach (None: no
    #: shared-memory transport — every score array pickles over the pipe)
    slab_name: "str | None" = None
    slab_slots: int = DEFAULT_SLOTS
    slab_slot_bytes: int = DEFAULT_SLOT_BYTES


def worker_main(worker_id: int, registry_root: str, conn: Connection, config: WorkerConfig) -> None:
    """Process entry point: serve ranking requests from ``conn`` until told to stop."""
    try:
        asyncio.run(_serve(worker_id, registry_root, conn, config))
    finally:
        conn.close()


def socket_worker_main(
    worker_id: int, registry_root: str, port: int, config: WorkerConfig
) -> None:
    """Process entry point for a socket-transport worker.

    The coordinator opens a loopback listener and spawns this with just
    the port number (an ``int`` survives any multiprocessing start
    method); the worker dials back and then runs the *same* serve loop as
    a pipe worker — :class:`~repro.service.transport.SocketConnection`
    duck-types the pipe, so from ``_serve``'s perspective the transports
    are indistinguishable.  This is also why the conformance suite can
    demand bit-identical answers across transports: the code path only
    differs below the frame layer.
    """
    from repro.service.transport import dial

    conn = dial(("127.0.0.1", port), timeout_s=30.0)
    try:
        asyncio.run(_serve(worker_id, registry_root, conn, config))
    finally:
        conn.close()


class _ReplySender:
    """Coalesces replies produced in one loop iteration into one pipe write.

    A worker micro-batch completes tens of ``_handle`` tasks back to back
    on the same event-loop pass; sending each reply as its own frame costs
    a pipe write *and* a coordinator reader wake-up apiece.  ``send``
    buffers and schedules one ``call_soon`` flush — everything buffered by
    the time the loop drains its ready queue leaves as a single
    :class:`~repro.service.ipc.ReplyBatch` frame (a lone message goes bare,
    so the single-reply latency path is untouched).  Loop thread only.
    """

    def __init__(self, conn: Connection) -> None:
        self._conn = conn
        self._buf: list = []
        self._scheduled = False

    def send(self, msg: object) -> None:
        self._buf.append(msg)
        if not self._scheduled:
            self._scheduled = True
            asyncio.get_running_loop().call_soon(self.flush)

    def flush(self) -> None:
        self._scheduled = False
        if not self._buf:
            return
        batch, self._buf = self._buf, []
        _send(self._conn, batch[0] if len(batch) == 1 else ReplyBatch(tuple(batch)))


async def _serve(
    worker_id: int, registry_root: str, conn: Connection, config: WorkerConfig
) -> None:
    registry = ModelRegistry(registry_root)
    service = TuningService.from_worker_config(registry, config)
    # traced requests' spans carry this process's identity; the spans ride
    # RankReply.spans back to the coordinator's recorder (same-host
    # monotonic clocks, so they compose with coordinator timestamps)
    service.trace_process = f"worker-{worker_id}"
    ring: "ScoreSlabRing | None" = None
    if config.slab_name:
        try:
            ring = ScoreSlabRing.attach(
                config.slab_name, config.slab_slots, config.slab_slot_bytes
            )
        except Exception:
            # the segment is gone or the platform refused the mapping:
            # every score array pickles instead — slower, never wrong
            ring = None
    sender = _ReplySender(conn)
    if config.feedback_every > 0:
        service.add_response_hook(
            _feedback_streamer(service, sender, ring, worker_id, config)
        )
    loop = asyncio.get_running_loop()
    inbox: "asyncio.Queue[object]" = asyncio.Queue()
    #: inbound wire-health counters (reader thread writes, loop reads; a
    #: plain dict is safe under the GIL for these monotonic bumps)
    wire = {"frames_corrupt_total": 0, "frame_decode_bugs_total": 0}

    def read_pipe() -> None:
        """Blocking pipe reads, forwarded to the loop; EOF means shutdown."""
        while True:
            try:
                msg = recv_frame(conn)
            except (EOFError, OSError):
                msg = Shutdown()
            except TypeError:
                # a concurrent close() of the connection (worker_main's
                # cleanup) surfaces as TypeError from the raw read; it
                # carries the same meaning as EOF
                msg = Shutdown()
            except CorruptFrameError as exc:
                # the frame is lost either way; what we *count* differs —
                # garbage bytes are wire corruption, a payload whose own
                # reconstruction raised is a bug worth surfacing
                key = (
                    "frame_decode_bugs_total"
                    if exc.genuine_bug
                    else "frames_corrupt_total"
                )
                wire[key] += 1
                continue
            loop.call_soon_threadsafe(inbox.put_nowait, msg)
            if isinstance(msg, Shutdown):
                return

    reader = threading.Thread(
        target=read_pipe, name=f"cluster-worker-{worker_id}-pipe", daemon=True
    )
    reader.start()

    chaos = ChaosState(config.chaos) if config.chaos is not None else None
    heartbeat: "asyncio.Task | None" = None
    if config.heartbeat_interval_s > 0:
        heartbeat = asyncio.create_task(
            _heartbeat_loop(conn, worker_id, config.heartbeat_interval_s)
        )

    inflight: set[asyncio.Task] = set()
    async with service:
        while True:
            msg = await inbox.get()
            if isinstance(msg, Shutdown):
                break
            if isinstance(msg, Ping):
                # answered inline from the loop, bypassing the batcher: a
                # pong proves exactly what the coordinator's probe asks —
                # the loop schedules — and must not wait for co-travelers
                _send(conn, Pong(req_id=msg.req_id, worker_id=worker_id))
                continue
            if isinstance(msg, StatsRequest):
                _send(
                    conn,
                    StatsReply(
                        req_id=msg.req_id,
                        worker_id=worker_id,
                        stats=_stats_with_chaos(service, chaos, ring, wire),
                        latency_window=service.telemetry.window(),
                    ),
                )
                continue
            if not isinstance(msg, RankRequest):
                # unknown frame (a newer coordinator, or garbage that
                # happened to unpickle): losing it must not lose the worker
                continue
            task = asyncio.create_task(
                _handle(service, conn, sender, ring, msg, worker_id, chaos)
            )
            inflight.add(task)
            task.add_done_callback(inflight.discard)
        # drain: every accepted request is answered before the process exits,
        # so a clean stop never strands a parent-side future
        if heartbeat is not None:
            heartbeat.cancel()
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
    # anything the last tasks buffered after their final await: one last
    # explicit flush, since the scheduled call_soon may never run again
    sender.flush()


def _feedback_streamer(
    service: TuningService,
    sender: _ReplySender,
    ring: "ScoreSlabRing | None",
    worker_id: int,
    config: WorkerConfig,
):
    """A response hook shipping every Nth answer back as a FeedbackRecord.

    Hooks fire synchronously on the event loop — the same thread every
    reply is sent from — so records coalesce into the same
    :class:`~repro.service.ipc.ReplyBatch` frames as the replies they ride
    with.  Preset requests (the service's own shared candidate list)
    travel as ``candidates=None``; the coordinator regenerates the
    identical list from its memo.  Scores park in the slab ring when a
    slot is free (the coordinator copies them out and releases before
    fanning the record to listeners) and pickle otherwise.
    """
    state = {"count": 0}

    def stream(instance, candidates, response) -> None:
        n = state["count"]
        state["count"] = n + 1
        if n % config.feedback_every:
            return
        wire_candidates = (
            None
            if service.is_default_set(instance.dims, candidates)
            else list(candidates)
        )
        scores = np.asarray(response.scores)
        payload = scores
        if ring is not None:
            ref = ring.write(scores)
            if ref is not None:
                payload = ref
        sender.send(
            FeedbackRecord(
                instance=instance,
                candidates=wire_candidates,
                scores=payload,
                model_version=response.model_version,
                worker_id=worker_id,
            )
        )

    return stream


async def _heartbeat_loop(conn: Connection, worker_id: int, interval_s: float) -> None:
    """Beat until cancelled.  Runs on the loop, so a blocked loop — a slow
    loris, a wedged batch — silences the beat, which is the signal."""
    loop = asyncio.get_running_loop()
    seq = 0
    while True:
        _send(conn, Heartbeat(worker_id=worker_id, seq=seq, sent_at=loop.time()))
        seq += 1
        await asyncio.sleep(interval_s)


def _stats_with_chaos(
    service: TuningService,
    chaos: "ChaosState | None",
    ring: "ScoreSlabRing | None" = None,
    wire: "dict | None" = None,
) -> dict:
    stats = service.stats()
    # registry corruption containment events, surfaced per worker so the
    # coordinator's merged stats can sum them cluster-wide
    stats["registry_corruption_detected_total"] = service.registry.corruption_detected
    stats["registry_corruption_fallbacks_total"] = service.registry.corruption_fallbacks
    if ring is not None:
        stats.update(ring.stats())
    if wire is not None:
        stats.update(wire)
    if chaos is not None:
        stats["chaos"] = chaos.snapshot()
    return stats


async def _handle(
    service: TuningService,
    conn: Connection,
    sender: _ReplySender,
    ring: "ScoreSlabRing | None",
    req: RankRequest,
    worker_id: int,
    chaos: "ChaosState | None" = None,
) -> None:
    ordinal = 0
    if chaos is not None:
        ordinal = chaos.next_request()
        loris_s, latency_s = chaos.pre_delay(ordinal)
        # the loris blocks the whole loop (heartbeats included) — a hung
        # worker; plain latency yields, so the worker stays responsive
        chaos.block(loris_s)
        if latency_s:
            await asyncio.sleep(latency_s)
    try:
        response = await service.rank(
            req.instance,
            candidates=req.candidates,
            model=req.model_ref,
            top_k=req.top_k,
            trace=req.trace,
        )
        err: "Exception | None" = None
    except Exception as exc:
        response, err = None, exc
    if chaos is not None:
        # the reply's fate is decided *before* any slab write: a dropped
        # or corrupted reply whose scores already claimed a slot would
        # leak it forever — the coordinator never sees the ref to release
        fate = chaos.reply_fate(ordinal)
        if fate == "drop":
            return
        if fate == "corrupt":
            send_corrupt_frame(conn)
            return
    if err is not None:
        sender.send(
            ErrorReply(req_id=req.req_id, error=picklable_error(err), worker_id=worker_id)
        )
        return
    # prefer index form: positions into the request's own candidate order,
    # which the coordinator rehydrates from the list it already holds —
    # int32 indices instead of re-pickled candidate objects
    order = response.order
    if order is not None:
        ranked = None
        idx = order[: req.top_k] if req.top_k is not None else order
        ranked_idx = np.ascontiguousarray(idx, dtype=np.int32)
    else:  # pragma: no cover - defensive: a response without an order
        ranked = list(response.ranked)
        ranked_idx = None
    scores: "object | None" = None
    if req.include_scores and response.scores is not None:
        scores = response.scores
        if ring is not None:
            ref = ring.write(response.scores)
            if ref is not None:
                scores = ref
    sender.send(
        RankReply(
            req_id=req.req_id,
            ranked=ranked,
            scores=scores,
            model_version=response.model_version,
            cached=response.cached,
            service_latency_s=response.latency_s,
            worker_id=worker_id,
            spans=response.spans,
            ranked_idx=ranked_idx,
        )
    )


def _send(conn: Connection, reply: object) -> None:
    try:
        conn.send(reply)
    except (BrokenPipeError, OSError):
        # the parent is gone; nothing useful left to do with this reply —
        # the dispatch loop will see EOF and shut the worker down
        pass
