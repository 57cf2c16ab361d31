"""The asynchronous tuning service front-end.

``TuningService`` turns the trained ranker into ranking-as-a-service: an
asyncio request loop accepting ``(instance, candidate set, model ref)``
queries and answering with the model's best-first ordering.  Three layers
make it fast under load:

1. **Micro-batching** — concurrent requests are coalesced by a
   work-conserving :class:`~repro.service.batching.MicroBatcher`: a batch
   is whatever is queued when the loop is free, taken with no timer, so a
   lone request never waits for company.  One batch resolves its
   model refs and cache lookups together, deduplicates identical queries,
   and scores each remaining query from its factored feature rows
   (``FeatureEncoder.factor`` + ``decision_function``) — the ``(n, 19)``
   tuning block, never the full feature matrix.
2. **Ranking cache** — answers are memoized per (instance fingerprint,
   candidate-set hash, model version); repeat queries return without
   re-scoring (:class:`~repro.service.cache.RankingCache`).
3. **Versioned models** — requests may name a registry version or tag;
   tags are re-resolved on every batch, so publishing a new version and
   moving a tag **hot-swaps** the model with no restart and no dropped
   requests.  Loaded models are validated against the service encoder's
   fingerprint and memoized per version.

Answers are bit-identical to :meth:`OrdinalAutotuner.rank_candidates` for
the same model version: the same factored rows, the same
``decision_function`` call, the same stable argsort tie-breaking.  Each
query is scored on its own, so its answer does not depend on what else
shared its micro-batch.

Scoring runs inline on the event loop — about a millisecond of NumPy per
preset-sized query, so handing it to a thread pool would cost more than it
saves.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.features.encoder import FeatureEncoder, raw_tunings
from repro.obs.trace import Span, TraceContext
from repro.learn.ranksvm import RankSVM
from repro.service.batching import MicroBatcher
from repro.service.cache import (
    CachedRanking,
    InternedCandidates,
    RankingCache,
    candidate_set_hash,
)
from repro.service.registry import LATEST, ModelRegistry
from repro.service.telemetry import ServiceTelemetry
from repro.stencil.execution import instance_hash
from repro.stencil.instance import StencilInstance
from repro.tuning.presets import preset_candidates
from repro.tuning.vector import TuningVector

__all__ = ["RankingResponse", "TuningService"]


@dataclass(frozen=True)
class RankingResponse:
    """One answered ranking query."""

    #: candidates best-first, exactly as ``rank_candidates`` would order them
    #: (truncated to ``top_k`` entries when the request asked for top-k only)
    ranked: list[TuningVector]
    #: model scores aligned with the *request's* candidate order
    scores: np.ndarray
    #: the concrete model version that produced the answer
    model_version: str
    #: whether the answer came from the ranking cache
    cached: bool
    #: queue-to-answer latency in seconds
    latency_s: float
    #: stage spans for a traced request (None when the request carried no
    #: trace context — the no-op fast path allocates nothing)
    spans: "tuple[Span, ...] | None" = None
    #: full best-first order as positions into the request's candidate
    #: list (read-only, shared with the cache entry).  This is the compact
    #: form cluster workers ship instead of re-pickling candidate objects.
    order: "np.ndarray | None" = None

    @property
    def best(self) -> TuningVector:
        """The top-ranked configuration."""
        return self.ranked[0]


@dataclass
class _Pending:
    """A queued request plus its completion future."""

    instance: StencilInstance
    candidates: Sequence[TuningVector]
    model_ref: str
    future: "asyncio.Future[RankingResponse]"
    enqueued_at: float
    version: str = ""
    cache_key: "tuple[int, int, str] | None" = field(default=None, repr=False)
    #: precomputed candidate-set hash (service-owned default sets and
    #: client-interned sets skip per-request digesting entirely)
    candidates_hash: "int | None" = field(default=None, repr=False)
    #: precomputed raw ``(n, 5)`` tunings, same sources (None: plain list,
    #: built when the request is scored)
    raw: "np.ndarray | None" = field(default=None, repr=False)
    #: answer with only the k best candidates (None = full ranking)
    top_k: "int | None" = None
    #: trace identity when sampled (None: untraced, no span work at all)
    trace: "TraceContext | None" = None
    #: ``(start, factored, scored)`` timestamps stamped on every traced
    #: request that was scored
    t_scored: "tuple[float, float, float] | None" = field(default=None, repr=False)


class TuningService:
    """Async ranking service over a model registry.

    Usage::

        service = TuningService(registry)
        async with service:
            response = await service.rank(instance)
            best = response.best
    """

    def __init__(
        self,
        registry: ModelRegistry,
        encoder: "FeatureEncoder | None" = None,
        default_model: str = LATEST,
        max_batch_size: int = 64,
        cache_entries: int = 4096,
        max_cached_models: int = 8,
    ) -> None:
        if max_cached_models < 1:
            raise ValueError(f"max_cached_models must be >= 1, got {max_cached_models}")
        self.registry = registry
        self.encoder = encoder or FeatureEncoder()
        self.default_model = default_model
        self.cache = RankingCache(cache_entries)
        self.telemetry = ServiceTelemetry()
        self.max_cached_models = max_cached_models
        #: LRU of loaded models — a long-lived worker hot-swaps through
        #: many promotions, and retired versions must not accumulate
        self._models: OrderedDict[str, RankSVM] = OrderedDict()
        #: dims -> (shared preset list, its content hash, its raw tunings),
        #: computed once
        self._default_sets: dict[
            int, tuple[list[TuningVector], int, np.ndarray]
        ] = {}
        #: observers called with (instance, candidates, response) per answer
        self._response_hooks: list[
            Callable[[StencilInstance, Sequence[TuningVector], RankingResponse], None]
        ] = []
        #: exceptions swallowed from response hooks (serving never breaks)
        self.hook_errors = 0
        self.last_hook_error: "Exception | None" = None
        #: span ``process`` label for traced requests (the cluster worker
        #: overrides this with its worker identity)
        self.trace_process = "service"
        self._batcher = MicroBatcher(self._process_batch, max_batch_size=max_batch_size)

    @classmethod
    def from_worker_config(cls, registry: ModelRegistry, config) -> "TuningService":
        """Build a service from a cluster :class:`~repro.service.worker.WorkerConfig`.

        Every worker entry point — the forked pipe worker, the loopback
        socket worker, a remote worker host accepting a ``Hello`` — maps
        the coordinator's config to a service through this one
        constructor, so a new serving knob cannot silently apply to one
        transport and not another.
        """
        return cls(
            registry,
            default_model=config.default_model,
            max_batch_size=config.max_batch_size,
            cache_entries=config.cache_entries,
            max_cached_models=config.max_cached_models,
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Start accepting requests (idempotent)."""
        await self._batcher.start()

    async def stop(self) -> None:
        """Answer everything already queued, then stop."""
        await self._batcher.stop()

    async def __aenter__(self) -> "TuningService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        """Whether the request loop is accepting work."""
        return self._batcher.running

    # -- request API -----------------------------------------------------------

    async def rank(
        self,
        instance: StencilInstance,
        candidates: "Sequence[TuningVector] | InternedCandidates | None" = None,
        model: "str | None" = None,
        top_k: "int | None" = None,
        trace: "TraceContext | None" = None,
    ) -> RankingResponse:
        """Rank a candidate set for an instance (defaults: presets, default model).

        Concurrent callers are transparently micro-batched; the awaited
        response carries the ordering, scores, serving model version and
        whether the ranking cache answered.

        ``candidates`` may be a pre-interned set (see
        :func:`~repro.service.cache.intern_candidates`) so repeat clients
        pay the content hash once instead of per request.  ``top_k``
        requests only the k best candidates in ``response.ranked`` — the
        scoring work is identical, but a preset-sized best-first list is
        never materialized; scores stay complete and aligned with the
        request's candidate order.  Top-k and full-ranking requests share
        cache entries (the key ignores ``top_k``; the entry stores the full
        order).

        ``trace`` attaches a :class:`~repro.obs.trace.TraceContext`: the
        answer's ``response.spans`` then carries the request's stage spans
        (queue wait, encode/score, finish — or the cache path).
        Untraced requests (the default) do no span work whatsoever.
        """
        if not self.running:
            raise RuntimeError("TuningService is not running; call start() first")
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if candidates is None:
            candidates, candidates_hash, raw = self._default_candidates(instance.dims)
        elif isinstance(candidates, InternedCandidates):
            candidates, candidates_hash, raw = (
                candidates.candidates, candidates.content_hash, candidates.raw
            )
        else:
            candidates, candidates_hash, raw = list(candidates), None, None
        self.telemetry.record_request()
        loop = asyncio.get_running_loop()
        pending = _Pending(
            instance=instance,
            candidates=candidates,
            model_ref=model or self.default_model,
            future=loop.create_future(),
            enqueued_at=loop.time(),
            candidates_hash=candidates_hash,
            raw=raw,
            top_k=top_k,
            trace=trace,
        )
        await self._batcher.submit(pending)
        return await pending.future

    # -- feedback hooks --------------------------------------------------------

    def add_response_hook(
        self,
        hook: Callable[
            [StencilInstance, Sequence[TuningVector], RankingResponse], None
        ],
    ) -> None:
        """Register an observer called for every *successful* answer.

        Hooks receive ``(instance, candidates, response)`` — candidates in
        the request's order, aligned with ``response.scores`` — and run
        synchronously on the serving loop, so they must be cheap (append to
        a buffer; measure later).  This is the attachment point for the
        continual-learning :class:`~repro.online.feedback.FeedbackCollector`.
        A raising hook is counted (``hook_errors``) and detached from the
        request path's outcome: serving never fails because observability
        did.
        """
        self._response_hooks.append(hook)

    def remove_response_hook(self, hook: Callable) -> None:
        """Unregister a previously added response hook (no-op if absent)."""
        try:
            self._response_hooks.remove(hook)
        except ValueError:
            pass

    def _notify_hooks(self, req: "_Pending", response: RankingResponse) -> None:
        for hook in self._response_hooks:
            try:
                hook(req.instance, req.candidates, response)
            except Exception as exc:
                self.hook_errors += 1
                self.last_hook_error = exc

    def _default_candidates(
        self, dims: int
    ) -> tuple[list[TuningVector], int, np.ndarray]:
        """The paper's preset set for ``dims``, its hash and raw tunings, memoized.

        The list is shared across requests (responses never mutate it), so
        default-candidate traffic pays neither preset regeneration, nor
        per-request content hashing, nor the per-candidate raw-array loop.
        """
        cached = self._default_sets.get(dims)
        if cached is None:
            presets = preset_candidates(dims)
            raw = raw_tunings(presets)
            raw.setflags(write=False)
            cached = (presets, candidate_set_hash(presets), raw)
            self._default_sets[dims] = cached
        return cached

    def is_default_set(self, dims: int, candidates: Sequence[TuningVector]) -> bool:
        """Whether ``candidates`` *is* this service's shared preset list.

        An identity check against the memo (never generating presets), so
        observers on the response-hook path — the cluster worker's feedback
        streamer — can tell "preset request" from "explicit set" in O(1)
        and keep preset-sized payloads off the wire.
        """
        cached = self._default_sets.get(dims)
        return cached is not None and candidates is cached[0]

    def set_default_model(self, ref: str) -> None:
        """Repoint the service default (tag or version) — a hot swap."""
        self.registry.resolve(ref)  # fail fast on unknown refs
        self.default_model = ref

    def stats(self) -> dict:
        """Telemetry + cache counters in one flat dict."""
        return {**self.telemetry.snapshot(), **self.cache.snapshot()}

    # -- batch processing ------------------------------------------------------

    def _process_batch(self, batch: Sequence[_Pending]) -> None:
        self.telemetry.record_batch(len(batch))
        try:
            misses = self._answer_from_cache(batch)
            by_version: dict[str, list[_Pending]] = {}
            for req in misses:
                by_version.setdefault(req.version, []).append(req)
            for version, reqs in by_version.items():
                self._score_group(version, reqs)
        except Exception as exc:  # defensive: never strand a future
            for req in batch:
                if not req.future.done():
                    self._fail(req, exc)

    def _answer_from_cache(self, batch: Sequence[_Pending]) -> list[_Pending]:
        """Resolve refs, serve cache hits; returns the requests left to score.

        Tag resolution happens here, once per request per batch, so a moved
        tag takes effect on the very next batch (hot swap) while every
        request inside one batch sees a consistent mapping.
        """
        resolved: dict[str, str] = {}
        misses: list[_Pending] = []
        for req in batch:
            try:
                if req.model_ref not in resolved:
                    resolved[req.model_ref] = self.registry.resolve(req.model_ref)
                req.version = resolved[req.model_ref]
                if req.candidates_hash is None:
                    req.candidates_hash = candidate_set_hash(req.candidates)
                req.cache_key = (
                    instance_hash(req.instance),
                    req.candidates_hash,
                    req.version,
                )
            except Exception as exc:  # unknown ref / malformed request:
                self._fail(req, exc)  # fail just this one
                continue
            entry = self.cache.get(req.cache_key)
            if entry is None:
                misses.append(req)
            else:
                self._answer(req, entry, cached=True)
        return misses

    def _score_group(self, version: str, reqs: list[_Pending]) -> None:
        """Score all requests of one model version, one query at a time.

        Identical queries that landed in the same micro-batch (same cache
        key) are deduplicated first: one representative is scored, the
        duplicates are answered from the just-cached entry.  Each
        representative is scored from its own factored rows, so a query
        that cannot be scored (e.g. a kernel radius beyond the encoder's
        ``max_radius``) fails alone.
        """
        unique: dict[tuple[int, int, str], list[_Pending]] = {}
        for req in reqs:
            unique.setdefault(req.cache_key, []).append(req)
        try:
            model = self._model(version)
        except Exception as exc:  # bad model: fail the whole version group
            for req in reqs:
                self._fail(req, exc)
            return
        for group in unique.values():
            rep = group[0]
            # time.monotonic() is the asyncio loop clock, so the stamps
            # compare directly against _Pending.enqueued_at
            t_start = time.monotonic()
            try:
                rows = self.encoder.factor(rep.instance, rep.candidates, rep.raw)
                t_factored = time.monotonic()
                scores = model.decision_function(rows)
                t_scored = time.monotonic()
            except Exception as exc:
                for req in group:
                    self._fail(req, exc)
                continue
            self.telemetry.record_scored(len(rows))
            for req in group:
                if req.trace is not None:
                    req.t_scored = (t_start, t_factored, t_scored)
            self._finish_group(version, group, scores)

    def _finish_group(
        self, version: str, group: list[_Pending], scores: np.ndarray
    ) -> None:
        """Cache and answer one scored unique query (plus its duplicates).

        The full best-first list is materialized into the entry only when
        some request in the group wants the full ranking; pure top-k
        groups leave it for a later full request to build lazily.
        """
        rep = group[0]
        entry = CachedRanking(
            order=np.argsort(-scores, kind="stable"),
            scores=np.asarray(scores),
            model_version=version,
        )
        if any(req.top_k is None for req in group):
            entry.materialize(rep.candidates)
        self.cache.put(rep.cache_key, entry)
        self._answer(rep, entry, cached=False)
        for dup in group[1:]:
            # route through get() so LRU recency and hit counters see it
            self._answer(dup, self.cache.get(dup.cache_key), cached=True)

    def _model(self, version: str) -> RankSVM:
        """The memoized model for a concrete version (fingerprint-checked).

        Memoization is LRU-bounded: when a version is evicted (a worker
        that has hot-swapped through many promotions), its ranking-cache
        entries go with it — they are only reachable by requests pinning
        that retired version, and keeping them would let every promotion
        permanently grow the worker's footprint.
        """
        model = self._models.get(version)
        if model is None:
            model = self.registry.load(
                version, expect_fingerprint=self.encoder.fingerprint()
            )
            self._models[version] = model
            while len(self._models) > self.max_cached_models:
                evicted, _ = self._models.popitem(last=False)
                self.cache.invalidate_version(evicted)
        else:
            self._models.move_to_end(version)
        return model

    # -- completion ------------------------------------------------------------

    def _latency(self, req: _Pending) -> float:
        return asyncio.get_running_loop().time() - req.enqueued_at

    def _build_spans(
        self, req: _Pending, cached: bool, now: float
    ) -> tuple[Span, ...]:
        """The traced request's stage spans (partitioning its wall time).

        A scored request gets queue → encode → score → finish, where
        ``encode`` is its own ``factor`` call and ``score`` its own
        ``decision_function`` (attrs carry its candidate rows).  A
        cache-path answer is all queue wait plus a zero-width ``cache``
        marker.
        """
        ctx = req.trace

        def span(name: str, start: float, end: float, attrs: "dict | None" = None) -> Span:
            return Span(
                trace_id=ctx.trace_id,
                name=name,
                start_s=start,
                duration_s=max(0.0, end - start),
                process=self.trace_process,
                req_id=ctx.req_id,
                attrs=attrs,
            )

        if req.t_scored is not None:
            t_start, t_factored, t_scored = req.t_scored
            rows = {"rows": len(req.candidates)}
            return (
                span("service-queue", req.enqueued_at, t_start),
                span("encode", t_start, t_factored, rows),
                span("score", t_factored, t_scored, rows),
                span("service-finish", t_scored, now),
            )
        return (
            span("service-queue", req.enqueued_at, now),
            span("cache", now, now, {"hit": bool(cached)}),
        )

    def _answer(self, req: _Pending, entry: CachedRanking, cached: bool) -> None:
        if req.future.done():  # cancelled by the caller
            return
        latency = self._latency(req)
        self.telemetry.record_completion(latency)
        if req.top_k is not None:
            # top-k mode: never build the full list for this request —
            # slice the memoized one if present, else pick from the order
            ranked = (
                entry.ranked[: req.top_k]
                if entry.ranked is not None
                else [req.candidates[i] for i in entry.order[: req.top_k].tolist()]
            )
        else:
            # full ranking: materialize into the entry once, share after
            ranked = list(entry.materialize(req.candidates))
        response = RankingResponse(
            ranked=ranked,
            scores=entry.scores,
            model_version=entry.model_version,
            cached=cached,
            latency_s=latency,
            spans=(
                self._build_spans(req, cached, req.enqueued_at + latency)
                if req.trace is not None
                else None
            ),
            order=entry.order,
        )
        req.future.set_result(response)
        if self._response_hooks:
            self._notify_hooks(req, response)

    def _fail(self, req: _Pending, exc: Exception) -> None:
        if req.future.done():  # cancelled by the caller
            return
        self.telemetry.record_completion(self._latency(req), failed=True)
        req.future.set_exception(exc)
