"""The traced per-layer ladder (``run.py --trace 1``).

The same seeded streams as the untraced run, fed through each layer's
public entry point in turn — cost model, training, encode, scoring,
in-process autotuner, in-process ``TuningService``, ``ServiceCluster`` over
pipes and over sockets, registry publish/swap — so the cost each layer
adds over the one below it is a number.  Spans are recorded by this file
around the calls (nothing inside ``src/`` is instrumented); spans of one
request share its index in the stream as request id, live in memory until
the run ends, and are then written to ``.bench_out/``.

The closed passes (autotuner, service, cluster, socket) run the stream
without swaps, so their ratios compare like with like and a few-percent
tracing overhead is not swamped by swap stalls; swap-publish's swaps run in
the open-loop slice, and the registry probes time publish and stall.

:data:`LADDER` is the map from each per-layer metric to the end-to-end
metric it should move and the workload it should move it on.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: metric -> (unit, better, end-to-end metric it should move, on which workload)
LADDER: "dict[str, tuple[str, str, str, str]]" = {
    "machine.measure_batch_us_per_row": (
        "us", "lower", "setup_s", "all three, most on swap-publish"),
    "autotune.build_s": ("s", "lower", "setup_s", "all three, most on swap-publish"),
    "learn.fit_s": ("s", "lower", "setup_s", "all three, most on swap-publish"),
    "features.encode_ms_per_request": (
        "ms", "lower",
        "latency_p50_ms and throughput_rps / latency_p99_ms via the swap stall / ~nothing",
        "cold-distinct / swap-publish / hot-repeat",
    ),
    "features.encode_mb_per_request": (
        "MB", "lower", "peak_rss_mb", "cold-distinct, swap-publish"),
    "learn.score_us_per_row": ("us", "lower", "latency_p50_ms", "cold-distinct"),
    "autotune.rank_ms_per_request": ("ms", "lower", "latency_p50_ms", "cold-distinct"),
    "service.rank_ms_per_request": ("ms", "lower", "throughput_rps", "hot-repeat"),
    "service.over_autotune": ("ratio", "lower", "throughput_rps", "hot-repeat"),
    "service.cache_hit_rate": ("share", "higher", "throughput_rps", "hot-repeat"),
    "service.mean_batch_size": ("count", "higher", "throughput_rps", "hot-repeat"),
    "service.scored_rows": ("count", "lower", "throughput_rps", "hot-repeat"),
    "cluster.rank_ms_per_request": (
        "ms", "lower", "throughput_rps and latency_p50_ms", "hot-repeat"),
    "cluster.over_service": (
        "ratio", "lower", "throughput_rps and latency_p50_ms", "hot-repeat"),
    "cluster.encode_cache_hit_rate": (
        "share", "higher", "latency_p99_ms and peak_rss_mb", "swap-publish"),
    "cluster.retried_total": ("count", "lower", "failed_share", "all three"),
    "cluster.degraded_total": ("count", "lower", "failed_share", "all three"),
    "registry.publish_ms": ("ms", "lower", "latency_p99_ms", "swap-publish"),
    "registry.swap_stall_ms": ("ms", "lower", "latency_p99_ms", "swap-publish"),
    "transport.socket_over_pipe": (
        "ratio", "lower", "none: the baseline for transport work", "no gated workload"),
    "loadgen.late_p99_ms": ("ms", "lower", "latency_p99_ms", "all three"),
    "loadgen.latency_p90_ms": ("ms", "lower", "itself: the open-loop tail", "all three"),
    "loadgen.latency_p99_ms": ("ms", "lower", "itself: the open-loop tail", "all three"),
    "loadgen.failed_share": ("share", "lower", "itself: 0 on a healthy run", "all three"),
    "trace.overhead_share": (
        "share", "lower", "none: traced minus untraced pipe pass", "all three"),
}

#: spans are written here when the run ends
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"
#: share of ``--seconds`` of closed-loop requests each cluster/service pass sends
LADDER_SHARE = 0.1
#: share of ``--seconds`` spent in the open-loop lateness slice
OPEN_SHARE = 0.2
#: distinct requests ranked by the bare autotuner
AUTOTUNE_SAMPLE = 8
#: publish + tag moves timed for the swap stall
SWAP_PROBES = 3
#: cold answers checked against the oracle in a traced run
ORACLE_SAMPLE = 8
#: alternating untraced/traced chunks of the two cluster passes
OVERHEAD_CHUNKS = 10


@dataclass
class Span:
    span_id: int
    parent: "int | None"
    name: str
    req: "int | None"
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans with parent links from a per-thread call stack.

    Only the calling thread opens stack spans; completions observed on
    other threads are added afterwards with :meth:`add`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, req: "int | None" = None):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, req, start, end, attrs))

    def add(self, name: str, req: "int | None", start: float, end: float) -> None:
        self.spans.append(Span(next(self._ids), None, name, req, start, end))

    @contextmanager
    def wrapped(self, owner, attr: str, name: str, measure=None):
        """Record a span around every call of ``owner.attr`` while open."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = original(*args, **kwargs)
                if measure is not None:
                    attrs.update(measure(result))
                return result

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> "dict[str, tuple[int, float, float]]":
        """name -> (count, total seconds, self seconds: minus direct children)."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.duration
        out: dict[str, list] = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += s.duration - children.get(s.span_id, 0.0)
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _rows(result) -> dict:
    return {"rows": len(result)}


def _matrix(result) -> dict:
    rows, cols = result.shape
    return {"rows": rows, "mb": rows * cols * result.itemsize / 1e6}


def _median_ms(spans: "list[Span]") -> float:
    return statistics.median(s.duration for s in spans) * 1e3


def _sum_attr(spans: "list[Span]", key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans)


def _counter_delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def _hit_rate(after: dict, before: dict, prefix: str) -> float:
    hits = _counter_delta(after, before, f"{prefix}_hits")
    misses = _counter_delta(after, before, f"{prefix}_misses")
    return hits / (hits + misses) if hits + misses else 0.0


async def _serve_in_process(registry, config, prime, stream, window, tracer):
    """One worker's ``TuningService`` in this process, same stream and window."""
    from repro.service import TuningService
    from loadgen import TOP_K

    service = TuningService.from_worker_config(registry, config)
    async with service:
        await asyncio.gather(*(service.rank(q, top_k=TOP_K) for q in prime))
        before = service.stats()
        gate = asyncio.Semaphore(window)

        async def one(i, q):
            async with gate:
                start = time.perf_counter()
                await service.rank(q, top_k=TOP_K)
                tracer.add("service.rank", i, start, time.perf_counter())

        start = time.perf_counter()
        await asyncio.gather(*(one(i, q) for i, q in enumerate(stream)))
        return (start, time.perf_counter()), before, service.stats()


def _batched(before: dict, after: dict) -> float:
    """Requests that went through batches between two service snapshots."""
    return (
        after["mean_batch_size"] * after["batches_total"]
        - before["mean_batch_size"] * before["batches_total"]
    )


def _first_answer_after_swap(cluster, probe, window, version, tagged_at, outcomes) -> float:
    """Seconds from the tag move to the first answer carrying ``version``."""
    import loadgen

    for _ in range(4):
        sent = loadgen.closed_loop(cluster, probe, window)
        outcomes += sent
        carried = [o.done for o in sent if o.version == version]
        if carried:
            return min(carried) - tagged_at
    raise RuntimeError(f"no answer carried {version} after prod moved to it")


def run_ladder(spec, seed: int, seconds: float, scratch: str) -> dict:
    """One traced run: every per-layer metric of :data:`LADDER`."""
    from repro.autotune.autotuner import OrdinalAutotuner
    from repro.autotune.training import TrainingSetBuilder
    from repro.features.encoder import FeatureEncoder
    from repro.learn.ranksvm import RankSVM
    from repro.machine.executor import SimulatedMachine
    from repro.service import ServiceCluster
    from repro.service.shm import leaked_segments
    from repro.stencil.execution import instance_hash
    from repro.tuning.presets import preset_candidates

    import loadgen
    from oracle import Oracle
    from serving import Swapper, set_up, start_cluster, train_version
    from workloads import HOT_POOL, make_streams

    streams = make_streams(spec, seed, seconds)
    n = max(spec.window, round(spec.nominal_rps * LADDER_SHARE * seconds))
    stream_a = streams.closed[:n]
    m = max(1, round(spec.rate_rps * OPEN_SHARE * seconds))
    tracer = Tracer()

    # 1. set-up, with the training calls traced
    with tracer.wrapped(TrainingSetBuilder, "build", "autotune.build"), tracer.wrapped(
        SimulatedMachine, "measure_batch", "machine.measure_batch", _rows
    ), tracer.wrapped(FeatureEncoder, "encode_many", "features.encode_many", _matrix), (
        tracer.wrapped(RankSVM, "fit", "learn.fit")
    ), tracer.span("setup"):
        served = set_up(spec, streams, scratch)
    cluster, registry = served.cluster, served.registry
    socket_cluster = None
    try:
        # 2. the bare autotuner, one request per fused pass
        tuner = OrdinalAutotuner()
        tuner.model = registry.load("prod", tuner.fingerprint())
        presets = {d: preset_candidates(d) for d in (2, 3)}
        first_seen: dict[int, int] = {}
        for i, q in enumerate(stream_a):
            first_seen.setdefault(instance_hash(q), i)
        sample = sorted(first_seen.values())[:AUTOTUNE_SAMPLE]
        with tracer.wrapped(FeatureEncoder, "encode_many", "features.encode_many", _matrix), (
            tracer.wrapped(RankSVM, "decision_function", "learn.decision_function", _rows)
        ):
            for i in sample:
                q = stream_a[i]
                with tracer.span("autotune.rank_many", req=i):
                    tuner.rank_many([(q, presets[q.dims])])
            # 3. one worker's service in this process, on the same stream
            prime = streams.warm[: spec.warm_burst] if spec.distinct else list(HOT_POOL)
            with tracer.span("service.pass"):
                (s_start, s_end), s_before, s_after = asyncio.run(
                    _serve_in_process(
                        registry, cluster.config, prime, stream_a, spec.window, tracer
                    )
                )
        service_wall = s_end - s_start
        encodes = [s for s in tracer.named("features.encode_many") if s_start <= s.start <= s_end]

        # 4. the cluster over pipes: stream_a + stream_b in chunks that
        # alternate untraced and traced, so drift cannot pose as overhead
        c_before = cluster.stats()["cluster"]
        walls = {False: 0.0, True: 0.0}
        out_a, out_b = [], []
        chunk = max(spec.window, n // (OVERHEAD_CHUNKS // 2))
        for k, first in enumerate(range(0, 2 * n, chunk)):
            traced = k % 2 == 1
            part = streams.closed[first : min(first + chunk, 2 * n)]
            start = time.perf_counter()
            if traced:
                with tracer.wrapped(ServiceCluster, "submit", "cluster.submit"):
                    done = loadgen.closed_loop(cluster, part, spec.window)
                for i, o in enumerate(done):
                    tracer.add("cluster.request", first + i, o.sent, o.done)
            else:
                done = loadgen.closed_loop(cluster, part, spec.window)
            walls[traced] += time.perf_counter() - start
            (out_b if traced else out_a).extend(done)
        pipe_ms = walls[False] / len(out_a) * 1e3

        # 5. the open-loop slice: generator lateness and the tail
        opened = loadgen.open_loop(
            cluster, streams.open[:m], streams.due[:m], Swapper(served, spec.swap_every)
        )
        c_after = cluster.stats()["cluster"]

        # 6. registry: publish a fresh version, move prod, time the stall
        probed = []
        for k in range(SWAP_PROBES):
            model = train_version(served.corpus, 1000 + k)
            with tracer.span("registry.publish"):
                version = registry.publish(model, served.fingerprint)
            registry.tag("prod", version)
            tagged_at = time.perf_counter()
            stall = _first_answer_after_swap(
                cluster, stream_a[: spec.window], spec.window, version, tagged_at, probed
            )
            tracer.add("registry.swap_stall", None, tagged_at, tagged_at + stall)

        # 7. the same pass over the socket transport
        socket_cluster = start_cluster(spec, streams, str(registry.root), transport="socket")
        start = time.perf_counter()
        out_s = loadgen.closed_loop(socket_cluster, stream_a, spec.window)
        socket_wall = time.perf_counter() - start
    finally:
        cluster.stop()
        if socket_cluster is not None:
            socket_cluster.stop()
    leaked = leaked_segments(f"rsl-{os.getpid()}-")

    outcomes = out_a + out_b + opened + probed + out_s
    if spec.oracle_sample:
        checked = out_a[:ORACLE_SAMPLE]
    else:
        checked = outcomes
    mismatches, _ = Oracle(registry).check(checked)
    failed = sum(not o.ok for o in outcomes) + mismatches + len(leaked)

    machine = tracer.named("machine.measure_batch")
    fits = tracer.named("learn.fit")
    builds = tracer.named("autotune.build")
    scores = tracer.named("learn.decision_function")
    service_ms = service_wall / n * 1e3
    autotune_ms = statistics.mean(s.duration for s in tracer.named("autotune.rank_many")) * 1e3
    values = {
        "machine.measure_batch_us_per_row": sum(s.duration for s in machine)
        / _sum_attr(machine, "rows") * 1e6,
        "autotune.build_s": sum(s.duration for s in builds),
        "learn.fit_s": sum(s.duration for s in fits),
        "features.encode_ms_per_request": sum(s.duration for s in encodes) / n * 1e3,
        "features.encode_mb_per_request": _sum_attr(encodes, "mb") / n,
        "learn.score_us_per_row": sum(s.duration for s in scores)
        / _sum_attr(scores, "rows") * 1e6,
        "autotune.rank_ms_per_request": autotune_ms,
        "service.rank_ms_per_request": service_ms,
        "service.over_autotune": service_ms / autotune_ms,
        "service.cache_hit_rate": _hit_rate(s_after, s_before, "cache"),
        "service.mean_batch_size": _batched(s_before, s_after)
        / max(1, _counter_delta(s_after, s_before, "batches_total")),
        "service.scored_rows": _counter_delta(s_after, s_before, "scored_candidates_total"),
        "cluster.rank_ms_per_request": pipe_ms,
        "cluster.over_service": pipe_ms / service_ms,
        "cluster.encode_cache_hit_rate": _hit_rate(c_after, c_before, "encode_cache"),
        "cluster.retried_total": _counter_delta(c_after, c_before, "retries_scheduled_total"),
        "cluster.degraded_total": _counter_delta(c_after, c_before, "degraded_total"),
        "registry.publish_ms": _median_ms(tracer.named("registry.publish")),
        "registry.swap_stall_ms": _median_ms(tracer.named("registry.swap_stall")),
        "transport.socket_over_pipe": socket_wall / n * 1e3 / pipe_ms,
        "loadgen.late_p99_ms": loadgen.lateness_ms(opened, 99),
        "loadgen.latency_p90_ms": loadgen.latency_ms(opened, 90),
        "loadgen.latency_p99_ms": loadgen.latency_ms(opened, 99),
        "loadgen.failed_share": failed / len(outcomes),
        "trace.overhead_share": walls[True] / len(out_b) * 1e3 / pipe_ms - 1.0,
    }

    print(f"{spec.name}: per-layer spans (n={n} requests per pass, seed {seed})")
    print(f"  {'span':28s} {'count':>7s} {'total_ms':>11s} {'self_ms':>11s}")
    for name, (count, total, own) in sorted(tracer.self_times().items()):
        print(f"  {name:28s} {count:7d} {total * 1e3:11.2f} {own * 1e3:11.2f}")
    print(
        "  marginal ratios: service.over_autotune = service.rank_ms_per_request / "
        "autotune.rank_ms_per_request; cluster.over_service = "
        "cluster.rank_ms_per_request / service.rank_ms_per_request; "
        "transport.socket_over_pipe = socket / untraced pipe wall time per request; "
        "trace.overhead_share = traced / untraced pipe chunk wall time per request - 1"
    )
    for name, value in values.items():
        unit, _, moves, where = LADDER[name]
        print(f"  {name:34s} {value:12.4f} {unit:6s} -> {moves} on {where}")
    print(
        f"  oracle: {len(checked)} checked, {mismatches} mismatches; "
        f"leaked segments {len(leaked)}; spans {len(tracer.spans)}"
    )
    tracer.dump(OUT_DIR / f"spans-{spec.name}-{seed}.jsonl")
    return {
        "correct": mismatches == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": LADDER[k][0]} for k, v in values.items()},
    }
