"""Closed-loop and open-loop load through ``ServiceCluster.submit``.

The load comes from the calling thread alone: requests are futures, and
each future's completion is stamped by the cluster thread that settles it,
so no load-generator thread can delay a timestamp.

* :func:`closed_loop` keeps a fixed window of requests outstanding and
  sends the next one only when one completes (callers that wait for their
  reply).
* :func:`open_loop` sends on a precomputed Poisson schedule regardless of
  replies (independent users).  Latency is measured from when a request
  was *due*, so a stall also charges the requests queued behind it, and
  the generator's own lateness is recorded per request.
* :func:`warm_up` runs closed-loop bursts until every worker has served
  and two consecutive bursts agree on throughput.
"""

from __future__ import annotations

import concurrent.futures as cf
import math
import queue
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.stencil.instance import StencilInstance

TOP_K = 8
#: per-request time budget: a hang becomes a timed-out failure, not a
#: stuck benchmark
DEADLINE_S = 30.0
#: warm-up bursts agree when their throughputs differ by less than this
SETTLE_TOL = 0.1


@dataclass
class Outcome:
    """One request's life: when it was due, sent and answered, and what."""

    instance: StencilInstance
    due: float
    sent: float
    done: float = math.nan
    version: "str | None" = None
    top: "tuple | None" = None
    error: "str | None" = None
    degraded: bool = False

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.error is None and not self.degraded


def _submit(
    cluster, outcome: Outcome, completed: "queue.SimpleQueue | None" = None
) -> "cf.Future | None":
    """Submit one request; its done callback stamps it and, in a closed
    loop, tells the load thread through ``completed``."""
    try:
        fut = cluster.submit(
            outcome.instance,
            top_k=TOP_K,
            include_scores=False,
            deadline_s=DEADLINE_S,
        )
    except Exception as exc:  # shed or refused at the front door
        outcome.error = repr(exc)
        outcome.done = time.perf_counter()
        return None

    def stamp(_fut: cf.Future, o: Outcome = outcome) -> None:
        o.done = time.perf_counter()
        if completed is not None:
            completed.put(None)

    fut.add_done_callback(stamp)
    return fut


def _collect(outcome: Outcome, fut: "cf.Future | None") -> None:
    """Read a settled future into its outcome (and free its slab slot)."""
    if fut is None:
        return
    try:
        response = fut.result(timeout=DEADLINE_S)
    except Exception as exc:
        outcome.error = repr(exc)
        return
    outcome.version = response.model_version
    outcome.top = tuple(response.ranked[:TOP_K])
    outcome.degraded = response.degraded
    response.release()


def closed_loop(
    cluster,
    instances: Sequence[StencilInstance],
    window: int,
    before_send: "Callable[[], None] | None" = None,
) -> list[Outcome]:
    """Send ``instances`` with ``window`` requests outstanding at all times.

    Completions arrive on a queue fed by the futures' done callbacks, so
    each one costs the load thread O(1), not a wait over the whole window.
    """
    outcomes: list[Outcome] = []
    futures: list["cf.Future | None"] = []
    completed: queue.SimpleQueue = queue.SimpleQueue()
    in_flight = 0
    it = iter(instances)

    def send(q: StencilInstance) -> None:
        nonlocal in_flight
        if before_send is not None:
            before_send()
        now = time.perf_counter()
        outcome = Outcome(q, due=now, sent=now)
        fut = _submit(cluster, outcome, completed)
        outcomes.append(outcome)
        futures.append(fut)
        in_flight += fut is not None

    for q in it:
        send(q)
        if in_flight >= window:
            break
    while in_flight:
        try:
            completed.get(timeout=DEADLINE_S)
        except queue.Empty:
            break  # nothing completes: the stragglers fail in _collect
        in_flight -= 1
        q = next(it, None)
        if q is not None:
            send(q)
    for outcome, fut in zip(outcomes, futures):
        _collect(outcome, fut)
    return outcomes


def open_loop(
    cluster,
    instances: Sequence[StencilInstance],
    due: np.ndarray,
    before_send: "Callable[[], None] | None" = None,
) -> list[Outcome]:
    """Send request ``i`` at ``start + due[i]`` whatever the replies."""
    outcomes: list[Outcome] = []
    futures: list["cf.Future | None"] = []
    start = time.perf_counter()
    for q, offset in zip(instances, due):
        target = start + float(offset)
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if before_send is not None:
            before_send()
        outcome = Outcome(q, due=target, sent=time.perf_counter())
        futures.append(_submit(cluster, outcome))
        outcomes.append(outcome)
    for outcome, fut in zip(outcomes, futures):
        _collect(outcome, fut)
    return outcomes


def latency_ms(outcomes: Sequence[Outcome], q: float) -> float:
    """Percentile ``q`` of the answered requests' latency, in ms."""
    return float(np.percentile([o.latency_s for o in outcomes if o.ok], q)) * 1e3


def lateness_ms(outcomes: Sequence[Outcome], q: float) -> float:
    """Percentile ``q`` of how late the generator sent each request, in ms."""
    return float(np.percentile([o.sent - o.due for o in outcomes], q)) * 1e3


def throughput_rps(outcomes: Sequence[Outcome]) -> float:
    """Completed requests per second from first send to last answer."""
    first = min(o.sent for o in outcomes)
    last = max(o.done for o in outcomes)
    return len(outcomes) / (last - first)


def warm_up(
    cluster,
    prime: Sequence[StencilInstance],
    bursts: Sequence[Sequence[StencilInstance]],
    window: int,
) -> None:
    """Prime, then burst until every worker served and throughput settled.

    ``prime`` is sent once (the instances whose caches a measured phase
    may rely on); then each burst runs closed-loop until two consecutive
    bursts agree within :data:`SETTLE_TOL` and every alive worker has
    answered at least one request, or the bursts run out.
    """
    if prime:
        closed_loop(cluster, prime, window)
    previous = None
    for burst in bursts:
        rps = throughput_rps(closed_loop(cluster, burst, window))
        settled = previous is not None and abs(rps - previous) < SETTLE_TOL * previous
        previous = rps
        if settled and _every_worker_served(cluster):
            break


def _every_worker_served(cluster) -> bool:
    workers = cluster.stats()["workers"]
    return len(workers) == len(cluster.alive_workers()) and all(
        s.get("completed_total", 0) > 0 for s in workers.values()
    )
