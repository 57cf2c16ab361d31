"""Seeded request streams for the three serving workloads.

Every stream is a pure function of ``(workload, seed, seconds)``: the same
arguments give the same instances in the same order with the same arrival
times.  The program under test only ever sees the generated instances.

* ``hot-repeat`` — a Zipf stream over the first 16 Fig. 4
  ``TEST_BENCHMARKS`` (popularity in suite order).  After warm-up nearly
  every request is a ranking-cache hit, so dispatch, transport, batching
  and the cache do the work and encode does almost none.
* ``cold-distinct`` — every request is a new instance from
  :class:`ColdGenerator`, so every cache misses and encode + scoring of
  the preset matrix dominate.
* ``swap-publish`` — the hot stream plus writes: before the first request
  of every measured slice (and every ``swap_every`` requests within one) a
  freshly trained version is published and ``prod`` moves to it,
  invalidating the version-keyed ranking cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stencil.execution import instance_hash
from repro.stencil.instance import StencilInstance
from repro.stencil.kernel import StencilKernel
from repro.stencil.shapes import TRAINING_SHAPES
from repro.stencil.suite import TEST_BENCHMARKS

#: the hot set: the established 16-instance Fig. 4 pool
HOT_POOL = tuple(TEST_BENCHMARKS[:16])
ZIPF_EXPONENT = 1.0

#: independent sub-streams of one workload seed
_STREAM_HOT_CLOSED, _STREAM_HOT_OPEN, _STREAM_HOT_WARM = 1, 2, 3
_STREAM_COLD, _STREAM_ARRIVALS, _STREAM_SAMPLE = 4, 5, 6


@dataclass(frozen=True)
class WorkloadSpec:
    """Fixed shape of one workload; the seed only fills it in."""

    name: str
    why: str
    #: open-loop Poisson rate (requests per second)
    rate_rps: float
    #: closed-loop outstanding-request window
    window: int
    #: nominal closed-loop capacity on the reference box; sizes the
    #: closed-loop phase as a fixed request count, so the work per run is
    #: fixed and only its duration depends on the program's speed
    nominal_rps: float
    #: warm-up burst size (closed loop, same window)
    warm_burst: int
    #: publish a fresh version every this many requests (0: never)
    swap_every: int = 0
    #: answers checked against the oracle (0: every answer)
    oracle_sample: int = 0
    #: every request a new instance (:class:`ColdGenerator`), else the
    #: Zipf stream over the hot pool
    distinct: bool = False


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "hot-repeat",
            "repeated Fig. 4 instances: ranking-cache hits, so dispatch, "
            "transport, batching and the cache dominate and encode does ~none",
            rate_rps=1000.0,
            window=32,
            nominal_rps=4500.0,
            warm_burst=400,
        ),
        WorkloadSpec(
            "cold-distinct",
            "every request a new instance: every cache misses, so "
            "encode_many and decision_function on the preset matrix dominate",
            rate_rps=8.0,
            window=4,
            nominal_rps=33.0,
            warm_burst=6,
            oracle_sample=48,
            distinct=True,
        ),
        WorkloadSpec(
            "swap-publish",
            "the hot stream plus a fresh model version published and tagged "
            "prod at the start of every measured slice: cache invalidation "
            "and re-encode after each swap",
            rate_rps=1000.0,
            window=32,
            nominal_rps=1500.0,
            warm_burst=400,
            swap_every=2000,
        ),
    )
}

#: share of ``--seconds`` spent in the closed loop; the rest is open loop
CLOSED_SHARE = 0.3
#: a run is measured in rounds of one closed-loop slice then one open-loop
#: slice, so a transient stall (host steal, a GC pause) lands in one round
#: and a median over rounds skips it.  A round holds at least ROUND_SAMPLES
#: open-loop requests; with fewer the run is one round.
MAX_ROUNDS = 10
ROUND_SAMPLES = 25


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def zipf_stream(seed: int, stream: int, n: int) -> list[StencilInstance]:
    """``n`` draws from the hot pool with Zipf popularity."""
    weights = 1.0 / np.arange(1, len(HOT_POOL) + 1) ** ZIPF_EXPONENT
    picks = _rng(seed, stream).choice(len(HOT_POOL), size=n, p=weights / weights.sum())
    return [HOT_POOL[int(i)] for i in picks]


class ColdGenerator:
    """Never-repeating instances: the four training families, radius 1-2,
    float/double, a fixed 3:1 3-D:2-D cadence, sizes drawn from the seed.

    Uniqueness is by :func:`instance_hash`, across every draw of one
    generator (warm-up included), so no cache can answer a measured
    request.
    """

    FAMILIES = tuple(sorted(TRAINING_SHAPES))

    def __init__(self, seed: int) -> None:
        self._rng = _rng(seed, _STREAM_COLD)
        self._seen: set[int] = set()
        self._count = 0

    def _draw(self) -> StencilInstance:
        dims = 2 if self._count % 4 == 3 else 3
        rng = self._rng
        family = self.FAMILIES[int(rng.integers(len(self.FAMILIES)))]
        radius = int(rng.integers(1, 3))
        dtype = ("float", "double")[int(rng.integers(2))]
        if dims == 3:
            size = tuple(int(s) for s in 16 * rng.integers(4, 33, size=3))
        else:
            size = (*(int(s) for s in 64 * rng.integers(4, 33, size=2)), 1)
        kernel = StencilKernel(
            f"{family}-cold-{dims}d-r{radius}-{dtype}",
            (TRAINING_SHAPES[family](dims, radius),),
            dtype=dtype,
            space_dims=dims,
        )
        return StencilInstance(kernel, size)

    def take(self, n: int) -> list[StencilInstance]:
        """The next ``n`` instances, none equal to any drawn before."""
        out: list[StencilInstance] = []
        while len(out) < n:
            q = self._draw()
            h = instance_hash(q)
            if h in self._seen:
                continue
            self._seen.add(h)
            self._count += 1
            out.append(q)
        return out


def _split(items, parts: int) -> list:
    bounds = [round(i * len(items) / parts) for i in range(parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass
class Round:
    closed: list[StencilInstance]
    open: list[StencilInstance]
    #: open-loop due times, seconds from the slice start
    due: np.ndarray


@dataclass
class Streams:
    """One run's inputs: warm-up, closed-loop and open-loop requests."""

    warm: list[StencilInstance]
    closed: list[StencilInstance]
    open: list[StencilInstance]
    #: open-loop due times, seconds from the phase start
    due: np.ndarray
    #: indices (into the measured requests in send order) the oracle checks
    checked: np.ndarray

    def rounds(self) -> list[Round]:
        """The measured requests cut into interleaved rounds."""
        n = max(1, min(MAX_ROUNDS, len(self.open) // ROUND_SAMPLES))
        return [
            Round(closed, open_, due - due[0] + 1e-3)
            for closed, open_, due in zip(
                _split(self.closed, n), _split(self.open, n), _split(self.due, n)
            )
        ]


def make_streams(spec: WorkloadSpec, seed: int, seconds: float) -> Streams:
    """Generate every request of one run from ``seed``."""
    n_closed = max(1, round(spec.nominal_rps * CLOSED_SHARE * seconds))
    n_open = max(1, round(spec.rate_rps * (1.0 - CLOSED_SHARE) * seconds))
    # warm-up stops once throughput settles; these are its burst budgets
    if spec.distinct:
        gen = ColdGenerator(seed)
        warm = gen.take(4 * spec.warm_burst)
        closed, open_ = gen.take(n_closed), gen.take(n_open)
    else:
        warm = zipf_stream(seed, _STREAM_HOT_WARM, 8 * spec.warm_burst)
        closed = zipf_stream(seed, _STREAM_HOT_CLOSED, n_closed)
        open_ = zipf_stream(seed, _STREAM_HOT_OPEN, n_open)
    gaps = _rng(seed, _STREAM_ARRIVALS).exponential(1.0 / spec.rate_rps, n_open)
    total = n_closed + n_open
    if spec.oracle_sample:
        checked = np.sort(
            _rng(seed, _STREAM_SAMPLE).choice(
                total, size=min(spec.oracle_sample, total), replace=False
            )
        )
    else:
        checked = np.arange(total)
    return Streams(warm, closed, open_, np.cumsum(gaps), checked)
