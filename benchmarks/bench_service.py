"""Benchmark of the tuning service vs sequential per-request tuning.

Pins the perf claim the serving layer exists for: at 256 concurrent
mixed-instance ranking requests, the micro-batched, cached
:class:`TuningService` must clear **≥ 5×** the throughput of driving
``OrdinalAutotuner`` one ``tune()`` call at a time — while answering
bit-identically.  The speedup has two sources, both measured here:
micro-batching with the service's memoized preset sets (hash and raw
tunings computed once, so each query is scored straight from its factored
rows) and the ranking cache (repeat instances skip scoring entirely; the
workload has 16 distinct instances, each requested 16 times, mirroring
hot-kernel traffic).

Run under pytest for the CI-safe smoke (no timing assertions), or as a
script to record the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_service.py   # writes BENCH_service.json
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from repro.autotune.autotuner import OrdinalAutotuner
from repro.autotune.training import TrainingSetBuilder
from repro.machine.executor import SimulatedMachine
from repro.obs.ledger import record_run
from repro.service import ModelRegistry, TuningService
from repro.stencil.suite import TEST_BENCHMARKS
from repro.tuning.presets import preset_candidates

N_CONCURRENT = 256
N_DISTINCT = 16
TRAINING_POINTS = 640
ARTIFACTS = Path(__file__).parent / "artifacts"
OUT_PATH = ARTIFACTS / "BENCH_service.json"
HISTORY_PATH = Path(__file__).parent.parent / "BENCH_history.jsonl"


def _train_tuner(points: int = TRAINING_POINTS) -> OrdinalAutotuner:
    builder = TrainingSetBuilder(SimulatedMachine(seed=7), seed=7)
    return OrdinalAutotuner().train(builder.build(points))


def _workload(n_requests: int):
    """Round-robin over 16 distinct instances (the Fig. 4 benchmarks)."""
    pool = TEST_BENCHMARKS[:N_DISTINCT]
    return [pool[i % len(pool)] for i in range(n_requests)]


def _sequential(tuner: OrdinalAutotuner, instances, presets) -> tuple[list, float]:
    """The baseline: one synchronous tune()-path ranking per request.

    The preset candidate lists are precomputed and shared, so the loop is
    charged for the raw-tuning build plus factored scoring — the same work
    ``tune()`` does per call, minus preset regeneration (which would only
    flatter the service).
    """
    start = time.perf_counter()
    rankings = [tuner.rank_candidates(q, presets[q.dims]) for q in instances]
    return rankings, time.perf_counter() - start


async def _serve(registry: ModelRegistry, instances) -> tuple[list, float, dict]:
    async with TuningService(registry) as service:
        start = time.perf_counter()
        responses = await asyncio.gather(*(service.rank(q) for q in instances))
        elapsed = time.perf_counter() - start
        return [r.ranked for r in responses], elapsed, service.stats()


def bench_service(n_requests: int = N_CONCURRENT, tuner=None) -> dict:
    """One full comparison run; returns the result row (plus raw rankings)."""
    tuner = tuner or _train_tuner()
    instances = _workload(n_requests)
    presets = {2: preset_candidates(2), 3: preset_candidates(3)}
    # untimed warmup: fault in numpy and the allocator for the scoring
    # path both sides share
    _sequential(tuner, instances[: min(len(instances), N_DISTINCT)], presets)
    with TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        registry.publish(tuner.model, tuner.fingerprint(), tags=("prod",))
        served, service_s, stats = asyncio.run(_serve(registry, instances))
    sequential, sequential_s = _sequential(tuner, instances, presets)
    return {
        "n_requests": n_requests,
        "n_distinct_instances": min(N_DISTINCT, n_requests),
        "candidates_per_request": sorted({len(presets[q.dims]) for q in instances}),
        "service_s": service_s,
        "sequential_s": sequential_s,
        "speedup": sequential_s / service_s,
        "service_rps": n_requests / service_s,
        "sequential_rps": n_requests / sequential_s,
        "stats": stats,
        "_served": served,
        "_sequential": sequential,
    }


# -- pytest smoke (timing-free where CI is involved) ---------------------------


@pytest.fixture(scope="module")
def tuner():
    return _train_tuner()


def test_smoke_64_concurrent(tuner):
    """In-process server, ≥64 concurrent requests, cache must be hitting."""
    result = bench_service(64, tuner)
    assert result["_served"] == result["_sequential"]  # bit-identical answers
    assert result["stats"]["cache_hits"] > 0
    assert result["stats"]["failed_total"] == 0
    assert result["stats"]["mean_batch_size"] > 1.0


@pytest.mark.skipif(
    os.environ.get("CI", "").lower() == "true",
    reason="wall-clock speedup ratio is unreliable on shared CI runners",
)
def test_speedup_at_least_5x(tuner):
    """The acceptance bar: ≥5× at 256 concurrent mixed-instance requests."""
    result = bench_service(N_CONCURRENT, tuner)
    assert result["_served"] == result["_sequential"]
    assert result["speedup"] >= 5.0, f"service speedup only {result['speedup']:.1f}x"


def main() -> None:
    """Record the service-vs-sequential trajectory to BENCH_service.json."""
    tuner = _train_tuner()
    rows = []
    for n in (64, N_CONCURRENT):
        row = bench_service(n, tuner)
        assert row.pop("_served") == row.pop("_sequential"), "answers diverged"
        rows.append(row)
        print(
            f"n={n:4d}  service {row['service_s'] * 1e3:8.1f} ms "
            f"({row['service_rps']:7.0f} req/s)  "
            f"sequential {row['sequential_s'] * 1e3:8.1f} ms  "
            f"speedup {row['speedup']:5.1f}x  "
            f"batches {row['stats']['batches_total']}  "
            f"mean batch {row['stats']['mean_batch_size']:.1f}  "
            f"hit rate {row['stats']['cache_hit_rate']:.2f}  "
            f"p99 {row['stats']['latency_p99_ms']:.1f} ms"
        )
    payload = {
        "benchmark": "TuningService (micro-batched + cached) vs sequential tune()",
        "workload": (
            f"{N_CONCURRENT} concurrent requests round-robin over "
            f"{N_DISTINCT} distinct instances, full preset candidate sets "
            f"(1600 2-D / 8640 3-D)"
        ),
        "results": rows,
    }
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    headline = rows[-1]  # the N_CONCURRENT row
    # longitudinal ledger + trailing-median sentinel (report-only)
    record_run(
        HISTORY_PATH,
        "service",
        {
            "speedup": float(headline["speedup"]),
            "service_rps": float(headline["service_rps"]),
            "latency_p99_ms": float(headline["stats"]["latency_p99_ms"]),
        },
        {
            "speedup": ("higher", 0.5),
            "service_rps": ("higher", 0.5),
            "latency_p99_ms": ("lower", 2.0),
        },
        extra={"n_requests": headline["n_requests"]},
    )
    print(f"appended ledger row to {HISTORY_PATH}")


if __name__ == "__main__":
    main()
