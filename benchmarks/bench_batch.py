"""Micro-benchmarks of the batch measurement pipeline vs the scalar oracle.

Pins the perf claim the batch refactor exists for: noise-free true-time
evaluation of n tunings of one instance must be at least an order of
magnitude faster through ``true_times_batch`` than through a scalar
``sweep_cost`` loop, at training-corpus (n=100), population (n=1000) and
preset-ranking (n=8640) scales.

Run under pytest (with pytest-benchmark) for timing tables, or as a
script to record the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_batch.py   # writes BENCH_batch.json
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.machine.executor import SimulatedMachine
from repro.obs.ledger import record_run
from repro.stencil.execution import StencilExecution
from repro.stencil.suite import benchmark_by_id
from repro.tuning.presets import preset_candidates
from repro.tuning.space import patus_space

BENCH_SIZES = (100, 1000, 8640)
ARTIFACTS = Path(__file__).parent / "artifacts"
OUT_PATH = ARTIFACTS / "BENCH_batch.json"
HISTORY_PATH = Path(__file__).parent.parent / "BENCH_history.jsonl"


def _instance():
    return benchmark_by_id("laplacian-128x128x128")


def _tunings(n: int):
    """n candidate tunings: the 8640 preset, or a random sample of it."""
    cands = preset_candidates(3)
    if n >= len(cands):
        return cands
    return patus_space(3).random_vectors(n, rng=0)


def _scalar_loop(machine: SimulatedMachine, instance, tunings) -> np.ndarray:
    """The pre-batch evaluation path: one full model walk per tuning."""
    return np.array(
        [
            machine.cost_model.sweep_cost(StencilExecution(instance, t)).total_s
            for t in tunings
        ]
    )


@pytest.fixture(scope="module")
def instance():
    return _instance()


@pytest.mark.parametrize("n", BENCH_SIZES)
def test_true_times_batch(benchmark, instance, n):
    tunings = _tunings(n)

    def run():
        return SimulatedMachine().true_times_batch(instance, tunings)

    times = benchmark(run)
    assert times.shape == (n,)
    assert (times > 0).all()


@pytest.mark.parametrize("n", [100])
def test_scalar_loop_reference(benchmark, instance, n):
    tunings = _tunings(n)
    times = benchmark(lambda: _scalar_loop(SimulatedMachine(), instance, tunings))
    assert times.shape == (n,)


@pytest.mark.skipif(
    os.environ.get("CI", "").lower() == "true",
    reason="wall-clock speedup ratio is unreliable on shared CI runners",
)
def test_preset_speedup_at_least_10x(instance):
    """The acceptance bar: ≥10× on the 8640-candidate 3-D preset."""
    result = _bench_one(instance, 8640)
    assert result["speedup"] >= 10.0, f"batch speedup only {result['speedup']:.1f}x"
    np.testing.assert_allclose(
        result["_batch_times"], result["_scalar_times"], rtol=1e-12
    )


def test_preset_batch_matches_scalar(instance):
    """Equivalence half of the acceptance bar (timing-free, CI-safe)."""
    tunings = _tunings(8640)
    batch = SimulatedMachine().true_times_batch(instance, tunings)
    scalar = _scalar_loop(SimulatedMachine(), instance, tunings)
    np.testing.assert_allclose(batch, scalar, rtol=1e-12)


def _bench_one(instance, n: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall-clock for batch and scalar evaluation."""
    tunings = _tunings(n)
    batch_s, scalar_s = [], []
    batch_times = scalar_times = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch_times = SimulatedMachine().true_times_batch(instance, tunings)
        batch_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        scalar_times = _scalar_loop(SimulatedMachine(), instance, tunings)
        scalar_s.append(time.perf_counter() - t0)
    return {
        "n": n,
        "batch_s": min(batch_s),
        "scalar_s": min(scalar_s),
        "speedup": min(scalar_s) / min(batch_s),
        "per_eval_batch_us": min(batch_s) / n * 1e6,
        "per_eval_scalar_us": min(scalar_s) / n * 1e6,
        "_batch_times": batch_times,
        "_scalar_times": scalar_times,
    }


def main() -> None:
    """Record the batch-vs-scalar perf trajectory to BENCH_batch.json."""
    instance = _instance()
    rows = []
    for n in BENCH_SIZES:
        row = _bench_one(instance, n)
        max_rel = float(
            np.max(
                np.abs(row.pop("_batch_times") - row["_scalar_times"])
                / row.pop("_scalar_times")
            )
        )
        row["max_rel_err"] = max_rel
        rows.append(row)
        print(
            f"n={n:5d}  batch {row['batch_s'] * 1e3:8.2f} ms  "
            f"scalar {row['scalar_s'] * 1e3:8.2f} ms  "
            f"speedup {row['speedup']:6.1f}x  max rel err {max_rel:.2e}"
        )
    payload = {
        "benchmark": "true_times_batch vs scalar sweep_cost loop",
        "instance": instance.label(),
        "results": rows,
    }
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    headline = rows[-1]  # the 8640-candidate preset scale
    record_run(
        HISTORY_PATH,
        "batch",
        {
            "speedup": float(headline["speedup"]),
            "per_eval_batch_us": float(headline["per_eval_batch_us"]),
        },
        {
            "speedup": ("higher", 0.5),
            "per_eval_batch_us": ("lower", 2.0),
        },
        extra={"n": headline["n"]},
    )
    print(f"appended ledger row to {HISTORY_PATH}")


if __name__ == "__main__":
    main()
