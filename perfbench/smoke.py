"""Tiny-size smoke test of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/smoke.py

It checks that every metric ``BENCHMARK.json`` names is printed by a short
run, that a corrupted answer trips the oracle, and that two seeds give
different inputs under the same names.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import WORKLOADS, make_streams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> "tuple[list[str], dict]":
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    "workload, trace, section",
    [("cold-distinct", 0, "end_to_end"), ("hot-repeat", 1, "per_layer")],
)
def test_every_named_metric_is_printed(workload, trace, section):
    text, result = _run(workload, trace)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(metric["name"] in line for line in text), metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_corrupted_answer_trips_the_oracle(tmp_path):
    from loadgen import Outcome
    from oracle import Oracle
    from repro.service import ModelRegistry
    from serving import train_base
    from workloads import HOT_POOL

    tuner, _ = train_base()
    registry = ModelRegistry(tmp_path)
    version = registry.publish(tuner.model, tuner.fingerprint())
    q = HOT_POOL[-1]
    top = tuple(tuner.tune(q, top_k=8))
    good = Outcome(q, due=0.0, sent=0.0, version=version, top=top)
    bad = Outcome(q, due=0.0, sent=0.0, version=version, top=(top[1], top[0]) + top[2:])
    mismatches, slowdowns = Oracle(registry).check([good, bad])
    assert mismatches == 1
    assert len(slowdowns) == 2 and min(slowdowns) >= 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seeds_give_different_inputs_under_the_same_names(name):
    spec = WORKLOADS[name]
    a, again, b = (make_streams(spec, seed, 2.0) for seed in (1, 1, 2))
    labels = lambda s: [q.label() for q in s.warm + s.closed + s.open]  # noqa: E731
    assert labels(a) == labels(again) and list(a.due) == list(again.due)
    assert len(labels(a)) == len(labels(b))
    assert labels(a) != labels(b) and list(a.due) != list(b.due)
