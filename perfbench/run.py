"""The serving benchmark: seeded workloads through ``ServiceCluster.submit``.

Run from the repository root::

    python3 perfbench/run.py --workload hot-repeat --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and merges their JSON lines under ``<workload>.<metric>``.

``--trace 0`` measures the end-to-end metrics of one workload with no
tracing: set-up (repeated, median reported), a closed loop with a fixed
window for throughput, an open loop with Poisson arrivals for latency,
then the oracle check of the answers.  ``--trace 1`` runs the per-layer
ladder (``ladder.py``) on the same seeded streams instead.  Either way the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the same numbers for
people, with units and sample counts.  A wrong answer exits 1.

The cluster is 2 workers on the pipe transport, preset candidates,
``top_k=8``; the load comes from this one thread.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPEATS = 3
#: the end-to-end metrics a --trace 0 run reports in its JSON line.  The
#: p90/p99 tails and failed_share are printed too but not gated: the tails
#: spread wider than any usable bound on a shared 2-core box, and
#: failed_share is 0 on a healthy run (failures are the JSON "failed").
GATED = ("setup_s", "throughput_rps", "latency_p50_ms", "top1_slowdown", "peak_rss_mb")
WORK_DIR = ROOT / ".bench_work"
#: AF_UNIX socket paths (the forkserver's) must fit in 108 bytes
_MAX_TMP_LEN = 60


def _redirect_tmp() -> None:
    """Keep library temp files (forkserver socket) inside the checkout."""
    WORK_DIR.mkdir(exist_ok=True)
    if len(str(WORK_DIR)) <= _MAX_TMP_LEN:
        os.environ["TMPDIR"] = str(WORK_DIR)
        tempfile.tempdir = None


def run_workload(spec, seed: int, seconds: float, scratch: str) -> dict:
    """One untraced run: the end-to-end metrics of ``spec``."""
    from repro.service.shm import leaked_segments
    from repro.stencil.execution import instance_hash
    import loadgen
    from oracle import Oracle, geomean
    from proctree import peak_rss_mb
    from serving import Swapper, set_up
    from workloads import make_streams

    import_s = time.perf_counter() - _T_START
    streams = make_streams(spec, seed, seconds)
    served = None
    setups = []
    for rep in range(SETUP_REPEATS):
        if served is not None:
            served.cluster.stop()
        served = set_up(spec, streams, scratch)
        setups.append(import_s + served.setup_s)
    try:
        swapper = Swapper(served, spec.swap_every)
        closed_rounds, open_rounds = [], []
        for part in streams.rounds():
            swapper.start_slice()
            closed_rounds.append(
                loadgen.closed_loop(served.cluster, part.closed, spec.window, swapper)
            )
            swapper.start_slice()
            open_rounds.append(loadgen.open_loop(served.cluster, part.open, part.due, swapper))
        rss_mb = peak_rss_mb()
        stats = served.cluster.stats()["cluster"]
    finally:
        served.cluster.stop()
    leaked = leaked_segments(f"rsl-{os.getpid()}-")
    closed = [o for r in closed_rounds for o in r]
    opened = [o for r in open_rounds for o in r]
    outcomes = [o for pair in zip(closed_rounds, open_rounds) for r in pair for o in r]
    if spec.distinct and len({instance_hash(o.instance) for o in outcomes}) != len(outcomes):
        raise RuntimeError(f"{spec.name}: a measured instance repeated")
    checked = [outcomes[int(i)] for i in streams.checked]
    mismatches, slowdowns = Oracle(served.registry).check(checked)
    failed = sum(not o.ok for o in outcomes) + mismatches + len(leaked)
    # p50 is a median over rounds; the tails pool them (a round is too short)
    p50 = statistics.median(loadgen.latency_ms(r, 50) for r in open_rounds)
    rounds = f"median of {len(open_rounds)} rounds"
    report = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "throughput_rps": (
            statistics.median(loadgen.throughput_rps(c) for c in closed_rounds), "1/s",
            f"closed loop, window {spec.window}, n={len(closed)}, {rounds}",
        ),
        "latency_p50_ms": (
            p50, "ms", f"open loop {spec.rate_rps:g}/s, n={len(opened)}, {rounds}"),
        "latency_p90_ms": (
            loadgen.latency_ms(opened, 90), "ms",
            f"n={len(opened)}, {len(opened) // 10} beyond, pooled",
        ),
        "latency_p99_ms": (
            loadgen.latency_ms(opened, 99), "ms",
            f"n={len(opened)}, {len(opened) // 100} beyond, pooled",
        ),
        "failed_share": (failed / len(outcomes), "share", f"{failed} of {len(outcomes)}"),
        "top1_slowdown": (
            geomean(slowdowns), "ratio", f"geomean over {len(slowdowns)} checked answers"
        ),
        "peak_rss_mb": (rss_mb, "MB", "summed VmHWM over the process tree"),
    }
    for name, (value, unit, note) in report.items():
        print(f"{spec.name:14s} {name:16s} {value:12.4f} {unit:6s} {note}")
    print(
        f"{spec.name:14s} late_p99_ms      {loadgen.lateness_ms(opened, 99):12.4f} ms     "
        f"generator lateness; mismatches={mismatches} leaked_segments={len(leaked)} "
        f"swaps={swapper.swaps} retried={stats.get('retries_scheduled_total', 0)} "
        f"degraded={stats.get('degraded_total', 0)}"
    )
    return {
        "correct": mismatches == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in GATED},
    }


def run_all(args) -> int:
    """Every workload in its own process, in turn; one merged JSON line."""
    import subprocess

    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()}
        )
    print(json.dumps(merged))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    _redirect_tmp()
    try:
        # registries live here; multiprocessing removes its own temp dir
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
            if args.trace:
                from ladder import run_ladder

                result = run_ladder(spec, args.seed, args.seconds, scratch)
            else:
                result = run_workload(spec, args.seed, args.seconds, scratch)
    finally:
        from proctree import stop_helpers

        stragglers = stop_helpers()
    if stragglers:
        print(f"processes still running: {stragglers}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
