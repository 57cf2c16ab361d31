"""Benchmark: adapting service vs frozen-model service across a drift episode.

Pins the claim the continual-learning subsystem exists for: on a workload
whose stencil-family mix shifts mid-stream, a service running the
:class:`~repro.online.ContinualLearningPipeline` (feedback collection →
drift detection → retrain → shadow-evaluate → promote) must recover
ranking quality that a frozen offline model permanently loses.

Both sides replay the **identical** deterministic episode (same instances,
same candidate sets, same ground-truth machine seed).  Reported:

* per-service post-shift mean Kendall τ (each grading its *own* served
  rankings against measured truth);
* a same-records comparison — the frozen offline model rescored on exactly
  the records the adapting service measured — which removes probe-subset
  variance from the headline number.

The ``cluster`` row replays the same claim at cluster scale: a 4-worker
:class:`~repro.service.cluster.ServiceCluster` streams feedback over the
wire to one coordinator-side
:class:`~repro.online.ClusterFeedbackCollector`, the pipeline retrains on
it, and the promotion propagates to every worker through the shared
registry — adapting must again beat frozen on the shifted traffic.

Run under pytest for the CI smoke (asserts ≥1 retrain+promotion and
adapting ≥ frozen, single-process and cluster), or as a script to record
``BENCH_online.json``::

    PYTHONPATH=src python benchmarks/bench_online.py
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest

from repro.autotune.autotuner import OrdinalAutotuner
from repro.autotune.training import TrainingSetBuilder
from repro.machine.budget import BudgetedMachine
from repro.machine.executor import SimulatedMachine
from repro.online import (
    ClusterFeedbackCollector,
    ContinualConfig,
    ContinualLearningPipeline,
    DriftingWorkload,
    DriftMonitor,
    FeedbackCollector,
    IncrementalTrainer,
    PromotionPolicy,
    ShadowEvaluator,
    family_kernels,
    mean_model_tau,
)
from repro.obs.audit import AuditJournal
from repro.obs.ledger import record_run
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import QualityWatch
from repro.obs.slo import SLOEngine, SLObjective
from repro.service import ModelRegistry, ServiceCluster, TuningService

N_REQUESTS = 176
SHIFT_AT = 40
WAVE = 8
OFFLINE_POINTS = 840
CLUSTER_WORKERS = 4
ARTIFACTS = Path(__file__).parent / "artifacts"
OUT_PATH = ARTIFACTS / "BENCH_online.json"
HISTORY_PATH = Path(__file__).parent.parent / "BENCH_history.jsonl"
#: the quality watch must hold the whole episode, so its windowed
#: family gauges are directly comparable to the offline post-shift τ
QUALITY_WINDOW = 768

PHASE1 = ("line", "laplacian")
PHASE2 = ("hypercube", "hyperplane")


def _offline_tuner() -> tuple[OrdinalAutotuner, "TrainingSet"]:
    """The frozen baseline: trained on phase-1 families only."""
    builder = TrainingSetBuilder(SimulatedMachine(seed=7), seed=7)
    offline = builder.build(OFFLINE_POINTS, kernels=family_kernels(PHASE1))
    return OrdinalAutotuner().train(offline), offline


def _collector(cls=FeedbackCollector):
    """Uniform probes, identically seeded, no dedupe: both services measure
    the exact same (instance, tuning, truth) triple for every request, so
    their τ values are directly comparable record by record."""
    return cls(
        BudgetedMachine(SimulatedMachine(seed=11), max_evaluations=4096),
        probe_size=16,
        probe_mode="uniform",
        dedupe=False,
    )


def _pipeline(
    service, registry, tuner, offline, collector, quality=None, audit=None
) -> ContinualLearningPipeline:
    return ContinualLearningPipeline(
        service=service,
        collector=collector,
        monitor=DriftMonitor(
            tuner.encoder, window=48, tau_threshold=0.45, shift_threshold=1.2
        ).fit_reference(offline),
        trainer=IncrementalTrainer(offline, tuner.encoder, max_feedback=128),
        evaluator=ShadowEvaluator(tuner.encoder),
        policy=PromotionPolicy(registry, tag="prod", min_records=4),
        config=ContinualConfig(measure_per_step=10, min_feedback_to_train=16),
        quality=quality,
        audit=audit,
    )


async def _run(service, workload, collector, step) -> None:
    async with service:
        collector.attach(service)
        for start in range(0, N_REQUESTS, WAVE):
            wave = [workload.request(i) for i in range(start, start + WAVE)]
            await asyncio.gather(*(service.rank(q, c) for q, c in wave))
            step()
        collector.detach(service)


def run_episode(tuner, offline, adapting: bool) -> dict:
    """One full drift episode; returns the result row for one service."""
    workload = DriftingWorkload(
        shift_at=SHIFT_AT, phase1=PHASE1, phase2=PHASE2, seed=3
    )
    with TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        v1 = registry.publish(
            tuner.model, tuner.fingerprint(), tags=("prod",), note="offline seed"
        )
        service = TuningService(registry, default_model="prod")
        if adapting:
            pipeline = _pipeline(service, registry, tuner, offline, _collector())
            collector, step = pipeline.collector, pipeline.step
        else:
            pipeline = None
            collector = _collector()
            step = lambda: collector.measure_pending(limit=10)  # noqa: E731
        asyncio.run(_run(service, workload, collector, step))

        records = collector.window()
        # shifted traffic is exactly the phase-2 families (the workload
        # only emits them after the shift point)
        post = [fb for fb in records if fb.family in PHASE2]
        row = {
            "adapting": adapting,
            "n_measured": len(records),
            "post_shift_records": len(post),
            "post_shift_tau": float(np.mean([fb.tau for fb in post])),
            "pre_shift_tau": float(
                np.mean([fb.tau for fb in records if fb.family not in PHASE2])
            ),
            "service_stats": service.stats(),
        }
        if pipeline is not None:
            row.update(
                retrains=pipeline.retrain_count,
                promotions=pipeline.promotion_count,
                rollbacks=pipeline.rollback_count,
                versions=registry.versions(),
                tags=registry.tags(),
                events=pipeline.events,
                # same-records comparison: the frozen offline model rescored
                # on exactly the records the adapting service measured
                frozen_tau_same_records=mean_model_tau(
                    tuner.encoder,
                    registry.load(v1, expect_fingerprint=tuner.fingerprint()),
                    post,
                ),
            )
        return row


def run_cluster_episode(tuner, offline, adapting: bool) -> dict:
    """The same drift episode served by a multi-process cluster.

    Workers stream every answer back as a wire-level
    ``FeedbackRecord`` (``feedback_every=1``); one coordinator-side
    :class:`ClusterFeedbackCollector` measures probes on one budget, and
    a promotion propagates to all workers through the shared registry's
    atomic tag move.  After the episode, fresh requests probe every alive
    worker to record which model version each shard now serves.
    """
    workload = DriftingWorkload(
        shift_at=SHIFT_AT, phase1=PHASE1, phase2=PHASE2, seed=3
    )
    with TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        v1 = registry.publish(
            tuner.model, tuner.fingerprint(), tags=("prod",), note="offline seed"
        )
        collector = _collector(ClusterFeedbackCollector)
        # fleet-and-loop observability rides along on the adapting side:
        # rolling τ gauges fed from the same feedback stream, and an audit
        # journal capturing answers, tag moves and promotions
        quality = QualityWatch(MetricsRegistry(), window=QUALITY_WINDOW)
        journal = AuditJournal() if adapting else None
        if journal is not None:
            journal.attach_registry(registry)
        with ServiceCluster(
            tmp,
            n_workers=CLUSTER_WORKERS,
            default_model="prod",
            feedback_every=1,
            audit=journal,
        ) as cluster:
            if adapting:
                pipeline = _pipeline(
                    cluster, registry, tuner, offline, collector,
                    quality=quality, audit=journal,
                )
                pipeline.attach()
                step = pipeline.step
            else:
                pipeline = None
                collector.attach(cluster)
                # no pipeline, so stream measured records into the quality
                # gauges by hand — frozen rows report realized τ too
                step = lambda: [  # noqa: E731
                    quality.observe(fb)
                    for fb in collector.measure_pending(limit=10)
                ]
            for start in range(0, N_REQUESTS, WAVE):
                wave = [workload.request(i) for i in range(start, start + WAVE)]
                futures = [cluster.submit(q, c) for q, c in wave]
                for future in futures:
                    future.result()
                # feedback precedes each reply on its worker's pipe, so the
                # wave's records are all in the intake by now
                step()
            # which version does each shard serve now?  fresh (uncached)
            # post-episode requests, one per worker, prove promotion reached
            # every process
            versions_by_worker: dict[int, str] = {}
            probe_i = N_REQUESTS
            while (
                set(cluster.alive_workers()) - set(versions_by_worker)
                and probe_i < N_REQUESTS + 64
            ):
                q, c = workload.request(probe_i)
                reply = cluster.submit(q, c).result()
                versions_by_worker.setdefault(reply.worker_id, reply.model_version)
                probe_i += 1
            wire_records = cluster.feedback_received
            if pipeline is not None:
                pipeline.detach()
            else:
                collector.detach(cluster)

        records = collector.window()
        post = [fb for fb in records if fb.family in PHASE2]
        # realized online τ straight from the quality gauges: the per-family
        # windows hold the whole episode, so the count-weighted mean over
        # the shifted families must agree with the offline post-shift τ
        post_counts = {f: sum(1 for fb in post if fb.family == f) for f in PHASE2}
        n_post = sum(post_counts.values())
        realized_tau_online = (
            sum(quality.family_tau(f) * n for f, n in post_counts.items()) / n_post
            if n_post
            else 0.0
        )
        row = {
            "adapting": adapting,
            "workers": CLUSTER_WORKERS,
            "n_measured": len(records),
            "post_shift_records": len(post),
            "post_shift_tau": float(np.mean([fb.tau for fb in post])),
            "pre_shift_tau": float(
                np.mean([fb.tau for fb in records if fb.family not in PHASE2])
            ),
            "realized_tau_online": float(realized_tau_online),
            "quality": quality.snapshot(),
            "wire_records": wire_records,
            "records_by_worker": {
                int(w): int(n) for w, n in sorted(collector.records_by_worker.items())
            },
            "versions_by_worker": {
                int(w): v for w, v in sorted(versions_by_worker.items())
            },
            "serving_version": registry.resolve("prod"),
        }
        if pipeline is not None:
            replay = AuditJournal.replay(journal.entries())
            row.update(
                retrains=pipeline.retrain_count,
                promotions=pipeline.promotion_count,
                rollbacks=pipeline.rollback_count,
                tags=registry.tags(),
                events=pipeline.events,
                frozen_tau_same_records=mean_model_tau(
                    tuner.encoder,
                    registry.load(v1, expect_fingerprint=tuner.fingerprint()),
                    post,
                ),
                audit_entries=journal.verify(),
                audit_counts=replay["counts"],
            )
        return row


def bench_online(tuner=None, offline=None, cluster: bool = True) -> dict:
    if tuner is None:
        tuner, offline = _offline_tuner()
    adapting = run_episode(tuner, offline, adapting=True)
    frozen = run_episode(tuner, offline, adapting=False)
    result = {
        "workload": (
            f"{N_REQUESTS} requests, families {PHASE1} -> {PHASE2} at "
            f"request {SHIFT_AT}, 32 candidates/request, probe 16"
        ),
        "adapting": adapting,
        "frozen": frozen,
        "tau_gain_post_shift": adapting["post_shift_tau"] - frozen["post_shift_tau"],
    }
    if cluster:
        cluster_adapting = run_cluster_episode(tuner, offline, adapting=True)
        cluster_frozen = run_cluster_episode(tuner, offline, adapting=False)
        result["cluster"] = {
            "workload": (
                f"same episode, {CLUSTER_WORKERS}-worker ServiceCluster, "
                f"wire-level feedback (feedback_every=1)"
            ),
            "adapting": cluster_adapting,
            "frozen": cluster_frozen,
            "tau_gain_post_shift": (
                cluster_adapting["post_shift_tau"] - cluster_frozen["post_shift_tau"]
            ),
        }
    return result


# -- pytest smoke (the CI online-loop job) -------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return _offline_tuner()


def test_online_loop_smoke(corpus):
    """Short drift episode: ≥1 retrain+promotion, adapting ≥ frozen."""
    tuner, offline = corpus
    result = bench_online(tuner, offline, cluster=False)
    adapting, frozen = result["adapting"], result["frozen"]
    assert adapting["retrains"] >= 1, adapting["events"]
    assert adapting["promotions"] >= 1, adapting["events"]
    # the service that adapted must rank the shifted traffic at least as
    # well as the frozen one — per-service and on identical records
    assert adapting["post_shift_tau"] >= frozen["post_shift_tau"], result
    assert adapting["post_shift_tau"] >= adapting["frozen_tau_same_records"], result


def test_cluster_online_loop_smoke(corpus):
    """The same loop at cluster scale: wire-fed retrain, promoted everywhere."""
    tuner, offline = corpus
    adapting = run_cluster_episode(tuner, offline, adapting=True)
    frozen = run_cluster_episode(tuner, offline, adapting=False)
    assert adapting["retrains"] >= 1, adapting["events"]
    assert adapting["promotions"] >= 1, adapting["events"]
    # feedback arrived over the wire (dedupe off: one record per request)
    assert adapting["wire_records"] >= N_REQUESTS
    assert len(adapting["records_by_worker"]) >= 2, adapting["records_by_worker"]
    # every worker now serves the promoted version
    serving = adapting["serving_version"]
    assert serving != "v0001"
    assert adapting["versions_by_worker"], adapting
    assert all(
        v == serving for v in adapting["versions_by_worker"].values()
    ), adapting["versions_by_worker"]
    assert adapting["post_shift_tau"] >= frozen["post_shift_tau"], (adapting, frozen)
    # realized online τ, read back from the streaming quality gauges, must
    # agree with the offline-computed post-shift τ (same records, so the
    # tolerance only absorbs float-summation order)
    assert (
        abs(adapting["realized_tau_online"] - adapting["post_shift_tau"]) <= 0.05
    ), (adapting["realized_tau_online"], adapting["post_shift_tau"])
    assert (
        abs(frozen["realized_tau_online"] - frozen["post_shift_tau"]) <= 0.05
    ), (frozen["realized_tau_online"], frozen["post_shift_tau"])
    # the audit journal saw every promotion exactly once, and the realized-τ
    # tracking started for the promoted version
    assert adapting["audit_counts"].get("promote", 0) == adapting["promotions"]
    outcomes = adapting["quality"]["outcomes"]
    assert outcomes and outcomes[-1]["version"] == serving, outcomes


def test_quality_slo_breach_on_injected_drop():
    """An injected post-promotion quality drop must flip the quality SLO to
    breach deterministically and fire the watch's regression alert once."""

    class _FB:
        def __init__(self, family, tau, version):
            self.family, self.tau, self.model_version = family, tau, version

    def drill():
        metrics = MetricsRegistry()
        watch = QualityWatch(
            metrics, window=8, alert_margin=0.1, min_outcome_records=4
        )
        engine = SLOEngine(
            [SLObjective("quality", kind="quality", target=0.6)],
            metrics=metrics,
            fast_window=2,
            slow_window=4,
        )
        watch.note_promotion("v0002", shadow_tau=0.85, production_tau=0.7)
        states = []
        # healthy post-promotion traffic, then a sustained quality collapse
        for tau in (0.9, 0.88, 0.86, 0.9) + (0.1,) * 8:
            watch.observe(_FB("line", tau, "v0002"))
            evaluation = engine.evaluate({}, quality_tau=watch.overall_tau())
            states.append(evaluation["quality"]["state"])
        return states, engine.events, list(watch.alerts)

    states, events, alerts = drill()
    assert states[3] == "ok", states  # healthy while τ holds
    assert states[-1] == "breach", states  # sustained drop pages
    assert any(e["to"] == "breach" for e in events), events
    # the watch's own regression alert fired exactly once, for the promotion
    assert len(alerts) == 1 and alerts[0]["version"] == "v0002", alerts
    assert alerts[0]["realized_tau"] < alerts[0]["floor"]
    # deterministic: the identical stream produces the identical transitions
    assert (states, events, alerts) == drill()


def main() -> None:
    result = bench_online()
    for side in ("adapting", "frozen"):
        row = result[side]
        extra = (
            f"  retrains {row['retrains']}  promotions {row['promotions']}"
            if side == "adapting"
            else ""
        )
        print(
            f"{side:9s}  pre-shift tau {row['pre_shift_tau']:+.3f}  "
            f"post-shift tau {row['post_shift_tau']:+.3f}{extra}"
        )
    print(f"post-shift tau gain: {result['tau_gain_post_shift']:+.3f}")
    cluster = result["cluster"]
    for side in ("adapting", "frozen"):
        row = cluster[side]
        extra = (
            f"  retrains {row['retrains']}  promotions {row['promotions']}  "
            f"serving {row['serving_version']} on all workers"
            if side == "adapting"
            else ""
        )
        print(
            f"cluster {side:9s}  ({row['workers']} workers, "
            f"{row['wire_records']} wire records)  "
            f"post-shift tau {row['post_shift_tau']:+.3f}  "
            f"realized online tau {row['realized_tau_online']:+.3f}{extra}"
        )
    print(f"cluster post-shift tau gain: {cluster['tau_gain_post_shift']:+.3f}")
    out = {k: v for k, v in result.items()}
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(out, indent=2, default=str) + "\n")
    print(f"wrote {OUT_PATH}")
    metrics = {
        "tau_gain_post_shift": float(result["tau_gain_post_shift"]),
        "adapting_post_shift_tau": float(result["adapting"]["post_shift_tau"]),
        "cluster_tau_gain_post_shift": float(cluster["tau_gain_post_shift"]),
        "cluster_realized_tau_online": float(
            cluster["adapting"]["realized_tau_online"]
        ),
    }
    # every metric is a Kendall τ or a τ gain: higher is better
    record_run(
        HISTORY_PATH,
        "online",
        metrics,
        {name: ("higher", 0.5) for name in metrics},
    )
    print(f"appended ledger row to {HISTORY_PATH}")


if __name__ == "__main__":
    main()
