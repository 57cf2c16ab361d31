"""Transport conformance: socket-served answers ≡ pipe-served answers.

The socket transport replaces ``multiprocessing.Pipe`` framing with the
length-prefixed codec over TCP — everything above the link (routing,
batching, scoring, health) is supposed to be transport-blind.  This suite
is the proof:

* a loopback-socket cluster's rankings and scores are **bit-identical**
  to the in-process oracle and to a pipe cluster serving the same
  deterministic workload — including a *mixed* fleet (one pipe worker,
  one socket worker);
* crash rerouting, restarts, heartbeats and chaos containment all behave
  over TCP exactly as over pipes;
* remote workers (a dialed :class:`~repro.service.remote.RemoteWorkerHost`)
  serve the same bytes, a failed dial degrades to a reported missing
  worker, and a severed remote link re-dials like a crashed local worker
  restarts.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.service.chaos import ChaosConfig
from repro.service.health import HealthState, ResilienceConfig
from repro.service.remote import RemoteWorkerHost
from repro.stencil.execution import instance_hash
from repro.tuning.presets import preset_candidates
from tests.cluster.harness import (
    assert_response_matches,
    expected_answer,
    wait_until,
    workload_requests,
)


def _drain(cluster, requests, **submit_kwargs):
    futures = [cluster.submit(q, c, **submit_kwargs) for q, c in requests]
    return [f.result(timeout=120) for f in futures]


class TestSocketConformance:
    def test_socket_cluster_matches_the_oracle(self, make_cluster, cluster_tuner):
        """24 mixed requests over loopback sockets: every ranking and every
        score array equals ``OrdinalAutotuner.rank_candidates`` exactly."""
        requests = workload_requests(24, seed=41)
        cluster = make_cluster(n_workers=2, transport="socket")
        responses = _drain(cluster, requests)
        used = set()
        for (instance, candidates), response in zip(requests, responses):
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            assert_response_matches(response, ranked, scores)
            used.add(response.worker_id)
        assert used == {0, 1}, "the stream should exercise both socket shards"

    def test_presets_and_top_k_over_sockets(self, make_cluster, cluster_tuner):
        requests = workload_requests(4, seed=43)
        cluster = make_cluster(n_workers=2, transport="socket")
        for instance, candidates in requests:
            preset_resp = cluster.submit(instance).result(timeout=120)
            ranked, scores = expected_answer(
                cluster_tuner, instance, preset_candidates(instance.dims)
            )
            assert_response_matches(preset_resp, ranked, scores)
            topk = cluster.submit(instance, candidates, top_k=5).result(timeout=120)
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            assert_response_matches(topk, ranked, scores, top_k=5)

    def test_pipe_socket_and_mixed_fleets_answer_identical_bytes(
        self, make_cluster
    ):
        """The cross-transport determinism pin: the same DriftingWorkload
        against pipe workers, socket workers, and a mixed fleet returns
        byte-identical rankings, scores and worker attribution — and each
        fleet's telemetry tells the same request story."""
        requests = workload_requests(24, seed=47)
        fleets = {
            "pipe": make_cluster(n_workers=2, transport="pipe"),
            "socket": make_cluster(n_workers=2, transport="socket"),
            "mixed": make_cluster(n_workers=2, transport={1: "socket"}),
        }
        answers = {name: _drain(c, requests) for name, c in fleets.items()}
        baseline = answers["pipe"]
        for name in ("socket", "mixed"):
            for ref, got in zip(baseline, answers[name]):
                assert got.ranked == ref.ranked
                assert np.array_equal(got.scores, ref.scores)
                assert got.model_version == ref.model_version
                # equal-weight routing is transport-independent, so the
                # same worker id answers on every fleet
                assert got.worker_id == ref.worker_id
        for name, cluster in fleets.items():
            stats = cluster.stats()
            assert stats["cluster"]["requests_total"] == len(requests), name
            assert stats["cluster"]["missing_workers"] == 0, name
            assert stats["missing_workers"] == [], name
            assert stats["cluster"]["corrupted_frames_total"] == 0, name


class TestSocketResilience:
    def test_heartbeats_flow_over_tcp(self, make_cluster):
        cluster = make_cluster(n_workers=2, transport="socket")
        assert wait_until(
            lambda: {0, 1} <= set(cluster._last_heard), timeout_s=15
        ), "socket workers never heartbeated"
        assert cluster.worker_health(0) is HealthState.HEALTHY
        assert cluster.worker_health(1) is HealthState.HEALTHY

    def test_socket_worker_crash_reroutes_and_restarts(
        self, make_cluster, cluster_tuner
    ):
        requests = workload_requests(12, seed=53)
        cluster = make_cluster(n_workers=2, transport="socket")
        _drain(cluster, requests[:4])
        victim = 0
        cluster.kill_worker(victim)
        wait_until(lambda: cluster.crashes >= 1, timeout_s=15)
        # a replacement dials back in and the fleet heals to full strength
        wait_until(lambda: set(cluster.alive_workers()) == {0, 1}, timeout_s=30)
        for instance, candidates in requests[4:]:
            response = cluster.submit(instance, candidates).result(timeout=120)
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            assert_response_matches(response, ranked, scores)

    def test_corrupt_reply_over_socket_is_contained(
        self, make_cluster, cluster_tuner
    ):
        """A chaotic socket worker replaces one reply's payload with garbage
        bytes: the codec keeps framing (payload-level corruption), the
        coordinator counts one lost frame, and the request is recovered by
        its attempt timeout — never a poisoned stream, never a hang."""
        cluster = make_cluster(
            n_workers=1,
            transport="socket",
            restart_workers=False,
            chaos=ChaosConfig(corrupt_reply_every=1, burst_n=1),
            resilience=ResilienceConfig(
                attempt_timeout_s=0.4,
                max_retries=2,
                retry_backoff_s=0.02,
                monitor_interval_s=0.02,
                quarantine_after=10,
            ),
        )
        instance, candidates = workload_requests(1, seed=59)[0]
        response = cluster.submit(instance, candidates).result(timeout=60)
        ranked, scores = expected_answer(cluster_tuner, instance, candidates)
        assert_response_matches(response, ranked, scores)
        assert cluster.corrupted_frames >= 1
        assert cluster.frame_decode_bugs == 0
        assert cluster.crashes == 0, "frame corruption must never look like a crash"


class TestRemoteWorkers:
    def test_remote_worker_serves_bit_identical_answers(
        self, make_cluster, cluster_registry, cluster_tuner
    ):
        """One local pipe worker + one worker behind a dialed
        RemoteWorkerHost: the fleet answers exactly like an all-local one,
        and the remote's stats merge into the cluster aggregate."""
        requests = workload_requests(16, seed=67)
        with RemoteWorkerHost(cluster_registry.root) as host:
            cluster = make_cluster(n_workers=1, remote_workers=[host.address])
            assert set(cluster.alive_workers()) == {0, 1}
            responses = _drain(cluster, requests)
            used = set()
            for (instance, candidates), response in zip(requests, responses):
                ranked, scores = expected_answer(
                    cluster_tuner, instance, candidates
                )
                assert_response_matches(response, ranked, scores)
                used.add(response.worker_id)
            assert 1 in used, "the remote shard never answered"
            stats = cluster.stats()
            assert stats["missing_workers"] == []
            assert stats["cluster"]["requests_total"] == len(requests)
            assert 1 in stats["workers"]
            assert host.workers_served == 1
            cluster.stop()

    def test_dial_failure_degrades_to_a_missing_worker(
        self, make_cluster, cluster_tuner
    ):
        """A dead remote address must cost the fleet one shard, not the
        cluster: serving continues locally and stats report the silent
        worker instead of raising."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here anymore
        requests = workload_requests(6, seed=71)
        cluster = make_cluster(
            n_workers=1, remote_workers=[f"127.0.0.1:{dead_port}"]
        )
        assert set(cluster.alive_workers()) == {0}
        for (instance, candidates), response in zip(
            requests, _drain(cluster, requests)
        ):
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            assert_response_matches(response, ranked, scores)
            assert response.worker_id == 0
        stats = cluster.stats()
        assert stats["missing_workers"] == [1]
        assert stats["cluster"]["workers"] == 2  # the fleet size asked about
        assert stats["cluster"]["missing_workers"] == 1
        assert stats["cluster"]["requests_total"] == len(requests)
        assert any(e["type"] == "dial-failed" for e in cluster.events)

    def test_severed_remote_link_redials_and_readmits(
        self, make_cluster, cluster_registry, cluster_tuner
    ):
        requests = workload_requests(10, seed=73)
        with RemoteWorkerHost(cluster_registry.root) as host:
            cluster = make_cluster(n_workers=1, remote_workers=[host.address])
            _drain(cluster, requests[:4])
            cluster.kill_worker(1)  # severs the TCP link
            wait_until(lambda: cluster.crashes >= 1, timeout_s=15)
            wait_until(
                lambda: set(cluster.alive_workers()) == {0, 1}, timeout_s=30
            )
            assert host.workers_served == 2  # the re-dial was a fresh adoption
            for instance, candidates in requests[4:]:
                response = cluster.submit(instance, candidates).result(timeout=120)
                ranked, scores = expected_answer(
                    cluster_tuner, instance, candidates
                )
                assert_response_matches(response, ranked, scores)
            cluster.stop()


class TestWeightedFleet:
    def test_worker_weights_flow_into_the_router(self, make_cluster):
        cluster = make_cluster(n_workers=2, worker_weights={0: 2.0})
        assert cluster.router.weight_of(0) == 2.0
        assert cluster.router.weight_of(1) == 1.0

    def test_draining_a_worker_routes_new_instances_elsewhere(
        self, make_cluster, cluster_tuner
    ):
        requests = workload_requests(8, seed=79)
        cluster = make_cluster(n_workers=2, transport="socket")
        cluster.router.set_weight(1, 0.0)  # drain: alive, no new shards
        assert set(cluster.alive_workers()) == {0, 1}
        for (instance, candidates), response in zip(
            requests, _drain(cluster, requests)
        ):
            assert cluster.router.route(instance_hash(instance)) == 0
            assert response.worker_id == 0
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            assert_response_matches(response, ranked, scores)

    def test_invalid_weight_config_fails_fast(self, cluster_registry):
        from repro.service.cluster import ServiceCluster

        with pytest.raises(KeyError):
            ServiceCluster(
                cluster_registry.root, n_workers=2, worker_weights={9: 1.0}
            )
        with pytest.raises(ValueError):
            ServiceCluster(
                cluster_registry.root, n_workers=2, worker_weights={0: -2.0}
            )
        with pytest.raises(ValueError):
            ServiceCluster(
                cluster_registry.root, n_workers=2, transport="carrier-pigeon"
            )
