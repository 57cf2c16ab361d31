"""Zero-copy score transport, end to end.

The shm transport must be invisible at the answer layer: scores arriving
through a slab ring are bit-identical to the pickle path and to the
single-process oracle, slots are returned when responses are consumed,
and a run full of SIGKILLs leaves nothing behind in ``/dev/shm``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.service.shm import leaked_segments
from tests.cluster.harness import (
    assert_response_matches,
    expected_answer,
    kill_and_settle,
    wait_until,
    workload_requests,
)

_SHM_PREFIX = f"rsl-{os.getpid()}-"

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no visible /dev/shm on this platform"
)


class TestShmTransport:
    def test_slab_scores_bit_identical_to_oracle(self, make_cluster, cluster_tuner):
        requests = workload_requests(20, seed=71)
        cluster = make_cluster(n_workers=2)
        for instance, candidates in requests:
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            response = cluster.submit(instance, candidates).result(timeout=120)
            assert_response_matches(response, ranked, scores)
            response.release()
        stats = cluster.stats()["cluster"]
        assert stats["slab_writes_total"] > 0, "no reply ever used the slab ring"

    def test_release_after_consume_returns_slots(self, make_cluster):
        requests = workload_requests(12, seed=72)
        cluster = make_cluster(n_workers=2)
        responses = [
            cluster.submit(q, c).result(timeout=120) for q, c in requests
        ]
        held = sum(ring.in_use() for ring in cluster._worker_ring.values())
        slabbed = [r for r in responses if r.slab_lease is not None]
        assert held == len(slabbed), "slot refcounts diverged from live leases"
        for response in responses:
            response.release()
        assert sum(ring.in_use() for ring in cluster._worker_ring.values()) == 0

    def test_pickle_transport_stays_bit_identical(self, make_cluster, cluster_tuner):
        requests = workload_requests(12, seed=73)
        cluster = make_cluster(n_workers=2, score_transport="pickle")
        assert not cluster._worker_ring  # no rings created at all
        for instance, candidates in requests:
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            response = cluster.submit(instance, candidates).result(timeout=120)
            assert response.slab_lease is None
            assert_response_matches(response, ranked, scores)
        assert cluster.stats()["cluster"]["slab_writes_total"] == 0

    def test_dropped_responses_release_via_gc(self, make_cluster):
        """A caller that never calls release() only borrows slots until the
        collector runs — ring occupancy must not decay permanently."""
        import gc

        requests = workload_requests(8, seed=74)
        cluster = make_cluster(n_workers=1)
        for instance, candidates in requests:
            cluster.submit(instance, candidates).result(timeout=120)  # dropped
        gc.collect()
        assert sum(ring.in_use() for ring in cluster._worker_ring.values()) == 0

    @needs_dev_shm
    def test_stop_unlinks_all_segments(self, make_cluster):
        requests = workload_requests(8, seed=75)
        cluster = make_cluster(n_workers=2)
        for instance, candidates in requests:
            cluster.submit(instance, candidates).result(timeout=120)
        assert leaked_segments(_SHM_PREFIX)  # rings exist while running
        cluster.stop()
        assert leaked_segments(_SHM_PREFIX) == []

    @needs_dev_shm
    def test_sigkill_mid_stream_leaks_no_segments(self, make_cluster, cluster_tuner):
        """SIGKILL a worker with replies inflight: the replacement gets a
        fresh ring and stop() leaves /dev/shm empty."""
        requests = workload_requests(30, seed=76)
        cluster = make_cluster(n_workers=2)
        futures = [cluster.submit(q, c) for q, c in requests[:15]]
        kill_and_settle(cluster, 0)
        futures += [cluster.submit(q, c) for q, c in requests[15:]]
        for (instance, candidates), future in zip(requests, futures):
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            assert_response_matches(future.result(timeout=120), ranked, scores)
        cluster.stop()
        assert leaked_segments(_SHM_PREFIX) == []


class TestFloat32Serving:
    def test_float64_default_stays_bit_identical(self, make_cluster, cluster_tuner):
        """Served scores are float64, bit-identical to the oracle."""
        requests = workload_requests(6, seed=92)
        cluster = make_cluster(n_workers=1)
        for instance, candidates in requests:
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            response = cluster.submit(instance, candidates).result(timeout=120)
            assert response.scores.dtype == np.float64
            assert_response_matches(response, ranked, scores)
