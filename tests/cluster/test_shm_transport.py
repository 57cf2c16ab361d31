"""Score transport, end to end: scores ride the reply frame.

With ``include_scores=True`` every reply carries its score array pickled
over the pipe, bit-identical to the single-process oracle, SIGKILLs
included.  Responses own their scores, so ``release()`` changes nothing,
and a run creates no shared-memory segment in ``/dev/shm``.
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
    workload_requests,
)

_SHM_PREFIX = f"rsl-{os.getpid()}-"

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no visible /dev/shm on this platform"
)


def _assert_wire_scores(response, ranked, scores) -> None:
    """The ranking and the pickled scores equal the oracle's, bit for bit."""
    assert response.ranked == ranked
    assert response.scores is not None, "include_scores=True lost the scores"
    assert np.array_equal(response.scores, scores), "scores not bit-identical"


class TestShmTransport:
    def test_pickle_transport_stays_bit_identical(self, make_cluster, cluster_tuner):
        requests = workload_requests(12, seed=73)
        cluster = make_cluster(n_workers=2)
        for instance, candidates in requests:
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            response = cluster.submit(
                instance, candidates, include_scores=True
            ).result(timeout=120)
            _assert_wire_scores(response, ranked, scores)

    def test_scores_readable_after_release(self, make_cluster, cluster_tuner):
        requests = workload_requests(6, seed=72)
        cluster = make_cluster(n_workers=2)
        responses = [
            cluster.submit(q, c, include_scores=True).result(timeout=120)
            for q, c in requests
        ]
        for response in responses:
            response.release()
            response.release()  # idempotent
        for (instance, candidates), response in zip(requests, responses):
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            _assert_wire_scores(response, ranked, scores)

    @needs_dev_shm
    def test_run_creates_no_segments(self, make_cluster):
        requests = workload_requests(8, seed=75)
        cluster = make_cluster(n_workers=2)
        for instance, candidates in requests:
            cluster.submit(instance, candidates, include_scores=True).result(
                timeout=120
            )
        assert leaked_segments(_SHM_PREFIX) == []
        cluster.stop()
        assert leaked_segments(_SHM_PREFIX) == []

    @needs_dev_shm
    def test_sigkill_mid_stream_leaks_no_segments(self, make_cluster, cluster_tuner):
        """SIGKILL a worker with replies inflight: every answer still
        carries oracle-identical scores, and /dev/shm stays empty."""
        requests = workload_requests(30, seed=76)
        cluster = make_cluster(n_workers=2)
        futures = [
            cluster.submit(q, c, include_scores=True) for q, c in requests[:15]
        ]
        kill_and_settle(cluster, 0)
        futures += [
            cluster.submit(q, c, include_scores=True) for q, c in requests[15:]
        ]
        for (instance, candidates), future in zip(requests, futures):
            ranked, scores = expected_answer(cluster_tuner, instance, candidates)
            _assert_wire_scores(future.result(timeout=120), ranked, scores)
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
