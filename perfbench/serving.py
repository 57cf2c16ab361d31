"""Set-up shared by the untraced run and the traced ladder.

Training, publishing, cluster start and warm-up: everything ``setup_s``
times.  Swap-publish versions are trained here too, before any request.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field

N_WORKERS = 2
TRAIN_SEED = 7
TRAINING_POINTS = 640
#: share of the base corpus each swap-publish version is fitted on
VERSION_SUBSAMPLE = 0.75


@dataclass
class Served:
    """A started cluster over a fresh registry, ready for measured load."""

    cluster: object
    registry: object
    fingerprint: str
    #: the base training corpus (fresh versions are fitted on subsamples)
    corpus: object
    #: trained, not yet published models for swap-publish
    fresh: list = field(default_factory=list)
    setup_s: float = 0.0


def train_base():
    from repro.autotune.autotuner import OrdinalAutotuner
    from repro.autotune.training import TrainingSetBuilder
    from repro.machine.executor import SimulatedMachine

    builder = TrainingSetBuilder(SimulatedMachine(seed=TRAIN_SEED), seed=TRAIN_SEED)
    corpus = builder.build(TRAINING_POINTS)
    return OrdinalAutotuner().train(corpus), corpus


def train_version(corpus, version_seed: int):
    """A fresh model: fitted on a seeded subsample of the base corpus."""
    import numpy as np

    from repro.learn.ranksvm import RankSVM
    from repro.ranking.partial import RankingGroups

    data = corpus.data
    rng = np.random.default_rng([TRAIN_SEED, version_seed])
    rows = np.sort(rng.choice(len(data), int(VERSION_SUBSAMPLE * len(data)), replace=False))
    return RankSVM().fit(RankingGroups(data.X[rows], data.times[rows], data.groups[rows]))


def n_swaps(spec, streams) -> int:
    """Fresh versions one run publishes (see :class:`Swapper`)."""
    if not spec.swap_every:
        return 0
    return sum(
        -(-len(part) // spec.swap_every)
        for r in streams.rounds()
        for part in (r.closed, r.open)
    )


def start_cluster(spec, streams, registry_root: str, transport: str = "pipe"):
    """A 2-worker cluster over ``registry_root``, warmed on ``streams.warm``."""
    from repro.service import ServiceCluster
    from workloads import HOT_POOL
    import loadgen

    cluster = ServiceCluster(
        registry_root, n_workers=N_WORKERS, default_model="prod", transport=transport
    ).start()
    prime = [] if spec.distinct else list(HOT_POOL)
    burst = spec.warm_burst
    bursts = [streams.warm[i : i + burst] for i in range(0, len(streams.warm), burst)]
    try:
        loadgen.warm_up(cluster, prime, bursts, spec.window)
    except BaseException:
        cluster.stop()
        raise
    return cluster


def set_up(spec, streams, scratch: str) -> Served:
    """Train, publish, start the cluster and warm it; timed as ``setup_s``."""
    from repro.service import ModelRegistry

    start = time.perf_counter()
    tuner, corpus = train_base()
    fresh = [train_version(corpus, v) for v in range(1, n_swaps(spec, streams) + 1)]
    registry = ModelRegistry(tempfile.mkdtemp(prefix="registry-", dir=scratch))
    registry.publish(tuner.model, tuner.fingerprint(), tags=("prod",))
    cluster = start_cluster(spec, streams, str(registry.root))
    return Served(
        cluster, registry, tuner.fingerprint(), corpus, fresh,
        setup_s=time.perf_counter() - start,
    )


class Swapper:
    """``before_send`` hook: publish a fresh version and move ``prod`` to it
    before the first request of each measured slice and every ``every``
    requests after, so every round of a run sees the same swaps."""

    def __init__(self, served: Served, every: int) -> None:
        self.served = served
        self.every = every
        self.sent = 0
        self.swaps = 0

    def start_slice(self) -> None:
        self.sent = 0

    def __call__(self) -> None:
        self.sent += 1
        if not self.every or (self.sent - 1) % self.every or not self.served.fresh:
            return
        version = self.served.registry.publish(self.served.fresh.pop(0), self.served.fingerprint)
        self.served.registry.tag("prod", version)
        self.swaps += 1
