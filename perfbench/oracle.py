"""Answer checking and ranking quality, outside every timed region.

The reference for an answer is ``OrdinalAutotuner.rank_candidates`` under
the model version that answered: encode the preset candidates, score them
with that version's ``decision_function``, stable-sort best-first.  The
encode is memoized per instance, so checking one instance under many
versions (``swap-publish``) encodes it once.

Ranking quality is the paper's measure for a pick: the true (noise-free)
runtime of the top-1 configuration over the best true runtime among the
candidates, from ``SimulatedMachine.true_times_batch``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.autotune.autotuner import OrdinalAutotuner
from repro.machine.executor import SimulatedMachine
from repro.service.registry import ModelRegistry
from repro.stencil.execution import instance_hash
from repro.tuning.presets import preset_candidates

from loadgen import TOP_K, Outcome


class Oracle:
    """Reference top-k per (instance, version) and true-time slowdowns."""

    def __init__(self, registry: ModelRegistry) -> None:
        self.registry = registry
        self.machine = SimulatedMachine(seed=0)
        self._presets = {d: preset_candidates(d) for d in (2, 3)}
        self._index = {
            d: {t: i for i, t in enumerate(p)} for d, p in self._presets.items()
        }
        self._tuners: dict[str, OrdinalAutotuner] = {}

    def _tuner(self, version: str) -> OrdinalAutotuner:
        tuner = self._tuners.get(version)
        if tuner is None:
            tuner = OrdinalAutotuner()
            tuner.model = self.registry.load(version, tuner.fingerprint())
            self._tuners[version] = tuner
        return tuner

    def check(self, outcomes: Sequence[Outcome]) -> tuple[int, list[float]]:
        """Mismatching answers among ``outcomes`` and each answer's slowdown.

        Failed answers are skipped (they already count as failures).
        """
        by_instance: dict[int, list[Outcome]] = defaultdict(list)
        for o in outcomes:
            if o.ok:
                by_instance[instance_hash(o.instance)].append(o)
        mismatches = 0
        slowdowns: list[float] = []
        for group in by_instance.values():
            q = group[0].instance
            presets = self._presets[q.dims]
            X = None
            reference: dict[str, tuple] = {}
            for o in group:
                if o.version not in reference:
                    tuner = self._tuner(o.version)
                    if X is None:
                        X = tuner.encoder.encode_batch(q, presets)
                    order = np.argsort(-tuner.model.decision_function(X), kind="stable")
                    reference[o.version] = tuple(presets[int(i)] for i in order[:TOP_K])
                if o.top != reference[o.version]:
                    mismatches += 1
            true = self.machine.true_times_batch(q, presets)
            best = float(true.min())
            index = self._index[q.dims]
            for o in group:
                if o.top and o.top[0] in index:
                    slowdowns.append(float(true[index[o.top[0]]]) / best)
        return mismatches, slowdowns


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
