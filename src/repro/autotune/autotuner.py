"""The standalone ordinal-regression autotuner (paper §V-C).

Given an unseen stencil instance and a set of candidate tuning vectors
(user-supplied, random, or the pre-defined hierarchical power-of-two set),
the tuner scores the candidates with the trained RankSVM and returns them
best-first — *without executing any of them*.  The model is linear and
only the tuning block of a feature row varies between candidates, so
scoring is one product over the factored rows
(:meth:`~repro.features.encoder.FeatureEncoder.factor`): ``T·v + c`` with
the ``(n, 19)`` tuning block ``T`` and a per-instance vector ``v`` and
offset ``c``.  The full feature matrix is never built.  Scoring the 8640
3-D presets takes ~1.5 ms per instance on a 2-vCPU x86 VM once their raw
``(n, 5)`` tuning array is at hand (the tuning service caches it; building
it from a plain list adds ~2 ms of Python) — the step Table II reports as
"< 1 ms" regression.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.autotune.dataset import TrainingSet
from repro.features.encoder import FeatureEncoder
from repro.learn.model_io import load_model, save_model
from repro.learn.ranksvm import RankSVM, RankSVMConfig
from repro.stencil.instance import StencilInstance
from repro.tuning.presets import preset_candidates
from repro.tuning.vector import TuningVector

__all__ = ["OrdinalAutotuner"]


@dataclass
class OrdinalAutotuner:
    """Train-once, rank-anywhere stencil autotuner."""

    encoder: FeatureEncoder = field(default_factory=FeatureEncoder)
    config: RankSVMConfig = field(default_factory=RankSVMConfig)
    model: RankSVM | None = None
    #: wall-clock of the last train() call (Table II "Training")
    last_train_seconds: float = 0.0
    #: wall-clock of the last rank() call (Table II "Regression")
    last_rank_seconds: float = 0.0

    # -- training ---------------------------------------------------------------

    def train(self, training_set: TrainingSet) -> "OrdinalAutotuner":
        """Fit the ranking model on a generated training set."""
        fingerprint = self.fingerprint()
        if (
            training_set.encoder_fingerprint
            and training_set.encoder_fingerprint != fingerprint
        ):
            raise ValueError(
                f"training set was encoded with {training_set.encoder_fingerprint!r}, "
                f"tuner encoder is {fingerprint!r}"
            )
        model = RankSVM(self.config)
        start = time.perf_counter()
        model.fit(training_set.data)
        self.last_train_seconds = time.perf_counter() - start
        self.model = model
        return self

    def fingerprint(self) -> str:
        """Stable id of the encoder layout (guards model/encoder pairing)."""
        return self.encoder.fingerprint()

    def _require_model(self) -> RankSVM:
        if self.model is None or not self.model.is_fitted:
            raise RuntimeError("autotuner has no trained model; call train() first")
        return self.model

    # -- inference ---------------------------------------------------------------

    def score_candidates(
        self, instance: StencilInstance, candidates: Sequence[TuningVector]
    ) -> np.ndarray:
        """Model scores per candidate (higher = predicted faster)."""
        model = self._require_model()
        start = time.perf_counter()
        scores = model.decision_function(self.encoder.factor(instance, candidates))
        self.last_rank_seconds = time.perf_counter() - start
        return scores

    def rank_candidates(
        self, instance: StencilInstance, candidates: Sequence[TuningVector]
    ) -> list[TuningVector]:
        """Candidates sorted best-first according to the model."""
        scores = self.score_candidates(instance, candidates)
        order = np.argsort(-scores, kind="stable")
        return [candidates[int(i)] for i in order]

    def score_candidate_sets(
        self,
        requests: "Sequence[tuple[StencilInstance, Sequence[TuningVector]]]",
    ) -> list[np.ndarray]:
        """Scores for many ``(instance, candidates)`` sets, one per request.

        Each set is scored exactly as :meth:`score_candidates` scores it,
        so a set's scores never depend on the other sets in the call.
        """
        model = self._require_model()
        start = time.perf_counter()
        scores = [
            model.decision_function(self.encoder.factor(instance, candidates))
            for instance, candidates in requests
        ]
        self.last_rank_seconds = time.perf_counter() - start
        return scores

    def rank_many(
        self,
        requests: "Sequence[tuple[StencilInstance, Sequence[TuningVector]]]",
    ) -> list[list[TuningVector]]:
        """Best-first orderings for many candidate sets."""
        rankings = []
        for (_, candidates), scores in zip(
            requests, self.score_candidate_sets(requests)
        ):
            order = np.argsort(-scores, kind="stable")
            rankings.append([candidates[int(i)] for i in order])
        return rankings

    def tune(
        self,
        instance: StencilInstance,
        candidates: "list[TuningVector] | None" = None,
        top_k: int = 1,
    ) -> list[TuningVector]:
        """Top-``k`` tuning vectors for an instance.

        With no explicit candidates, the paper's pre-defined hierarchical
        power-of-two set is used (1600 configs for 2-D, 8640 for 3-D).
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if candidates is None:
            candidates = preset_candidates(instance.dims)
        ranked = self.rank_candidates(instance, candidates)
        return ranked[:top_k]

    def best(
        self,
        instance: StencilInstance,
        candidates: "list[TuningVector] | None" = None,
    ) -> TuningVector:
        """The single top-ranked configuration (the one that gets executed)."""
        return self.tune(instance, candidates, top_k=1)[0]

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the trained model (encoder fingerprint embedded)."""
        save_model(self._require_model(), path, encoder_fingerprint=self.fingerprint())

    def load(self, path: str) -> "OrdinalAutotuner":
        """Load a model trained with a matching encoder."""
        self.model = load_model(path, expect_fingerprint=self.fingerprint())
        return self
