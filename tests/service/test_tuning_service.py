"""Tests for the async tuning service: equivalence, caching, hot swap."""

import asyncio

import numpy as np
import pytest

from repro.features.encoder import FeatureEncoder
from repro.service.server import TuningService
from repro.stencil.suite import TEST_BENCHMARKS, benchmark_by_id
from repro.tuning.presets import preset_candidates
from repro.tuning.space import patus_space

#: ≥3 kernels × both dimensionalities (the acceptance grid)
EQUIVALENCE_LABELS = [
    "laplacian-128x128x128",
    "tricubic-128x128x128",
    "wave-128x128x128",
    "blur-1024x768",
    "edge-512x512",
    "game-of-life-512x512",
]


def _candidates(instance, n=48, seed=0):
    return patus_space(instance.dims).random_vectors(n, rng=seed)


def run(coro):
    return asyncio.run(coro)


class TestEquivalence:
    @pytest.mark.parametrize("label", EQUIVALENCE_LABELS)
    def test_bit_identical_to_rank_candidates(self, registry, trained_tuner, label):
        inst = benchmark_by_id(label)
        cands = _candidates(inst)

        async def main():
            async with TuningService(registry) as service:
                return await service.rank(inst, cands)

        response = run(main())
        assert response.ranked == trained_tuner.rank_candidates(inst, cands)
        assert np.array_equal(
            response.scores, trained_tuner.score_candidates(inst, cands)
        )
        assert response.model_version == "v0001"

    def test_mixed_batch_stays_bit_identical(self, registry, trained_tuner):
        """All six kernels coalesced into one micro-batch must still match."""
        insts = [benchmark_by_id(label) for label in EQUIVALENCE_LABELS]
        cand_sets = [_candidates(q, seed=i) for i, q in enumerate(insts)]

        async def main():
            async with TuningService(registry) as service:
                return await asyncio.gather(
                    *(service.rank(q, c) for q, c in zip(insts, cand_sets))
                )

        responses = run(main())
        for q, cands, response in zip(insts, cand_sets, responses):
            assert response.ranked == trained_tuner.rank_candidates(q, cands)

    @pytest.mark.parametrize("explicit", [False, True], ids=["presets", "explicit"])
    def test_scores_independent_of_batch_composition(self, registry, explicit):
        """One request's scores are the same bytes served alone or inside a
        micro-batch of other distinct instances."""
        target, *others = TEST_BENCHMARKS
        cands = _candidates(target, n=45) if explicit else None

        async def alone():
            async with TuningService(registry) as service:
                return await service.rank(target, cands)

        async def batched():
            async with TuningService(registry) as service:
                # odd-sized neighbours ahead of it: a stacked matrix product
                # would put the target's rows at other offsets than solo
                responses = await asyncio.gather(
                    *(
                        service.rank(q, _candidates(q, n=45, seed=i))
                        for i, q in enumerate(others)
                    ),
                    service.rank(target, cands),
                )
                return service.stats(), responses[-1]

        solo = run(alone())
        stats, mixed = run(batched())
        assert stats["batches_total"] == 1
        assert stats["max_batch_size"] == len(TEST_BENCHMARKS) >= 9
        assert not solo.cached and not mixed.cached
        assert mixed.scores.tobytes() == solo.scores.tobytes()
        assert mixed.ranked == solo.ranked

    def test_default_candidates_are_presets(self, registry, trained_tuner):
        inst = benchmark_by_id("edge-512x512")

        async def main():
            async with TuningService(registry) as service:
                return await service.rank(inst)

        response = run(main())
        assert len(response.ranked) == len(preset_candidates(2))
        assert response.best == trained_tuner.best(inst)


class TestCaching:
    def test_repeat_lookup_cached_without_reencoding(self, registry):
        inst = benchmark_by_id("laplacian-128x128x128")
        cands = _candidates(inst)

        async def main():
            async with TuningService(registry) as service:
                first = await service.rank(inst, cands)
                scored_after_first = service.telemetry.scored_candidates_total
                second = await service.rank(inst, list(cands))  # equal content
                return service, first, second, scored_after_first

        service, first, second, scored_after_first = run(main())
        assert not first.cached and second.cached
        assert second.ranked == first.ranked
        # the repeat answered from cache: nothing new went through encode+score
        assert service.telemetry.scored_candidates_total == scored_after_first
        assert service.cache.hits >= 1
        assert service.cache.hit_rate > 0

    def test_in_batch_duplicates_deduplicated(self, registry):
        inst = benchmark_by_id("gradient-128x128x128")
        cands = _candidates(inst)

        async def main():
            async with TuningService(registry) as service:
                responses = await asyncio.gather(
                    *(service.rank(inst, list(cands)) for _ in range(8))
                )
                return service, responses

        service, responses = run(main())
        assert len({tuple(r.best.as_tuple()) for r in responses}) == 1
        # only one copy was encoded; the other 7 were answered as hits
        assert service.telemetry.scored_candidates_total == len(cands)
        assert service.cache.hits >= 7

    def test_concurrent_smoke_64_requests(self, registry):
        """The CI smoke contract: ≥64 concurrent mixed requests, hits > 0."""
        insts = [benchmark_by_id(label) for label in EQUIVALENCE_LABELS]
        cand_sets = {q.label(): _candidates(q, n=32) for q in insts}

        async def main():
            async with TuningService(registry) as service:
                responses = await asyncio.gather(
                    *(
                        service.rank(insts[i % len(insts)], cand_sets[insts[i % len(insts)].label()])
                        for i in range(64)
                    )
                )
                return service, responses

        service, responses = run(main())
        assert len(responses) == 64
        assert all(r.ranked for r in responses)
        assert service.cache.hits > 0
        stats = service.stats()
        assert stats["requests_total"] == 64
        assert stats["completed_total"] == 64
        assert stats["failed_total"] == 0
        assert stats["mean_batch_size"] > 1.0
        # every request did at least one lookup (in-batch dedup adds more)
        assert stats["cache_hits"] + stats["cache_misses"] >= 64
        # only the unique (instance, candidate-set) pairs were ever encoded
        assert stats["scored_candidates_total"] <= len(EQUIVALENCE_LABELS) * 32


class TestModelVersioning:
    def test_hot_swap_via_retag(self, registry, trained_tuner, alternate_model):
        inst = benchmark_by_id("laplacian-128x128x128")
        cands = _candidates(inst)

        async def main():
            async with TuningService(registry, default_model="prod") as service:
                before = await service.rank(inst, cands)
                v2 = registry.publish(
                    alternate_model, trained_tuner.fingerprint()
                )
                registry.tag("prod", v2)  # hot swap: no restart
                after = await service.rank(inst, cands)
                return before, after

        before, after = run(main())
        assert before.model_version == "v0001"
        assert after.model_version == "v0002"
        assert not np.array_equal(before.scores, after.scores)

    def test_explicit_version_pins_answer(self, registry, trained_tuner, alternate_model):
        inst = benchmark_by_id("blur-1024x768")
        cands = _candidates(inst)
        registry.publish(alternate_model, trained_tuner.fingerprint(), tags=("canary",))

        async def main():
            async with TuningService(registry) as service:
                pinned = await service.rank(inst, cands, model="v0001")
                canary = await service.rank(inst, cands, model="canary")
                return pinned, canary

        pinned, canary = run(main())
        assert pinned.model_version == "v0001"
        assert canary.model_version == "v0002"

    def test_unknown_model_ref_fails_that_request(self, registry):
        inst = benchmark_by_id("edge-512x512")

        async def main():
            async with TuningService(registry) as service:
                with pytest.raises(KeyError, match="unknown model reference"):
                    await service.rank(inst, _candidates(inst), model="nope")
                # the service keeps serving after a failed request
                ok = await service.rank(inst, _candidates(inst))
                return service, ok

        service, ok = run(main())
        assert ok.ranked
        assert service.telemetry.failed_total == 1

    def test_mismatched_encoder_rejected(self, registry):
        inst = benchmark_by_id("edge-512x512")

        async def main():
            service = TuningService(registry, encoder=FeatureEncoder(interactions=False))
            async with service:
                with pytest.raises(ValueError, match="fingerprint mismatch"):
                    await service.rank(inst, _candidates(inst))

        run(main())

    def test_malformed_request_fails_alone_service_survives(self, registry):
        """A bad candidate payload must not kill the batch worker (or the
        innocent requests coalesced into the same micro-batch)."""
        inst = benchmark_by_id("laplacian-128x128x128")
        good = _candidates(inst)

        async def main():
            async with TuningService(registry) as service:
                results = await asyncio.gather(
                    service.rank(inst, good),
                    service.rank(inst, [(4, 4, 4, 0, 1)]),  # not TuningVectors
                    service.rank(inst, good),
                    return_exceptions=True,
                )
                assert service.running  # worker survived
                follow_up = await service.rank(inst, good)
                return service, results, follow_up

        service, results, follow_up = run(main())
        assert isinstance(results[1], AttributeError)
        assert results[0].ranked == results[2].ranked == follow_up.ranked
        assert service.telemetry.failed_total == 1

    def test_unencodable_instance_fails_alone(self, registry):
        """A kernel beyond the encoder's max_radius must fail alone, not
        the rest of its micro-batch."""
        from repro.stencil.instance import StencilInstance
        from repro.stencil.kernel import StencilKernel
        from repro.stencil.shapes import laplacian

        good = benchmark_by_id("laplacian-128x128x128")
        good_cands = _candidates(good)
        big = StencilInstance(
            StencilKernel.single_buffer("big-r4", laplacian(3, 4), "double"),
            (64, 64, 64),
        )

        async def main():
            async with TuningService(registry) as service:
                results = await asyncio.gather(
                    service.rank(good, good_cands),
                    service.rank(big, _candidates(big)),
                    service.rank(good, list(good_cands)),
                    return_exceptions=True,
                )
                return service, results

        service, results = run(main())
        assert isinstance(results[1], ValueError)
        assert "max_radius" in str(results[1])
        assert results[0].ranked == results[2].ranked
        assert service.telemetry.failed_total == 1

    def test_set_default_model_validates(self, registry):
        async def main():
            async with TuningService(registry) as service:
                with pytest.raises(KeyError):
                    service.set_default_model("ghost")
                service.set_default_model("prod")
                assert service.default_model == "prod"

        run(main())


class TestLifecycle:
    def test_rank_before_start_raises(self, registry):
        inst = benchmark_by_id("edge-512x512")

        async def main():
            service = TuningService(registry)
            with pytest.raises(RuntimeError, match="not running"):
                await service.rank(inst, _candidates(inst))

        run(main())

    def test_latency_percentiles_ordered(self, registry):
        inst = benchmark_by_id("laplacian-128x128x128")

        async def main():
            async with TuningService(registry) as service:
                await asyncio.gather(
                    *(service.rank(inst, _candidates(inst, seed=i)) for i in range(6))
                )
                return service.stats()

        stats = run(main())
        assert 0 < stats["latency_p50_ms"] <= stats["latency_p99_ms"]

    def test_top_level_exports(self):
        import repro

        assert repro.TuningService is TuningService
        assert hasattr(repro, "ModelRegistry") and hasattr(repro, "RankingCache")
