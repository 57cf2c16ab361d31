"""Factored scoring ≡ scoring the encoded matrix.

Every inference path scores ``FeatureEncoder.factor`` rows; training and
the references score ``encode_batch`` rows.  The two must agree to within
rounding (max |Δ| ≤ 1e-12) and rank identically, for every benchmark
instance under its preset set, for generated instances, and under more
than one trained model.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.encoder import FactoredRows, FeatureEncoder, raw_tunings
from repro.learn.ranksvm import RankSVM, RankSVMConfig
from repro.stencil.instance import StencilInstance
from repro.stencil.kernel import StencilKernel
from repro.stencil.shapes import TRAINING_SHAPES
from repro.stencil.suite import BENCHMARKS
from repro.tuning.presets import preset_candidates
from repro.tuning.space import patus_space
from repro.tuning.vector import TuningVector

TOL = 1e-12

BENCHMARK_INSTANCES = [
    inst for bench in BENCHMARKS.values() for inst in bench.instances()
]


@pytest.fixture(scope="module")
def enc():
    return FeatureEncoder()


@pytest.fixture(scope="module")
def models(tiny_training_set):
    """Two differently trained rankers over the same corpus."""
    data = tiny_training_set.data
    return [
        RankSVM(RankSVMConfig()).fit(data),
        RankSVM(RankSVMConfig(C=1.0, pair_weighting="mean", solver="sgd")).fit(data),
    ]


@pytest.fixture(scope="module")
def presets():
    return {dims: preset_candidates(dims) for dims in (2, 3)}


def _assert_equivalent(model, enc, instance, candidates, raw=None):
    factored = model.decision_function(enc.factor(instance, candidates, raw))
    dense = model.decision_function(enc.encode_batch(instance, candidates))
    assert factored.shape == dense.shape == (len(candidates),)
    assert np.abs(factored - dense).max(initial=0.0) <= TOL
    assert np.array_equal(
        np.argsort(-factored, kind="stable"), np.argsort(-dense, kind="stable")
    )


def test_models_differ(models):
    a, b = models
    assert not np.allclose(a.w_, b.w_)


@pytest.mark.parametrize(
    "instance", BENCHMARK_INSTANCES, ids=[q.label() for q in BENCHMARK_INSTANCES]
)
def test_benchmark_presets(models, enc, presets, instance):
    candidates = presets[instance.dims]
    raw = raw_tunings(candidates)
    for model in models:
        _assert_equivalent(model, enc, instance, candidates, raw)


@st.composite
def generated_requests(draw):
    family = draw(st.sampled_from(sorted(TRAINING_SHAPES)))
    dims = draw(st.sampled_from([2, 3]))
    radius = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from(["float", "double"]))
    side = st.integers(16, 2048) if dims == 2 else st.integers(16, 512)
    size = (draw(side), draw(side), draw(side) if dims == 3 else 1)
    kernel = StencilKernel(
        f"gen-{family}-{dims}d-r{radius}-{dtype}",
        (TRAINING_SHAPES[family](dims, radius),),
        dtype=dtype,
        space_dims=dims,
    )
    seed = draw(st.integers(0, 2**16))
    candidates = patus_space(dims).random_vectors(256, rng=seed)
    return StencilInstance(kernel, size), candidates


@settings(max_examples=40, deadline=None)
@given(request=generated_requests())
def test_generated_instances(models, enc, request):
    instance, candidates = request
    for model in models:
        _assert_equivalent(model, enc, instance, candidates)


@pytest.mark.parametrize(
    "layout",
    [
        FeatureEncoder(include_pattern=False),
        FeatureEncoder(interactions=False),
        FeatureEncoder(include_pattern=False, interactions=False),
        FeatureEncoder(max_radius=2),
    ],
    ids=lambda e: e.fingerprint(),
)
def test_other_layouts(layout, presets):
    instance = BENCHMARK_INSTANCES[0]
    model = RankSVM()
    model.w_ = np.random.default_rng(3).normal(size=layout.num_features)
    rows = layout.factor(instance, presets[instance.dims])
    assert rows.num_features == layout.num_features
    _assert_equivalent(model, layout, instance, presets[instance.dims])


def test_duplicate_candidates_tie_by_index(models, enc):
    instance = BENCHMARK_INSTANCES[0]
    a, b, c = TuningVector(64, 8, 1, 2, 1), TuningVector(32, 32, 1, 0, 2), TuningVector(8, 4, 1, 4, 1)
    candidates = [a, b, a, c, b, a]
    for model in models:
        for rows in (
            enc.factor(instance, candidates),
            enc.encode_batch(instance, candidates),
        ):
            scores = model.decision_function(rows)
            assert scores[0] == scores[2] == scores[5]
            assert scores[1] == scores[4]
            order = np.argsort(-scores, kind="stable").tolist()
            for dups in ([0, 2, 5], [1, 4]):
                assert [i for i in order if i in dups] == dups


def test_empty_candidate_set(models, enc):
    rows = enc.factor(BENCHMARK_INSTANCES[0], [])
    assert len(rows) == 0
    assert models[0].decision_function(rows).shape == (0,)


def test_shape_mismatch_raises_like_dense(models, presets):
    narrow = FeatureEncoder(interactions=False)
    instance = BENCHMARK_INSTANCES[0]
    candidates = presets[instance.dims][:16]
    for rows in (
        narrow.factor(instance, candidates),
        narrow.encode_batch(instance, candidates),
    ):
        with pytest.raises(ValueError, match="feature dimension mismatch"):
            models[0].decision_function(rows)


def test_factored_rows_are_a_fraction_of_the_matrix(enc, presets):
    instance = BENCHMARK_INSTANCES[-1]
    rows = enc.factor(instance, presets[3])
    assert isinstance(rows, FactoredRows)
    assert rows.tuning.shape == (len(presets[3]), FeatureEncoder.N_TUNING)
    assert rows.tuning.nbytes * 30 < len(presets[3]) * enc.num_features * 8
