"""Exactness of the guide-table sampler against per-draw binary search.

``InverseCdf.invert(u)`` must equal ``searchsorted(cdf, u, "right")``
element for element.  The adversarial ``u`` values sit exactly on the
guide's bucket edges and on the cdf's own steps, and one ulp either
side; the popularity vectors have flat cdf stretches (zero-mass
pages), a single page, extreme skew and a cold tail.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import registry
from repro.workloads.phases import RotatingWorkingSet, Stationary, SweepMix
from repro.workloads.zipf import (
    InverseCdf,
    sample_pages,
    shuffled,
    with_cold_tail,
    zipf_popularity,
)

#: The largest double below 1.0 (``rng.random`` never returns 1.0).
LAST_U = 1.0 - 2.0**-53


@st.composite
def popularities(draw):
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["zero-mass", "single", "zipf3", "cold-tail"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "single":
        return np.ones(1)
    if kind == "zipf3":
        return shuffled(zipf_popularity(n, 3.0), seed=seed)
    if kind == "cold-tail":
        active = draw(st.floats(0.05, 1.0))
        return with_cold_tail(zipf_popularity(n, 1.0), active, seed=seed)
    rng = np.random.default_rng(seed)
    weights = rng.random(n) * (rng.random(n) < draw(st.floats(0.05, 1.0)))
    # Zero-mass runs at both ends as well as inside.
    weights[: draw(st.integers(0, n // 3))] = 0.0
    weights[n - draw(st.integers(0, n // 3)):] = 0.0
    if weights.sum() == 0:
        weights[draw(st.integers(0, n - 1))] = 1.0
    return weights / weights.sum()


def _with_neighbours(points):
    points = np.asarray(points, dtype=np.float64)
    around = np.concatenate([
        points,
        np.nextafter(points, -np.inf),
        np.nextafter(points, np.inf),
        [0.0, LAST_U],
    ])
    return around[(around >= 0.0) & (around < 1.0)]


@given(popularities(), st.data())
def test_invert_equals_searchsorted_on_edges(popularity, data):
    inverse = InverseCdf(popularity)
    buckets = inverse.buckets
    edges = np.array(data.draw(st.lists(
        st.integers(0, buckets), min_size=1, max_size=64))) / buckets
    u = _with_neighbours(np.concatenate([edges, inverse.cdf]))
    expected = np.searchsorted(inverse.cdf, u, side="right")
    assert np.array_equal(inverse.invert(u), expected)


@given(popularities(), st.integers(0, 2**32))
def test_sample_equals_sample_pages(popularity, seed):
    fast_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    fast = InverseCdf(popularity).sample(2048, fast_rng)
    assert np.array_equal(fast, sample_pages(popularity, 2048, ref_rng))
    assert fast.dtype == np.int64
    # One rng.random(count) per call: the streams stay in step.
    assert fast_rng.random() == ref_rng.random()


class TestInverseCdf:
    def test_bucket_count_is_a_power_of_two_above_four_per_page(self):
        for n in (1, 3, 4, 5017, 65_536):
            buckets = InverseCdf(np.full(n, 1.0 / n)).buckets
            assert buckets & (buckets - 1) == 0
            assert 4 * n <= buckets < 8 * n

    def test_guide_dtype_is_narrow(self):
        inverse = InverseCdf(np.full(5017, 1 / 5017))
        assert inverse._guide.dtype == np.uint16
        assert inverse._guide.size == inverse.buckets


def _phase_models():
    pop = with_cold_tail(zipf_popularity(3000, 1.0), 0.4)
    return [
        Stationary(pop),
        SweepMix(pop, sweep_fraction=0.3, sweep_start=11),
        RotatingWorkingSet(pop, window_fraction=0.1, accesses_per_phase=5_000),
    ]


@pytest.mark.parametrize("phase", _phase_models(),
                         ids=lambda p: type(p).__name__)
def test_phase_pickled_mid_run_resumes_identically(phase):
    rng = np.random.default_rng(3)
    for _ in range(3):
        phase.sample(4096, rng)
    assert phase._inverse is not None
    blob = pickle.dumps((phase, rng))
    # Neither the guide table nor the cdf enters the pickle.
    assert len(blob) < phase.popularity.nbytes + 4096
    restored, restored_rng = pickle.loads(blob)
    assert restored._inverse is None
    for _ in range(4):
        assert np.array_equal(restored.sample(4096, restored_rng),
                              phase.sample(4096, rng))


def test_rotating_window_rebuilds_only_on_rotation():
    phase = RotatingWorkingSet(zipf_popularity(500, 1.0),
                               window_fraction=0.1, accesses_per_phase=10_000)
    rng = np.random.default_rng(0)
    built = []
    for _ in range(6):
        phase.sample(2_500, rng)
        built.append(phase._inverse)
    # 15k accesses cross one 10k phase boundary: two distinct tables.
    assert len({id(b) for b in built}) == 2
    assert phase._inverse_start == phase.stride


def test_rotating_window_matches_per_draw_reference():
    phase = RotatingWorkingSet(zipf_popularity(500, 1.0),
                               window_fraction=0.2, accesses_per_phase=3_000)
    rng = np.random.default_rng(5)
    ref_rng = np.random.default_rng(5)
    for _ in range(8):
        start = phase.current_window_start()
        expected = sample_pages(phase.window_popularity(start), 1_000, ref_rng)
        assert np.array_equal(phase.sample(1_000, rng), expected)


def test_registry_generator_pickled_mid_run_resumes_identically():
    gen = registry.build("liblinear", seed=2)
    for _ in range(3):
        gen.chunk(16_384)
    restored = pickle.loads(pickle.dumps(gen))
    for _ in range(4):
        assert np.array_equal(restored.chunk(16_384), gen.chunk(16_384))
