"""Witness sampling in the verification suite: draws and minima.

``witness_residuals`` draws all separable samples in one batched call.
The references below are the per-sample sampler it replaced, with
explicit ``np.kron`` product vectors: the batched route must leave the
generator in the same state and find the same minimum.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scstates import build_witness, new_sc_state, random_sc_state, verify


def _reference_mixture(parties, dim, rng, max_components=4):
    """One sample: 2 * count * parties standard_normal calls, kron'd vectors."""
    count = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(count))
    vectors = []
    for _ in range(count):
        v = np.ones(1, dtype=complex)
        for _ in range(parties):
            local = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            local /= np.linalg.norm(local)
            v = np.kron(v, local)
        vectors.append(v)
    return weights, vectors


def _reference_min(w, parties, dim, rng, samples):
    worst = np.inf
    for _ in range(samples):
        weights, vectors = _reference_mixture(parties, dim, rng)
        total = 0.0 + 0.0j
        for r, c, v in w.terms:
            total += v * sum(wt * vec[c] * np.conj(vec[r]) for wt, vec in zip(weights, vectors))
        worst = min(worst, float(total.real))
    return worst


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    parties=st.integers(2, 4),
    dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1, 30),
)
def test_witness_samples_match_per_sample_reference(parties, dim, seed, samples):
    state = random_sc_state(parties, dim, seed)
    rng = np.random.default_rng([seed, 1])
    _, worst = verify.witness_residuals(state, rng, samples)
    ref_rng = np.random.default_rng([seed, 1])
    expected = _reference_min(build_witness(state), parties, dim, ref_rng, samples)
    assert rng.random() == ref_rng.random()
    assert abs(worst - expected) <= 1e-12


def test_witness_samples_in_several_blocks_match_reference():
    # N = 16 has 480 witness terms: the samples are evaluated in blocks
    state = random_sc_state(2, 16, 8)
    rng = np.random.default_rng(8)
    _, worst = verify.witness_residuals(state, rng, 100)
    ref_rng = np.random.default_rng(8)
    expected = _reference_min(build_witness(state), 2, 16, ref_rng, 100)
    assert rng.random() == ref_rng.random()
    assert abs(worst - expected) <= 1e-12


def test_witness_samples_of_separable_source_are_zero():
    state = new_sc_state(3, 2, np.diag([0.4, 0.6]))
    rng = np.random.default_rng(5)
    assert verify.witness_residuals(state, rng, 50) == (0.0, 0.0)
    ref_rng = np.random.default_rng(5)
    for _ in range(50):
        _reference_mixture(3, 2, ref_rng)
    assert rng.random() == ref_rng.random()


def test_witness_without_samples_draws_nothing():
    rng = np.random.default_rng(6)
    before = rng.bit_generator.state
    _, worst = verify.witness_residuals(random_sc_state(2, 3, 6), rng, 0)
    assert worst == np.inf
    assert rng.bit_generator.state == before


def test_random_product_mixture_layout():
    weights, local = verify.random_product_mixture(3, 4, np.random.default_rng(7), 20)
    assert weights.shape == (20, 4) and local.shape == (20, 4, 3, 4)
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12
    norms = np.linalg.norm(local, axis=-1)
    live = weights > 0.0
    assert np.abs(norms[live] - 1.0).max() <= 1e-12
    assert not norms[~live].any()
