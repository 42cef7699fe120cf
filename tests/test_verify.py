"""Verification-suite checks: witness sampling and the Bloch cross-check.

``witness_residuals`` draws all separable samples in one batched call.
The reference below makes the same single generator call and builds each
product vector with explicit ``np.kron``: the batched route must leave the
generator in the same state and find the same minimum.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scstates import (
    SizeGuardError,
    build_witness,
    new_sc_state,
    oracle,
    random_sc_state,
    separability,
    verify,
)


def _reference_min(w, parties, dim, rng, samples):
    """min <v|W|v> over one draw of product vectors, each kron'd explicitly."""
    worst = np.inf
    for sample in rng.standard_normal((samples, parties, 2, dim)):
        v = np.ones(1, dtype=complex)
        for re, im in sample:
            local = re + 1j * im
            v = np.kron(v, local / np.linalg.norm(local))
        total = sum(x * v[c] * np.conj(v[r]) for r, c, x in w.terms)
        worst = min(worst, float(np.real(total)))
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
    ref_rng.standard_normal((50, 3, 2, 2))
    assert rng.random() == ref_rng.random()


def test_witness_without_samples_draws_nothing():
    rng = np.random.default_rng(6)
    before = rng.bit_generator.state
    _, worst = verify.witness_residuals(random_sc_state(2, 3, 6), rng, 0)
    assert worst == np.inf
    assert rng.bit_generator.state == before


def test_random_product_mixture_layout():
    local = verify.random_product_mixture(3, 4, np.random.default_rng(7), 20)
    assert local.shape == (20, 3, 4)
    assert np.abs(np.linalg.norm(local, axis=-1) - 1.0).max() <= 1e-12


def test_witness_residuals_peak_memory_stays_near_one_dense_state():
    state = random_sc_state(2, 30, 9)
    rho_bytes = 16 * 900 * 900
    tracemalloc.start()
    try:
        residual, _ = verify.witness_residuals(state, np.random.default_rng(9), 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak < 2 * rho_bytes


def _perturbed_bloch(monkeypatch, pick):
    """Patch ``bloch_decomposition`` to add 1e-6 to the entry of t ``pick`` names."""
    original = separability.bloch_decomposition

    def perturbed(state, split=1, **kwargs):
        b = original(state, split, **kwargs)
        t = b.t.copy()
        t[pick(b)] += 1e-6
        return separability.BlochDecomposition(split=b.split, r=b.r, s=b.s, t=t)

    monkeypatch.setattr(separability, "bloch_decomposition", perturbed)


def _largest_pair_entry(b):
    corner = np.abs(b.t[b.dim_first - 1 :, b.dim_rest - 1 :])
    i, j = np.unravel_index(corner.argmax(), corner.shape)
    return b.dim_first - 1 + i, b.dim_rest - 1 + j


@pytest.mark.parametrize(
    "pick", [lambda b: (0, b.dim_rest - 2), _largest_pair_entry], ids=["diagonal", "pair"]
)
def test_bloch_residuals_catch_a_wrong_closed_form(monkeypatch, pick):
    state = random_sc_state(3, 3, 12)
    tol = separability.DEFAULT_SEP_TOL
    assert verify.bloch_residuals(state, [1, 2], tol=tol) <= 1e-12
    _perturbed_bloch(monkeypatch, pick)
    residual = verify.bloch_residuals(state, [1, 2], tol=tol)
    assert np.isfinite(residual) and residual > tol


def test_bloch_residuals_guard_the_generator_tensors(monkeypatch):
    def refuse(d):
        raise AssertionError(f"su_generators({d}) built past the guard")

    monkeypatch.setattr(oracle, "su_generators", refuse)
    state = random_sc_state(3, 4, 13)  # split 1: R = 16, side 16^2 = 256
    monkeypatch.setenv("SC_SIZE_GUARD", "255")
    with pytest.raises(SizeGuardError):
        verify.bloch_residuals(state, [1])
    monkeypatch.setenv("SC_SIZE_GUARD", "256")
    with pytest.raises(AssertionError):
        verify.bloch_residuals(state, [1])
