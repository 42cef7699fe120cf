"""Core state construction, validation, and ensemble realizations."""

import numpy as np
import pytest

from scstates import (
    Ensemble,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    UnsupportedDimensionError,
    equal_modulus_ensemble,
    ghz,
    new_pure_sc_state,
    new_sc_state,
    pure_to_mixed,
    random_pure_sc_state,
    random_sc_state,
    spectral_ensemble,
    validate_coeff_matrix,
)
from scstates.states import coeff_rank

RNG_SEED = 20240811


def test_new_sc_state_accepts_valid_matrix():
    a = np.array([[2 / 3, 1 / 3], [1 / 3, 1 / 3]])
    st = new_sc_state(3, 2, a)
    assert st.parties == 3
    assert st.dim == 2
    assert np.allclose(st.a, a)


def test_stored_matrix_is_write_protected():
    st = new_sc_state(2, 2, np.eye(2) / 2)
    with pytest.raises(ValueError):
        st.a[0, 0] = 0.9


def test_validation_symmetrizes_hermitian_dust():
    a = np.array([[0.5, 0.25 + 1e-12j], [0.25 - 0.5e-12j, 0.5]])
    out = validate_coeff_matrix(a)
    assert np.abs(out - out.conj().T).max() == 0.0


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        new_sc_state(2, 2, [[0.5, 0.5], [0.1, 0.5]])


def test_rejects_bad_trace():
    with pytest.raises(NotUnitTraceError):
        new_sc_state(2, 2, [[0.6, 0.0], [0.0, 0.6]])


def test_rejects_indefinite_matrix():
    # Hermitian, unit trace, but one negative eigenvalue
    with pytest.raises(NotPSDError):
        new_sc_state(2, 2, [[0.2, 0.5], [0.5, 0.8]])


def test_rejects_non_finite_and_non_square():
    with pytest.raises(ValueError):
        new_sc_state(2, 2, [[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        new_sc_state(2, 3, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        new_sc_state(1, 2, np.eye(2) / 2)


def test_pure_state_norm_validation():
    with pytest.raises(NotUnitTraceError):
        new_pure_sc_state(2, [1.0, 0.5])
    psi = new_pure_sc_state(2, [1.0, 0.0])
    assert psi.dim == 2


def test_ghz_amplitudes_and_promotion():
    for n in (2, 3, 5):
        psi = ghz(3, n)
        assert np.allclose(psi.amplitudes, 1 / np.sqrt(n))
        mixed = pure_to_mixed(psi)
        # (1/sqrt(N))^2 is 1/N only up to one rounding step
        assert np.abs(mixed.a - 1.0 / n).max() <= 1e-15


def test_pure_to_mixed_is_rank_one():
    rng = np.random.default_rng(RNG_SEED)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c /= np.linalg.norm(c)
    st = pure_to_mixed(new_pure_sc_state(2, c))
    vals = np.linalg.eigvalsh(st.a)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(vals[:-1]).max() < 1e-12


def test_spectral_ensemble_reconstructs():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        st = random_sc_state(3, 4, rng)
        ens = spectral_ensemble(st)
        assert np.abs(ens.coeff_matrix() - st.a).max() <= 1e-12
        w = ens.weights
        assert np.all(np.diff(w) <= 1e-14)  # descending
        assert w.sum() == pytest.approx(1.0, abs=1e-10)


def test_spectral_ensemble_drops_null_weights():
    c = np.array([np.sqrt(1 / 3), np.sqrt(2 / 3)])
    ens = spectral_ensemble(pure_to_mixed(new_pure_sc_state(2, c)))
    assert len(ens.components) == 1


@pytest.mark.parametrize(
    "eps, rank", [(1e-12, 2), (1e-12 * (1 - 1e-6), 2), (1e-12 * (1 + 1e-6), 3)]
)
def test_spectral_ensemble_size_is_the_rank_at_the_rank_tolerance(eps, rank):
    st = new_sc_state(2, 3, np.diag([0.75 - eps, 0.25, eps]))
    assert coeff_rank(st.a) == rank
    assert len(spectral_ensemble(st).components) == rank


def test_equal_modulus_moduli_and_reconstruction():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(50):
        st = random_sc_state(2, 2, rng)
        ens = equal_modulus_ensemble(st)
        assert len(ens.components) == 2
        assert np.allclose(ens.weights, 0.5)
        for psi in ens.states:
            assert abs(psi.amplitudes[0]) == pytest.approx(
                np.sqrt(st.a[0, 0].real), abs=1e-12
            )
            assert abs(psi.amplitudes[1]) == pytest.approx(
                np.sqrt(st.a[1, 1].real), abs=1e-12
            )
        assert np.abs(ens.coeff_matrix() - st.a).max() <= 1e-10


def test_equal_modulus_diagonal_case():
    st = new_sc_state(2, 2, np.diag([0.5, 0.5]))
    ens = equal_modulus_ensemble(st)
    # two components whose relative phases differ by pi
    z0 = ens.states[0].amplitudes
    z1 = ens.states[1].amplitudes
    rel0 = z0[1] / z0[0]
    rel1 = z1[1] / z1[0]
    assert abs(rel0 + rel1) < 1e-12
    assert np.abs(ens.coeff_matrix() - st.a).max() <= 1e-12


def test_equal_modulus_pure_input_collapses():
    c = np.array([np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)])
    ens = equal_modulus_ensemble(pure_to_mixed(new_pure_sc_state(4, c)))
    assert len(ens.components) == 1
    assert ens.weights[0] == pytest.approx(1.0)


def test_equal_modulus_degenerate_support():
    st = new_sc_state(3, 2, np.diag([1.0, 0.0]))
    ens = equal_modulus_ensemble(st)
    assert len(ens.components) == 1
    assert abs(ens.states[0].amplitudes[0]) == pytest.approx(1.0)


def test_equal_modulus_requires_two_levels():
    st = new_sc_state(2, 3, np.eye(3) / 3)
    with pytest.raises(UnsupportedDimensionError):
        equal_modulus_ensemble(st)


def test_random_state_deterministic_per_seed():
    a = random_sc_state(3, 3, 12345).a
    b = random_sc_state(3, 3, 12345).a
    c = random_sc_state(3, 3, 12346).a
    assert np.array_equal(a, b)  # bit-for-bit
    assert not np.array_equal(a, c)


def test_random_state_population_statistics():
    # Ginibre-induced: each diagonal coefficient has mean 1/N
    total = 0.0
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(1000):
        total += random_sc_state(2, 2, rng).a[0, 0].real
    assert abs(total / 1000 - 0.5) < 0.05


def test_random_pure_support_size():
    rng = np.random.default_rng(RNG_SEED + 3)
    for t in (1, 2, 3, 5):
        psi = random_pure_sc_state(2, 5, rng, support_size=t)
        assert int((np.abs(psi.amplitudes) > 1e-12).sum()) == t
        assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0)


def test_ensemble_weights_and_states_views():
    st = random_sc_state(2, 3, 9)
    ens = spectral_ensemble(st)
    assert isinstance(ens, Ensemble)
    assert len(ens.weights) == len(ens.states)
