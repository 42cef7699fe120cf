"""Dense brute-force toolkit: eigensolver, transposes, realignment, entropies.

The Jacobi eigensolver is the verification backbone for the whole package,
so it gets cross-checked here against numpy's LAPACK eigensolver (the one
code path the closed forms use) on random matrices.
"""

import numpy as np
import pytest

from scstates import (
    SizeGuardError,
    ghz,
    new_pure_sc_state,
    new_sc_state,
    pure_to_mixed,
    random_sc_state,
    verify,
)
from scstates.errors import NotHermitianError, NotPSDError
from scstates.oracle import (
    dense_from_sc,
    dense_pure,
    hermitian_eigen,
    normalize_party_subset,
    partial_transpose,
    realign,
    reduced_density,
    relative_entropy_dense,
    repeated_basis_index,
    su_generators,
    trace_norm,
    von_neumann_entropy,
)

RNG = np.random.default_rng(777)


def random_hermitian(n, rng=RNG):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def test_repeated_basis_index():
    assert repeated_basis_index(0, 3, 2) == 0
    assert repeated_basis_index(1, 3, 2) == 7
    assert repeated_basis_index(2, 2, 3) == 8
    assert repeated_basis_index(1, 4, 3) == 1 + 3 + 9 + 27
    assert repeated_basis_index(np.arange(4), 3, 4).tolist() == [0, 21, 42, 63]
    big = repeated_basis_index(7, 25, 8)  # a Python int, exact past int64
    assert isinstance(big, int) and big == 8**25 - 1 > 2**63


def test_party_subset_normalization():
    assert normalize_party_subset([3, 1, 1], 4) == (1, 3)
    with pytest.raises(ValueError):
        normalize_party_subset([], 3)
    with pytest.raises(ValueError):
        normalize_party_subset([0], 3)
    with pytest.raises(ValueError):
        normalize_party_subset([1, 2, 3], 3, proper=True)


def test_dense_ghz22_entries():
    rho = dense_from_sc(pure_to_mixed(ghz(2, 2)))
    expected = np.zeros((4, 4))
    for r in (0, 3):
        for c in (0, 3):
            expected[r, c] = 0.5
    assert np.abs(rho - expected).max() <= 1e-15


def test_dense_diagonal_two_qubits():
    st = new_sc_state(2, 2, np.diag([0.7, 0.3]))
    rho = dense_from_sc(st)
    assert np.allclose(np.diagonal(rho), [0.7, 0, 0, 0.3])
    assert np.abs(rho - np.diag(np.diagonal(rho))).max() == 0.0


def test_dense_three_qubit_worked_state():
    st = new_sc_state(3, 2, [[2 / 3, 1 / 3], [1 / 3, 1 / 3]])
    rho = dense_from_sc(st)
    # support lives on flat indices 0 (=000) and 7 (=111)
    assert rho[0, 0] == pytest.approx(2 / 3)
    assert rho[0, 7] == pytest.approx(1 / 3)
    assert rho[7, 0] == pytest.approx(1 / 3)
    assert rho[7, 7] == pytest.approx(1 / 3)
    mask = np.ones((8, 8), bool)
    mask[np.ix_([0, 7], [0, 7])] = False
    assert np.abs(rho[mask]).max() == 0.0


def test_dense_pure_vector():
    vec = dense_pure(ghz(3, 2))
    assert vec[0] == pytest.approx(1 / np.sqrt(2))
    assert vec[7] == pytest.approx(1 / np.sqrt(2))
    assert np.abs(np.delete(vec, [0, 7])).max() == 0.0


def test_size_guard_trips(monkeypatch):
    monkeypatch.setenv("SC_SIZE_GUARD", "80")
    with pytest.raises(SizeGuardError):
        dense_from_sc(pure_to_mixed(ghz(4, 3)))
    monkeypatch.delenv("SC_SIZE_GUARD")
    with pytest.raises(SizeGuardError):
        dense_from_sc(pure_to_mixed(ghz(6, 4)))  # 4096 > default guard


def test_partial_transpose_involution():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    pt = partial_transpose(m, [2], [2, 2, 2])
    assert np.array_equal(partial_transpose(pt, [2], [2, 2, 2]), m)
    assert np.trace(pt) == pytest.approx(np.trace(m))


def test_partial_transpose_ghz22_spectrum():
    rho = dense_from_sc(pure_to_mixed(ghz(2, 2)))
    vals, _ = hermitian_eigen(partial_transpose(rho, [1], [2, 2]))
    assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_of_product_state():
    rng = np.random.default_rng(4)
    g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s1 = g1 @ g1.conj().T
    s2 = g2 @ g2.conj().T
    s1 /= np.trace(s1).real
    s2 /= np.trace(s2).real
    pt = partial_transpose(np.kron(s1, s2), [1], [2, 3])
    assert np.abs(pt - np.kron(s1.T, s2)).max() <= 1e-15
    assert np.linalg.eigvalsh(pt).min() > -1e-12


def test_partial_transpose_dim_mismatch():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6), [1], [2, 2, 2])


def test_jacobi_on_diagonal_input():
    d = np.diag([3.0, -1.0, 2.0])
    vals, vecs = hermitian_eigen(d.astype(complex))
    assert np.allclose(vals, [-1.0, 2.0, 3.0])
    assert np.abs(np.abs(vecs) - np.abs(vecs).round()).max() <= 1e-12


def test_jacobi_two_by_two_offdiagonal():
    a = 0.3 - 0.4j
    vals, _ = hermitian_eigen(np.array([[0, a], [np.conj(a), 0]]))
    assert np.allclose(vals, [-abs(a), abs(a)], atol=1e-14)


def test_jacobi_matches_lapack_and_reconstructs():
    rng = np.random.default_rng(5)
    for n in (2, 5, 16, 33, 64):
        m = random_hermitian(n, rng)
        vals, vecs = hermitian_eigen(m)
        scale = max(1.0, np.abs(m).max())
        assert np.abs(vals - np.linalg.eigvalsh(m)).max() <= 1e-9 * scale
        assert np.abs(vecs @ vecs.conj().T - np.eye(n)).max() <= 1e-9
        assert np.abs(vecs @ np.diag(vals) @ vecs.conj().T - m).max() <= 1e-9 * scale
        assert vals.sum() == pytest.approx(np.trace(m).real, abs=1e-10 * scale)


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_realign_entry_permutation_and_involution():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    r = realign(m, 2, 3)
    assert r.shape == (4, 9)
    # entry identity: R[i*dA+k, j*dB+l] == m[i*dB+j, k*dB+l]
    for i in range(2):
        for k in range(2):
            for j in range(3):
                for l in range(3):
                    assert r[i * 2 + k, j * 3 + l] == m[i * 3 + j, k * 3 + l]
    # for a square split the permutation is an involution
    sq = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert np.array_equal(realign(realign(sq, 3, 3), 3, 3), sq)


def test_realign_product_state_is_rank_one():
    rng = np.random.default_rng(7)
    g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    s1 = g1 @ g1.conj().T
    s2 = g2 @ g2.conj().T
    s1 /= np.trace(s1).real
    s2 /= np.trace(s2).real
    r = realign(np.kron(s1, s2), 2, 2)
    vals = np.linalg.svd(r, compute_uv=False)
    assert (vals > 1e-12).sum() == 1
    assert trace_norm(r) <= 1.0 + 1e-12


def test_realigned_sc_state_trace_norm():
    st = new_sc_state(3, 2, [[2 / 3, 1 / 3], [1 / 3, 1 / 3]])
    r = realign(dense_from_sc(st), 2, 4)
    assert trace_norm(r) == pytest.approx(5 / 3, abs=1e-12)


@pytest.mark.parametrize("parties, dim", [(2, 3), (3, 3), (3, 2), (4, 2)])
def test_realigned_sc_state_singular_values_are_the_moduli(parties, dim):
    # a weighted permutation: its N^2 singular values are the |a_mn|
    st = random_sc_state(parties, dim, 10 * parties + dim)
    r = realign(dense_from_sc(st), dim, dim ** (parties - 1))
    sv = np.linalg.svd(r, compute_uv=False)
    assert sv.size == dim * dim
    assert np.abs(sv - np.sort(np.abs(st.a).ravel())[::-1]).max() <= 1e-12


def test_trace_norm_basics():
    d = np.diag([1.0, -2.0, 0.5])
    assert trace_norm(d) == pytest.approx(3.5, abs=1e-12)
    rng = np.random.default_rng(8)
    m = random_hermitian(7, rng)
    assert trace_norm(m) == pytest.approx(
        np.abs(np.linalg.eigvalsh(m)).sum(), abs=1e-9
    )
    # rectangular: sum of singular values
    g = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    assert trace_norm(g) == pytest.approx(
        np.linalg.svd(g, compute_uv=False).sum(), abs=1e-9
    )


def test_von_neumann_entropy_values():
    psi = dense_pure(ghz(2, 2))
    pure = np.outer(psi, psi.conj())
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-10)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-10)
    assert von_neumann_entropy(np.eye(3) / 3) == pytest.approx(np.log2(3), abs=1e-10)
    red = reduced_density(dense_from_sc(pure_to_mixed(ghz(3, 2))), [1], [2, 2, 2])
    assert von_neumann_entropy(red) == pytest.approx(1.0, abs=1e-12)


def test_von_neumann_entropy_rejects_non_state():
    with pytest.raises(NotPSDError):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_relative_entropy_dense_values():
    rho = dense_from_sc(pure_to_mixed(ghz(3, 2)))
    assert relative_entropy_dense(rho, rho) == pytest.approx(0.0, abs=1e-10)
    sigma = dense_from_sc(new_sc_state(3, 2, np.diag([0.5, 0.5])))
    assert relative_entropy_dense(rho, sigma) == pytest.approx(1.0, abs=1e-10)


def test_relative_entropy_dense_support_violation():
    rho = np.eye(4) / 4
    sigma = np.diag([0.5, 0.5, 0.0, 0.0])
    assert relative_entropy_dense(rho, sigma) == np.inf


def test_su_generators_d2_are_pauli_like():
    gens = su_generators(2)
    assert len(gens) == 3
    assert np.allclose(gens[0], np.diag([1.0, -1.0]))
    assert np.allclose(gens[1], np.array([[0, 1], [1, 0]]))
    assert np.allclose(gens[2], np.array([[0, -1j], [1j, 0]]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_su_generators_orthogonality(d):
    gens = su_generators(d)
    assert gens.shape == (d * d - 1, d, d)
    for a in range(len(gens)):
        assert abs(np.trace(gens[a])) <= 1e-12
        assert np.abs(gens[a] - gens[a].conj().T).max() <= 1e-12
        for b in range(a, len(gens)):
            expected = 2.0 if a == b else 0.0
            assert np.trace(gens[a] @ gens[b]) == pytest.approx(expected, abs=1e-12)


def test_reduced_density_of_pure_sc_state():
    rng = np.random.default_rng(9)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c /= np.linalg.norm(c)
    rho = dense_from_sc(pure_to_mixed(new_pure_sc_state(3, c)))
    for party in (1, 2, 3):
        red = reduced_density(rho, [party], [3, 3, 3])
        assert np.abs(red - np.diag(np.abs(c) ** 2)).max() <= 1e-12
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_recovers_product_factor():
    rng = np.random.default_rng(10)
    g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s1 = g1 @ g1.conj().T
    s2 = g2 @ g2.conj().T
    s1 /= np.trace(s1).real
    s2 /= np.trace(s2).real
    out = reduced_density(np.kron(s1, s2), [2], [2, 3])
    assert np.abs(out - s2).max() <= 1e-12


def test_dense_spectrum_matches_coefficients():
    rng = np.random.default_rng(11)
    for _ in range(5):
        st = random_sc_state(3, 3, rng)
        vals, _ = hermitian_eigen(dense_from_sc(st))
        small = np.linalg.eigvalsh(st.a)
        expected = np.sort(np.concatenate([small, np.zeros(27 - 3)]))
        assert np.abs(vals - expected).max() <= 1e-9


def test_negativity_residual_resolves_tolerance_scale_coherences():
    # a01 = a12 = 0.8e-9 sit just below the default 1e-9 tolerance
    a = np.diag([0.4, 0.3, 0.3]).astype(complex)
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 0.8e-9
    assert verify.negativity_residual(new_sc_state(3, 3, a)) <= 1e-12


def test_realignment_residual_resolves_tolerance_scale_coherences():
    a = np.diag([0.4, 0.3, 0.3]).astype(complex)
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 0.8e-9
    assert verify.realignment_residual(new_sc_state(3, 3, a)) <= 1e-12


def test_trace_norm_keeps_small_singular_values():
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    sing = np.array([1.0, 0.3, 1e-9, 0.0])
    m = u @ np.diag(sing) @ v[:4]
    assert trace_norm(m) == pytest.approx(sing.sum(), abs=1e-14)
    assert trace_norm(m.conj().T) == pytest.approx(sing.sum(), abs=1e-14)
