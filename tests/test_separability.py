"""Partial-transpose spectra, witnesses, realignment, and the Bloch test."""

import time

import numpy as np
import pytest

from scstates import (
    bloch_decomposition,
    build_witness,
    check_corollary2,
    ghz,
    is_fully_separable,
    new_sc_state,
    pt_spectrum,
    pure_to_mixed,
    random_sc_state,
    realignment_norm,
    witness_expectation,
)
from scstates.oracle import (
    dense_from_sc,
    hermitian_eigen,
    partial_transpose,
    repeated_basis_index,
    su_generators,
)
from scstates.verify import bloch_coefficients

THREE_QUBIT_MIXED = [[2 / 3, 1 / 3], [1 / 3, 1 / 3]]


def test_pt_spectrum_fields():
    st = new_sc_state(3, 2, THREE_QUBIT_MIXED)
    pt = pt_spectrum(st)
    assert np.allclose(np.sort(pt.diagonal), [1 / 3, 2 / 3])
    assert np.allclose(pt.pair_magnitudes, [1 / 3])
    assert pt.zero_multiplicity == 8 - 4
    assert pt.min_eigenvalue() == pytest.approx(-1 / 3)


def test_pt_spectrum_ghz22():
    pt = pt_spectrum(pure_to_mixed(ghz(2, 2)))
    assert np.allclose(pt.diagonal, [0.5, 0.5])
    assert np.allclose(pt.pair_magnitudes, [0.5])
    assert pt.zero_multiplicity == 0
    assert pt.min_eigenvalue() == pytest.approx(-0.5)


def test_pt_spectrum_counts_zeros_without_materializing():
    st = pure_to_mixed(ghz(40, 2))  # 2^40 eigenvalues, fields stay cheap
    pt = pt_spectrum(st)
    assert pt.zero_multiplicity == 2**40 - 4


def test_pt_spectrum_subset_independent():
    rng = np.random.default_rng(100)
    st = random_sc_state(3, 2, rng)
    rho = dense_from_sc(st)
    pt = pt_spectrum(st)
    pairs, zeros = pt.pair_magnitudes, np.zeros(pt.zero_multiplicity)
    expected = np.sort(np.concatenate([pt.diagonal, pairs, -pairs, zeros]))
    for subset in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
        vals, _ = hermitian_eigen(partial_transpose(rho, subset, [2, 2, 2]))
        assert np.abs(vals - expected).max() <= 1e-9


def _sample_states():
    """Random mixed, rank-one and diagonal states, N = 2..8, with k up to 25 (8^25 > 2^63)."""
    rng = np.random.default_rng(104)
    states = [random_sc_state(int(rng.integers(2, 6)), int(rng.integers(2, 9)), rng) for _ in range(20)]
    states += [random_sc_state(25, 8, rng), pure_to_mixed(ghz(25, 8))]
    states += [new_sc_state(3, 3, np.diag([0.2, 0.3, 0.5]))]
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = [[0.25, 0.25j], [-0.25j, 0.25]]
    a[2, 2] = a[3, 3] = 0.25  # some pairs zero, some not
    return states + [new_sc_state(4, 4, a)]


def test_pt_spectrum_pair_magnitudes_equal_scalar_abs_bitwise():
    for st in _sample_states():
        a = st.a
        expected = np.array([abs(a[m, j]) for m in range(st.dim) for j in range(m + 1, st.dim)])
        assert pt_spectrum(st).pair_magnitudes.tobytes() == expected.tobytes()


def _reference_witness(state):
    """The witness's terms and source pairs as the per-pair loop built them."""
    a = state.a
    n, k = state.dim, state.parties
    lead = n ** (k - 1)
    terms, pairs = [], []
    for m in range(n):
        for j in range(m + 1, n):
            amn = a[m, j]
            if amn == 0:
                continue
            pairs.append((m, j))
            phase = np.exp(1j * np.angle(amn))
            idx_mn = m * lead + repeated_basis_index(j, k - 1, n)
            idx_nm = j * lead + repeated_basis_index(m, k - 1, n)
            rep_m = repeated_basis_index(m, k, n)
            rep_n = repeated_basis_index(j, k, n)
            terms.append((idx_mn, idx_mn, 0.5 + 0j))
            terms.append((idx_nm, idx_nm, 0.5 + 0j))
            terms.append((rep_m, rep_n, -0.5 * phase))
            terms.append((rep_n, rep_m, -0.5 * np.conj(phase)))
    return tuple(terms), tuple(pairs)


def test_build_witness_matches_per_pair_loop():
    for st in _sample_states():
        w = build_witness(st)
        terms, pairs = _reference_witness(st)
        assert w.source_pairs == pairs
        assert w.terms == terms
        for (r, c, v), (r0, c0, v0) in zip(w.terms, terms):
            assert type(r) is int and type(c) is int  # exact beyond int64
            assert np.complex128(v).tobytes() == np.complex128(v0).tobytes()


def test_is_fully_separable():
    assert is_fully_separable(new_sc_state(2, 3, np.diag([0.2, 0.3, 0.5])))
    assert not is_fully_separable(new_sc_state(3, 2, THREE_QUBIT_MIXED))
    # tolerance knob
    a = np.diag([0.5, 0.5]).astype(complex)
    a[0, 1] = a[1, 0] = 1e-6
    st = new_sc_state(2, 2, a)
    assert not is_fully_separable(st)
    assert is_fully_separable(st, tol=1e-5)


def test_witness_ghz22_dense_form():
    st = pure_to_mixed(ghz(2, 2))
    w = build_witness(st)
    assert w.source_pairs == ((0, 1),)
    dense = w.to_dense()
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[0, 3] = expected[3, 0] = -0.5
    assert np.abs(dense - expected).max() <= 1e-15
    assert witness_expectation(w, st) == pytest.approx(-0.5, abs=1e-12)


def test_witness_three_qubit_flat_indices():
    st = new_sc_state(3, 2, THREE_QUBIT_MIXED)
    w = build_witness(st)
    positions = sorted((r, c) for r, c, _ in w.terms)
    assert positions == [(0, 7), (3, 3), (4, 4), (7, 0)]
    assert witness_expectation(w, st) == pytest.approx(-1 / 3, abs=1e-12)


def test_witness_terms_hermitian_closed():
    rng = np.random.default_rng(101)
    st = random_sc_state(2, 4, rng)
    w = build_witness(st)
    terms = {(r, c): v for r, c, v in w.terms}
    for (r, c), v in terms.items():
        assert terms[(c, r)] == pytest.approx(np.conj(v))
    dense = w.to_dense()
    assert np.abs(dense - dense.conj().T).max() <= 1e-15


def test_witness_expectation_routes_agree():
    rng = np.random.default_rng(102)
    for _ in range(10):
        st = random_sc_state(3, 3, rng)
        w = build_witness(st)
        target = -sum(abs(st.a[m, n]) for m in range(3) for n in range(m + 1, 3))
        assert witness_expectation(w, st) == pytest.approx(target, abs=1e-12)
        dense_val = np.trace(w.to_dense() @ dense_from_sc(st)).real
        assert dense_val == pytest.approx(target, abs=1e-12)


def test_witness_nonnegative_on_separable_samples():
    rng = np.random.default_rng(103)
    st = random_sc_state(3, 2, rng)
    w = build_witness(st)
    for parts in rng.standard_normal((200, 3, 2, 2)):
        f = [(re + 1j * im) / np.linalg.norm(re + 1j * im) for re, im in parts]
        vec = np.kron(np.kron(f[0], f[1]), f[2])
        total = sum(v * vec[c] * np.conj(vec[r]) for r, c, v in w.terms)
        assert total.real >= -1e-9


def test_witness_empty_for_separable_source():
    st = new_sc_state(2, 2, np.diag([0.4, 0.6]))
    w = build_witness(st)
    assert w.terms == ()
    assert witness_expectation(w, st) == 0.0


def test_witness_dimension_mismatch():
    w = build_witness(pure_to_mixed(ghz(2, 2)))
    with pytest.raises(ValueError):
        witness_expectation(w, pure_to_mixed(ghz(3, 2)))
    with pytest.raises(TypeError):
        witness_expectation(w, np.eye(4) / 4)


def test_realignment_norm_values():
    assert realignment_norm(new_sc_state(3, 2, THREE_QUBIT_MIXED)) == pytest.approx(
        5 / 3, abs=1e-12
    )
    assert realignment_norm(new_sc_state(2, 3, np.eye(3) / 3)) == pytest.approx(1.0)
    for n in (2, 3, 4):
        g = pure_to_mixed(ghz(2, n))
        assert realignment_norm(g) == pytest.approx(n, abs=1e-12)
    rng = np.random.default_rng(104)
    for _ in range(20):
        st = random_sc_state(2, 3, rng)
        assert 1.0 - 1e-12 <= realignment_norm(st) <= 3.0 + 1e-12


def test_bloch_split_validation():
    st = pure_to_mixed(ghz(3, 2))
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            bloch_decomposition(st, bad)


def test_bloch_shapes_and_reality():
    st = random_sc_state(3, 2, 105)
    b = bloch_decomposition(st, 1)
    assert b.split == 1
    assert b.r_diagonal.shape == (1,) and b.s_diagonal.shape == (3,)
    assert b.t_first.shape == (1, 2) and b.t_rest.shape == (3, 2)
    assert b.pair_first.shape == b.pair_rest.shape == b.pair_values.shape == (1,)
    assert b.dim_first == 2 and b.dim_rest == 4
    r, s, t = bloch_coefficients(b)
    assert r.shape == (3,)
    assert s.shape == (15,)
    assert t.shape == (3, 15)
    assert r.dtype == float and s.dtype == float and t.dtype == float


def test_corollary2_matches_off_diagonal_test():
    rng = np.random.default_rng(107)
    for _ in range(10):
        st = random_sc_state(3, 2, rng)
        b = bloch_decomposition(st, 1)
        assert check_corollary2(b) == is_fully_separable(st)
    diag = new_sc_state(3, 3, np.diag([0.1, 0.2, 0.7]))
    for split in (1, 2):
        assert check_corollary2(bloch_decomposition(diag, split))


def _dense_projection(state, split):
    """(r, s, t) by tracing the dense state against generator tensor products."""
    m = state.dim**split
    r_dim = state.dim ** (state.parties - split)
    rho4 = dense_from_sc(state).reshape(m, r_dim, m, r_dim)
    gm, gr = su_generators(m), su_generators(r_dim)
    r = (m / 2.0) * np.einsum("abcb,ica->i", rho4, gm)
    s = (r_dim / 2.0) * np.einsum("abad,jdb->j", rho4, gr)
    t = (m * r_dim / 4.0) * np.einsum("abcd,ica,jdb->ij", rho4, gm, gr)
    return r, s, t


@pytest.mark.parametrize(
    "parties, dim",
    [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (3, 4), (4, 3), (5, 2)],
)
def test_bloch_closed_form_matches_dense_projection(parties, dim):
    st = random_sc_state(parties, dim, 10 * parties + dim)
    assert np.abs(st.a.imag).max() > 0.01
    for split in range(1, parties):
        r, s, t = bloch_coefficients(bloch_decomposition(st, split))
        r_ref, s_ref, t_ref = _dense_projection(st, split)
        assert np.abs(r - r_ref).max() <= 1e-12
        assert np.abs(s - s_ref).max() <= 1e-12
        assert np.abs(t - t_ref).max() <= 1e-12


def test_bloch_five_qutrits_is_fast():
    st = random_sc_state(5, 3, 109)
    start = time.perf_counter()
    for split in range(1, 5):
        _, _, t = bloch_coefficients(bloch_decomposition(st, split))
        assert t.shape == (9**split - 1, 9 ** (5 - split) - 1)
    assert time.perf_counter() - start < 2.0


def test_bloch_eight_ququarts_needs_no_size_guard(monkeypatch):
    monkeypatch.setenv("SC_SIZE_GUARD", "1")
    st = random_sc_state(8, 4, 110)  # N^k = 65,536
    start = time.perf_counter()
    decompositions = [bloch_decomposition(st, split) for split in (1, 4, 7)]
    assert time.perf_counter() - start < 0.5
    for b in decompositions:
        stored = [v.size for v in vars(b).values() if isinstance(v, np.ndarray)]
        assert max(stored) <= max(b.dim_first, b.dim_rest) * 4
        assert not check_corollary2(b)
    diag = new_sc_state(8, 4, np.diag([0.1, 0.2, 0.3, 0.4]))
    for split in (1, 4, 7):
        assert check_corollary2(bloch_decomposition(diag, split))


def test_bloch_reconstructs_density_matrix():
    rng = np.random.default_rng(108)
    for parties, dim, split in ((2, 2, 1), (3, 2, 1), (3, 2, 2), (2, 3, 1)):
        st = random_sc_state(parties, dim, rng)
        b = bloch_decomposition(st, split)
        m, r_dim = b.dim_first, b.dim_rest
        r, s, t = bloch_coefficients(b)
        gm = su_generators(m)
        gr = su_generators(r_dim)
        rec = np.einsum("ac,bd->abcd", np.eye(m, dtype=complex), np.eye(r_dim))
        rec += np.einsum("i,iac,bd->abcd", r, gm, np.eye(r_dim))
        rec += np.einsum("j,ac,jbd->abcd", s, np.eye(m), gr)
        rec += np.einsum("ij,iac,jbd->abcd", t, gm, gr)
        rec = rec.reshape(m * r_dim, m * r_dim) / (m * r_dim)
        assert np.abs(rec - dense_from_sc(st)).max() <= 1e-12


def test_corollary2_tolerance_knob():
    a = np.diag([0.5, 0.5]).astype(complex)
    a[0, 1] = a[1, 0] = 1e-6
    st = new_sc_state(2, 2, a)
    b = bloch_decomposition(st, 1)
    assert not check_corollary2(b)
    assert check_corollary2(b, tol=1e-3)
