"""Dense brute-force toolkit: eigensolver, transposes, realignment, entropies.

The Jacobi eigensolver is the verification backbone for the whole package
(eigenvalues, partial-transpose spectra and trace norms all come from its
one rotation loop), so it gets cross-checked here against numpy's LAPACK
routines (the code path the closed forms use) on random matrices.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from scstates import (
    SizeGuardError,
    build_witness,
    ghz,
    new_pure_sc_state,
    new_sc_state,
    oracle,
    pure_to_mixed,
    random_sc_state,
    verify,
)
from scstates.errors import EigenConvergenceError, NotHermitianError, NotPSDError
from scstates.states import DEFAULT_TOL
from scstates.oracle import (
    dense_from_sc,
    dense_pure,
    generator_combination,
    hermitian_eigen,
    normalize_party_subset,
    partial_transpose,
    realign,
    reduced_density,
    relative_entropy_dense,
    repeated_basis_index,
    state_spectra,
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
    vals = hermitian_eigen(partial_transpose(rho, [1], [2, 2]))
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
    vals = hermitian_eigen(d.astype(complex))
    assert np.allclose(vals, [-1.0, 2.0, 3.0])


def test_jacobi_two_by_two_offdiagonal():
    a = 0.3 - 0.4j
    vals = hermitian_eigen(np.array([[0, a], [np.conj(a), 0]]))
    assert np.allclose(vals, [-abs(a), abs(a)], atol=1e-14)


def _permuted_block_diagonal(rng, sizes=(3, 1, 4, 2)):
    """Random Hermitian blocks conjugated by a random permutation, so that
    no component of the nonzero pattern is a contiguous index range."""
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        m[start : start + size, start : start + size] = random_hermitian(size, rng)
        start += size
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


def test_jacobi_matches_lapack_and_reconstructs():
    rng = np.random.default_rng(5)
    panel = [random_hermitian(n, rng) for n in (2, 5, 16, 33, 64)]
    panel.append(_permuted_block_diagonal(rng))
    for m in panel:
        vals = hermitian_eigen(m)
        scale = max(1.0, np.abs(m).max())
        assert np.abs(vals - np.linalg.eigvalsh(m)).max() <= 1e-9 * scale
        # the spectrum gives back the trace and the Frobenius norm
        assert vals.sum() == pytest.approx(np.trace(m).real, abs=1e-10 * scale)
        assert np.square(vals).sum() == pytest.approx(np.linalg.norm(m) ** 2, rel=1e-12)


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _no_rotation(*args):
    # patched in to show that non-finite input is refused before any sweep
    raise AssertionError("a Jacobi rotation was attempted")


def test_jacobi_rejects_non_finite_before_any_sweep(monkeypatch):
    monkeypatch.setattr(oracle, "_jacobi_rotation", _no_rotation)
    m = random_hermitian(40, np.random.default_rng(13))
    m[7, 21] = np.nan
    with pytest.raises(ValueError, match=r"non-finite entry .* at \(7, 21\)"):
        hermitian_eigen(m)
    # two non-finite entries, one alone in an otherwise zero row: the
    # message names the first in row-major order, whichever of them it is
    for lone, other in (((6, 2), (4, 9)), ((2, 7), (4, 9))):
        m = random_hermitian(12, np.random.default_rng(16))
        m[lone[0], :] = 0.0
        m[:, lone[0]] = 0.0
        m[lone] = np.inf
        m[other] = np.nan
        first = min(lone, other)
        with pytest.raises(ValueError, match=re.escape(f" at {first}") + "$"):
            hermitian_eigen(m)


@pytest.mark.parametrize(
    "bad",
    [{(3, 5): np.inf, (5, 3): np.inf}, {(4, 4): -np.inf}, {(2, 9): 1.0, (6, 1): np.nan}],
    ids=["mirrored-pair", "diagonal", "after-a-hermitian-defect"],
)
def test_jacobi_names_a_non_finite_entry_before_any_hermitian_defect(monkeypatch, bad):
    # a non-finite entry is named, also when its mirror is non-finite too, on
    # the diagonal, or after a Hermitian defect in row-major order
    monkeypatch.setattr(oracle, "_jacobi_rotation", _no_rotation)
    m = random_hermitian(12, np.random.default_rng(17))
    for where, value in bad.items():
        m[where] = value
    first = min(where for where, value in bad.items() if not np.isfinite(value))
    with pytest.raises(ValueError, match=re.escape(f" at {first}") + "$"):
        hermitian_eigen(m)


def test_jacobi_reuses_one_read_only_layout_per_pattern():
    # two matrices of one pattern share one cached plan, the one-matrix row
    # of state_spectra with its block layout, and each still gets its own
    # spectrum
    rng = np.random.default_rng(1809)
    first = random_hermitian(10, rng)
    first[np.abs(first) < 0.9] = 0.0
    second = np.where(first != 0.0, random_hermitian(10, rng), 0.0)
    oracle._plan.cache_clear()
    for m in (first, second):
        assert np.array_equal(hermitian_eigen(m), _reference_hermitian_eigen(m))
    info = oracle._plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    n, keys, _ = oracle._hermitian_entries(first)
    _, gather, (_, index, stacks, *arrays, _, _) = oracle._plan(
        keys.tobytes(), None, (n,), ((),), False, *_RULES
    )
    assert oracle._plan.cache_info().hits == 2
    arrays += [gather, index] + [owners for *_, owners, _ in stacks]
    assert stacks and not any(array.flags.writeable for array in arrays)


def test_trace_norm_rejects_non_finite_before_any_sweep(monkeypatch):
    monkeypatch.setattr(oracle, "_jacobi_rotation", _no_rotation)
    m = np.random.default_rng(14).standard_normal((6, 9)).astype(complex)
    m[4, 2] = np.inf
    with pytest.raises(ValueError, match=r"non-finite entry .* at \(4, 2\)"):
        trace_norm(m)


def _reference_hermitian_eigen(m):
    """The Jacobi eigenvalues, ascending, with a full row-major scan of every
    pair (p, q), p < q, skipping exact zeros: each sweep visits all
    n(n - 1)/2 pairs."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    a = (a + a.conj().T) / 2.0
    norm = float(np.linalg.norm(a))
    if norm == 0.0 or n == 1:
        return np.sort(np.real(np.diagonal(a)), kind="stable")
    for _ in range(100):
        off = np.linalg.norm(a - np.diag(np.diagonal(a)))
        if off <= 1e-12 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                c, s, phase = oracle._jacobi_rotation(a[p, p].real, a[q, q].real, a[p, q])
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * phase * rq
                a[q, :] = s * np.conj(phase) * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * np.conj(phase) * cq
                a[:, q] = s * phase * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    else:
        raise AssertionError("reference Jacobi did not converge")
    return np.sort(np.real(np.diagonal(a)), kind="stable")


def _bit_identity_panel():
    rng = np.random.default_rng(1201)
    for parties, dim in [(2, 2), (3, 2), (2, 3), (4, 3), (6, 2)]:
        rho = dense_from_sc(random_sc_state(parties, dim, rng))
        yield f"rho{parties}{dim}", rho
        for subset in verify._all_proper_subsets(parties):
            name = "".join(map(str, subset))
            yield f"pt{parties}{dim}-{name}", partial_transpose(rho, subset, [dim] * parties)
    for n in range(2, 34):
        yield f"dense{n}", random_hermitian(n, rng)
    yield "permuted-blocks", _permuted_block_diagonal(rng)
    # a chain: each rotation fills in entries further along the one component
    chain = np.diag(rng.standard_normal(12)).astype(complex)
    link = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    chain += np.diag(link, 1) + np.diag(link.conj(), -1)
    yield "chain", chain
    # the same chain under a permutation: its links join groups out of index order
    perm = rng.permutation(12)
    yield "permuted-chain", chain[np.ix_(perm, perm)]
    holes = random_hermitian(9, rng)
    holes[[2, 6], :] = 0.0
    holes[:, [2, 6]] = 0.0
    yield "zero-rows", holes


@pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m in _bit_identity_panel()])
def test_jacobi_is_bit_identical_to_the_full_scan(m):
    assert np.array_equal(hermitian_eigen(m), _reference_hermitian_eigen(m))


@pytest.mark.parametrize("sparse_blocks", [1, 2, 3])
def test_jacobi_stacks_equal_blocks_bit_identically(sparse_blocks):
    # four interleaved 3 x 3 components are rotated as one stack; the last
    # ``sparse_blocks`` of them start with a zero at (0, 1), so the first
    # rotation skips them there, as the full scan skips the pair
    rng = np.random.default_rng(1800 + sparse_blocks)
    blocks = [random_hermitian(3, rng) for _ in range(4)]
    for block in blocks[4 - sparse_blocks :]:
        block[0, 1] = block[1, 0] = 0.0
    m = np.zeros((13, 13), dtype=complex)
    for i, block in enumerate(blocks):  # interleaved: block i on indices i, i + 4, i + 8
        m[i:12:4, i:12:4] = block
    m[12, 12] = 0.5
    assert np.array_equal(hermitian_eigen(m), _reference_hermitian_eigen(m))


@pytest.mark.parametrize("parties, dim", [(2, 2), (3, 2), (4, 3), (6, 2)])
def test_complementary_partial_transposes_have_bit_identical_spectra(parties, dim):
    # rho^{T_{S^c}} = conj(rho^{T_S}); verify.pt_spectrum_residual relies on
    # Jacobi returning the very same values for both
    rho = dense_from_sc(random_sc_state(parties, dim, 1000 + 10 * parties + dim))
    dims = [dim] * parties
    everyone = set(range(1, parties + 1))
    for subset in verify._all_proper_subsets(parties):
        complement = sorted(everyone - set(subset))
        vals = hermitian_eigen(partial_transpose(rho, subset, dims))
        comp_vals = hermitian_eigen(partial_transpose(rho, complement, dims))
        assert np.array_equal(vals, comp_vals), (subset, complement)


def _transpose_panel():
    rng = np.random.default_rng(1801)
    for parties, dim in [(2, 2), (3, 2), (2, 3), (4, 3), (6, 2)]:
        rho = dense_from_sc(random_sc_state(parties, dim, rng))
        yield f"rho{parties}{dim}", rho, [dim] * parties
    # generic dense matrices: their transposes have large coupled blocks
    for dims in [(2, 3), (3, 3), (2, 2, 2), (2, 3, 2)]:
        m = random_hermitian(int(np.prod(dims)), rng)
        yield "dense" + "".join(map(str, dims)), m, list(dims)


@pytest.mark.parametrize(
    "m, dims", [pytest.param(m, dims, id=name) for name, m, dims in _transpose_panel()]
)
def test_transpose_spectra_rows_are_bit_identical_to_the_dense_route(m, dims):
    # the empty subset transposes nothing: its row is m's own spectrum
    subsets = [[]] + list(verify._all_proper_subsets(len(dims)))
    spectra = state_spectra(m, subsets, dims).transposes
    assert spectra.shape == (len(subsets), m.shape[0])
    assert np.array_equal(spectra[0], hermitian_eigen(m))
    for subset, row in zip(subsets[1:], spectra[1:]):
        dense = hermitian_eigen(partial_transpose(m, subset, dims))
        assert np.array_equal(row, dense), subset


@pytest.mark.parametrize("seed", [1808, 1812, 1816])
def test_transpose_spectra_stop_rotating_each_matrix_once_it_converges(monkeypatch, seed):
    # the transposes of a sparse matrix converge after different numbers of
    # sweeps; the stacked call makes exactly the block rotations of the
    # separate calls, so it stops rotating each one when it has converged
    rotate, rotations = oracle._rotate_pair, [0]

    def counted(x, p, q):
        rotations[0] += len(x) if x.ndim == 3 else 1
        rotate(x, p, q)

    monkeypatch.setattr(oracle, "_rotate_pair", counted)
    m = random_hermitian(12, np.random.default_rng(seed))
    m[np.abs(m) < 0.9] = 0.0
    dims, subsets = [2, 3, 2], list(verify._all_proper_subsets(3))
    separate = []
    for subset in subsets:
        rotations[0] = 0
        hermitian_eigen(partial_transpose(m, subset, dims))
        separate.append(rotations[0])
    assert len(set(separate)) > 1
    rotations[0] = 0
    state_spectra(m, subsets, dims)
    assert rotations[0] == sum(separate)


def test_transpose_spectra_close_a_one_sided_pattern_like_the_dense_route():
    # an entry within DEFAULT_TOL whose mirror is zero: the pattern is closed
    # under transposition and the entry split as (m + m^dag)/2
    m = random_hermitian(12, np.random.default_rng(1802))
    m[np.abs(m) < 1.2] = 0.0
    m[3, 10], m[10, 3] = 0.4 * DEFAULT_TOL * (1 - 1j), 0.0
    m[5, 6], m[6, 5] = 0.0, 0.9 * DEFAULT_TOL
    dims = [2, 3, 2]
    subsets = list(verify._all_proper_subsets(3))
    for subset, row in zip(subsets, state_spectra(m, subsets, dims).transposes):
        pt = partial_transpose(m, subset, dims)
        assert np.array_equal(row, hermitian_eigen(pt)), subset
        assert np.array_equal(row, _reference_hermitian_eigen(pt)), subset


@pytest.mark.parametrize(
    "where, value, error",
    [((7, 3), np.nan, ValueError), ((0, 5), np.inf, ValueError), ((2, 9), 1e-3, NotHermitianError)],
    ids=["nan", "inf", "not-hermitian"],
)
def test_transpose_spectra_refuse_bad_input_as_hermitian_eigen_does(
    monkeypatch, where, value, error
):
    monkeypatch.setattr(oracle, "_jacobi_rotation", _no_rotation)
    m = random_hermitian(12, np.random.default_rng(1803))
    m[where] += value
    with pytest.raises(error) as expected:
        hermitian_eigen(m)
    with pytest.raises(error, match=re.escape(str(expected.value)) + "$"):
        state_spectra(m, [[1], [1, 3]], [2, 3, 2])


def test_transpose_spectra_with_untransposed_indices_fail_the_pt_check(monkeypatch):
    # a wrong index rule is caught: the untransposed rho has rho's spectrum
    def untransposed(keys, subsets, dims):
        return np.broadcast_to(keys, (len(subsets), keys.size)).copy()

    state = random_sc_state(3, 3, 1804)
    assert verify.pt_spectrum_residual(state) <= 1e-12
    monkeypatch.setattr(oracle, "_partial_transpose_keys", untransposed)
    assert verify.pt_spectrum_residual(state) > 1e-3
    # the state path maps rho's and W's positions by the same rule: every
    # check that reads a transpose fails, W's own spectrum included
    residuals, w_sep = verify.state_residuals(state)
    checks = verify.check_entries(residuals, w_sep, 1e-9)
    assert {name for name, entry in checks.items() if not entry["pass"]} == {
        "pt_spectrum", "negativity", "witness"
    }


def test_jacobi_reports_the_matrix_that_does_not_converge(monkeypatch):
    # with rotations switched off nothing converges; the error names the
    # off-diagonal norm and the norm of the first matrix still above
    monkeypatch.setattr(oracle, "_rotate_pair", lambda *args: None)
    m = random_hermitian(6, np.random.default_rng(1807))
    with pytest.raises(EigenConvergenceError, match=r"after 100 sweeps$") as single:
        hermitian_eigen(m)
    rho = dense_from_sc(random_sc_state(3, 2, 1807))
    with pytest.raises(EigenConvergenceError, match=r"after 100 sweeps$") as stacked:
        state_spectra(rho, [[1], [1, 2]], [2, 2, 2])
    for raised, matrix in ((single, m), (stacked, partial_transpose(rho, [1], [2, 2, 2]))):
        off = np.sqrt(2.0) * np.linalg.norm(matrix[np.triu_indices(len(matrix), 1)])
        norms = f"off-diagonal norm {off:.3e} above 1e-12 * {np.linalg.norm(matrix):.3e}"
        assert norms in str(raised.value)


def test_jacobi_gathers_each_nonzero_once():
    # entries with two nonzero parts are one entry, not two
    m = random_hermitian(9, np.random.default_rng(1805))
    m[np.abs(m) < 1.0] = 0.0
    n, keys, entries = oracle._hermitian_entries(m)
    rows, cols = np.nonzero(m)
    assert n == 9
    assert np.array_equal(keys, rows * 9 + cols)
    assert np.array_equal(entries, (m[rows, cols] + m[cols, rows].conj()) / 2.0)


@pytest.mark.parametrize("parties, dim", [(5, 4), (4, 5)])
def test_values_only_jacobi_allocates_no_dense_array(parties, dim):
    rho = dense_from_sc(random_sc_state(parties, dim, 1806))
    subsets = [s for s in verify._all_proper_subsets(parties) if s[0] == 1]
    for diagonalise in (
        lambda: hermitian_eigen(rho),
        lambda: state_spectra(rho, subsets, [dim] * parties),
    ):
        tracemalloc.start()
        try:
            diagonalise()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # no n x n working copy, no n x n index array: the largest temporary
        # is the pattern scan's row block, n x 2n flags at most
        assert peak < rho.nbytes / 4


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
    # no nonzero, no entry, one entry, and a zero row
    zero_row = g.copy()
    zero_row[1] = 0.0
    for m in (np.zeros((3, 5)), np.zeros((0, 4)), np.zeros((0, 0)), np.array([[-2.0]]), zero_row):
        assert trace_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False).sum(), abs=1e-12)


def test_trace_norm_of_a_realigned_state_copies_nothing():
    # the dilation is written from the realigned matrix's N^2 nonzeros: no
    # copy of it and no Gram matrix, only one flag per entry
    st = random_sc_state(4, 3, 1822)
    assert np.linalg.matrix_rank(st.a) == 3
    r = realign(dense_from_sc(st), 3, 27)
    tracemalloc.start()
    try:
        value = trace_norm(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(np.abs(st.a).sum(), abs=1e-12)
    assert peak < r.nbytes / 4


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
    dephased = dense_from_sc(new_sc_state(3, 2, np.diag([0.5, 0.5])))
    sigma = np.diagonal(dephased).real
    assert relative_entropy_dense(dephased, sigma) == pytest.approx(0.0, abs=1e-10)
    assert relative_entropy_dense(rho, sigma) == pytest.approx(1.0, abs=1e-10)


def test_relative_entropy_dense_support_violation():
    rho = np.eye(4) / 4
    sigma = np.array([0.5, 0.5, 0.0, 0.0])
    assert relative_entropy_dense(rho, sigma) == np.inf
    # an entry far below the largest, but above 1e-12 of it, is support
    d, s = np.array([0.4, 0.4, 0.2, 0.0]), np.array([0.5, 0.5 - 1e-9, 1e-9, 0.0])
    expected = float((d[:3] * np.log2(d[:3] / s[:3])).sum())
    assert relative_entropy_dense(np.diag(d), s) == pytest.approx(expected, rel=1e-12)
    # sigma is the diagonal: of rho's side and finite
    for bad in (np.diag(sigma), sigma[:3], np.array([0.5, 0.5, np.nan, 0.0])):
        with pytest.raises(ValueError, match="finite vector of length 4"):
            relative_entropy_dense(rho, bad)


def _reference_relative_entropy(rho, sigma):
    """relative_entropy_dense with sigma built as an n x n matrix, its
    eigenvectors from LAPACK and the overlaps <v_i|rho|v_i> from a
    three-operand einsum."""
    vals_s, vecs_s = np.linalg.eigh(np.diag(sigma))
    support = vals_s > 1e-12 * max(float(vals_s[-1]), 0.0)
    overlaps = np.einsum("ij,jk,ki->i", vecs_s.conj().T, rho, vecs_s).real
    if np.trace(rho).real - overlaps[support].sum() > 1e-9:
        return np.inf
    tr_r_log_s = (overlaps[support] * np.log(vals_s[support])).sum() / np.log(2.0)
    return -von_neumann_entropy(rho) - tr_r_log_s


def _random_density(n, rank, rng, basis=None):
    """A random density matrix of the given rank, inside span(basis) if given."""
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    if basis is not None:
        g = basis @ (basis.conj().T @ g)
    w = g @ g.conj().T
    return w / np.trace(w).real


def _random_diagonal(n, rng, at=None):
    """A random full-rank diagonal density matrix, or one on the indices ``at``."""
    d = np.zeros(n)
    d[slice(None) if at is None else at] = 0.1 + rng.random(n if at is None else len(at))
    return d / d.sum()


@pytest.mark.parametrize("n", [6, 9])
def test_relative_entropy_dense_overlaps_match_the_einsum_reference(n):
    rng = np.random.default_rng(1700 + n)
    rho = _random_density(n, n, rng)
    sigma = _random_diagonal(n, rng)
    value = relative_entropy_dense(rho, sigma)
    assert np.isfinite(value)
    assert abs(value - _reference_relative_entropy(rho, sigma)) <= 1e-12
    # sigma of rank n - 2, and a rho inside its support: still finite
    kept = [i for i in range(n) if i not in (1, n - 2)]
    sigma = _random_diagonal(n, rng, kept)
    inside = _random_density(n, n - 2, rng, np.eye(n)[:, kept])
    value = relative_entropy_dense(inside, sigma)
    assert np.isfinite(value)
    assert abs(value - _reference_relative_entropy(inside, sigma)) <= 1e-12
    # the full-rank rho has weight outside that support
    assert relative_entropy_dense(rho, sigma) == np.inf
    assert _reference_relative_entropy(rho, sigma) == np.inf
    # an SC rho: its diagonal is zero outside its N levels; sigma of full
    # rank, and of rank <= N + 2
    sc = dense_from_sc(random_sc_state(2, n // 3, rng))
    side = sc.shape[0]
    assert np.count_nonzero(sc.any(axis=1)) == n // 3 < side
    off_levels = _random_diagonal(side, rng, [1, 2])
    for sigma in (_random_diagonal(side, rng), 0.5 * np.diagonal(sc).real + 0.5 * off_levels):
        value = relative_entropy_dense(sc, sigma)
        assert np.isfinite(value)
        assert abs(value - _reference_relative_entropy(sc, sigma)) <= 1e-12
    assert relative_entropy_dense(sc, off_levels) == np.inf


def _reference_su_generators(d):
    """The generators built one entry at a time, in the documented order."""
    gens = np.zeros((d * d - 1, d, d), dtype=complex)
    pos = 0
    for i in range(d - 1):
        scale = np.sqrt(2.0 / ((i + 1) * (i + 2)))
        for a in range(i + 1):
            gens[pos, a, a] = scale
        gens[pos, i + 1, i + 1] = -(i + 1) * scale
        pos += 1
    for j in range(d):
        for k in range(j + 1, d):
            gens[pos, j, k] = 1.0
            gens[pos, k, j] = 1.0
            pos += 1
    for j in range(d):
        for k in range(j + 1, d):
            gens[pos, j, k] = -1j
            gens[pos, k, j] = 1j
            pos += 1
    return gens


@pytest.mark.parametrize("d", range(2, 10))
def test_su_generators_match_the_entrywise_reference(d):
    gens = su_generators(d)
    assert gens.dtype == complex
    assert np.array_equal(gens, _reference_su_generators(d))


@pytest.mark.parametrize("d", [2, 3, 5, 9])
def test_generator_combination_matches_the_dense_contraction(d):
    rng = np.random.default_rng(d)
    real = rng.standard_normal((6, d * d - 1))
    for coeffs in (real, real + 1j * rng.standard_normal(real.shape)):
        dense = np.einsum("bi,ijk->bjk", coeffs, su_generators(d))
        assert np.abs(generator_combination(coeffs, d) - dense).max() <= 1e-14


def test_pair_indices_are_the_cached_read_only_triu_order():
    for d in range(2, 13):
        pairs = oracle._pair_indices(d)
        for got, want in zip(pairs, np.triu_indices(d, 1)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        again = oracle._pair_indices(d)
        assert again[0] is pairs[0] and again[1] is pairs[1]


@pytest.mark.parametrize("d", range(2, 9))
def test_pair_position_inverts_generator_combination(d):
    # the generator with a unit coefficient at the symmetric slot of (j, k)
    # is |j><k| + |k><j|; at the antisymmetric slot, -i|j><k| + i|k><j|
    j, k = oracle._pair_indices(d)
    sym = oracle._pair_position(d, j, k)
    anti = sym + j.size
    assert sorted(np.concatenate([sym, anti]).tolist()) == list(range(d - 1, d * d - 1))
    for slot, upper in ((sym, 1.0), (anti, -1j)):
        coeffs = np.zeros((j.size, d * d - 1))
        coeffs[np.arange(j.size), slot] = 1.0
        want = np.zeros((j.size, d, d), dtype=complex)
        want[np.arange(j.size), j, k] = upper
        want[np.arange(j.size), k, j] = np.conj(upper)
        assert np.array_equal(generator_combination(coeffs, d), want)


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
        vals = hermitian_eigen(dense_from_sc(st))
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


_RULES = (oracle._partial_transpose_keys, oracle._realigned_keys)


def _read_only(plan):
    subsets, gather, layout = plan
    arrays = [gather] + [x for x in layout if isinstance(x, np.ndarray)]
    return not any(array.flags.writeable for array in arrays)


def test_transpose_spectra_keep_subsets_and_positions_per_pattern():
    # two states of one shape and rank share one plan, read-only: the
    # validated subsets, the transposed positions with the order that
    # sorts them and the Jacobi layout; each state still gets its own spectra
    subsets = [[]] + list(verify._all_proper_subsets(3))
    first, second = (dense_from_sc(random_sc_state(3, 3, seed)) for seed in (1820, 1821))
    oracle._plan.cache_clear()
    rows = [state_spectra(m, subsets, [3, 3, 3]).transposes for m in (first, second)]
    info = oracle._plan.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 1, 64)
    _, keys, _ = oracle._hermitian_entries(first)
    plan = oracle._plan(keys.tobytes(), None, (3, 3, 3), tuple(map(tuple, subsets)), False, *_RULES)
    assert oracle._plan.cache_info().hits == 2
    assert _read_only(plan)
    valid, gather, _ = plan
    assert valid[0] == () and valid[1] == (1,)
    assert gather.size == len(subsets) * keys.size
    # last, as hermitian_eigen reads plans of its own
    for m, spectra in zip((first, second), rows):
        for subset, row in zip(subsets[1:], spectra[1:]):
            dense = partial_transpose(m, subset, [3, 3, 3])
            assert np.array_equal(row, hermitian_eigen(dense))


def test_transposed_positions_keep_the_last_64_patterns():
    oracle._plan.cache_clear()
    for key in range(70):
        oracle._plan(np.array([key]).tobytes(), None, (9, 9), ((1,),), False, *_RULES)
    info = oracle._plan.cache_info()
    assert info.currsize == 64 and info.misses == 70


def test_generator_levels_are_kept_read_only_per_shape_and_bounded():
    oracle._kept_generator_levels.cache_clear()
    levels = oracle._generator_levels(9, 3)  # the levels 0, 4, 8 of SU(9)
    assert oracle._generator_levels(9, 3) is levels
    assert oracle._kept_generator_levels.cache_info().maxsize == 64
    assert all(not array.flags.writeable for array in levels)
    at, values, first, second, slot = levels
    assert at.tolist() == [0, 4, 8]
    assert np.array_equal(values, oracle.diagonal_generator_values(9, at))
    assert (first.tolist(), second.tolist()) == ([0, 0, 4], [4, 8, 8])
    assert np.array_equal(slot, oracle._pair_position(9, first, second))
    # a table of more than 2^12 entries is built per call and not kept
    size = oracle._kept_generator_levels.cache_info().currsize
    big = oracle._generator_levels(65, 65)
    assert oracle._kept_generator_levels.cache_info().currsize == size
    assert big is not oracle._generator_levels(65, 65)
    assert all(not array.flags.writeable for array in big)
    assert np.array_equal(big[1], oracle.diagonal_generator_values(65, np.arange(65)))


def test_trace_norm_names_a_non_finite_entry_found_by_its_flags():
    m = np.zeros((3, 5), dtype=complex)
    m[0, 0], m[2, 3] = 1.0, complex(0.0, np.nan)
    with pytest.raises(ValueError, match=r"non-finite entry .* at \(2, 3\)"):
        trace_norm(m)


@pytest.mark.parametrize("sparse", [False, True])
def test_jacobi_stacks_matrices_of_different_sides_bit_identically(sparse):
    # matrices of sides 5, 9, 2 and 7 in one sweep loop, two 4 x 4 of one
    # entry count but norms 1e8 apart, and one with no entry: each is
    # diagonalised as if alone, its blocks stacked with blocks of the same
    # size from the others, and stops at its own norm's tolerance
    rng = np.random.default_rng(1830 + sparse)
    matrices = [random_hermitian(side, rng) for side in (5, 9, 2, 7)]
    if sparse:
        for m in matrices:
            m[np.abs(m) < 0.8] = 0.0
    matrices += [random_hermitian(4, rng), 1e8 * random_hermitian(4, rng), np.zeros((3, 3))]
    gathered = [oracle._hermitian_entries(m) for m in matrices]
    sides = tuple(n for n, _, _ in gathered)
    sizes = tuple(keys.size for _, keys, _ in gathered)
    keys = np.concatenate([keys for _, keys, _ in gathered])
    entries = np.concatenate([entries for _, _, entries in gathered])
    layout = oracle._block_layout(sides, sizes, keys)
    values = np.split(oracle._jacobi(layout, entries), np.cumsum(sides)[:-1])
    for m, row in zip(matrices, values):
        assert np.array_equal(row, hermitian_eigen(m))
        assert np.array_equal(row, _reference_hermitian_eigen(m))


def _witness_terms(state):
    w = build_witness(state)
    rows, cols, values = (np.array(x) for x in zip(*w.terms))
    return w, rows, cols, values.astype(complex)


@pytest.mark.parametrize("parties, dim", [(2, 2), (3, 3), (4, 3), (6, 2), (3, 4)])
def test_state_spectra_extra_rows_match_their_dense_routes(parties, dim):
    # the realignment's dilation gives trace_norm(realign(rho)) exactly, and
    # W^{T_1} the Jacobi values of the dense transpose of W's dense form;
    # the transposes are unchanged by what is stacked with them
    state = random_sc_state(parties, dim, 1830 + 10 * parties + dim)
    rho, dims = dense_from_sc(state), [dim] * parties
    w, rows, cols, values = _witness_terms(state)
    subsets = verify._first_party_subsets(parties)
    out = state_spectra(rho, subsets, dims, dilation=True, witness=(rows, cols, values))
    assert np.array_equal(out.transposes, state_spectra(rho, subsets, dims).transposes)
    realigned = realign(rho, dim, dim ** (parties - 1))
    assert out.dilation.size == sum(realigned.shape)
    assert 0.5 * float(np.abs(out.dilation).sum()) == trace_norm(realigned)
    assert np.array_equal(out.witness, hermitian_eigen(partial_transpose(w.to_dense(), [1], dims)))
    assert np.array_equal(out.keys, np.flatnonzero(rho != 0))
    # each row alone is the same row
    alone = state_spectra(rho, [], dims, dilation=True)
    assert alone.transposes.shape == (0, dim**parties) and alone.witness is None
    assert np.array_equal(alone.dilation, out.dilation)
    alone = state_spectra(rho, [], dims, witness=(rows, cols, values))
    assert alone.dilation is None and np.array_equal(alone.witness, out.witness)


def _term_panel():
    rng = np.random.default_rng(1832)
    w, rows, cols, values = _witness_terms(random_sc_state(3, 3, rng))
    yield "witness", 27, rows, cols, values
    m = random_hermitian(6, rng)
    m[np.abs(m) < 0.7] = 0.0
    r, c = np.nonzero(m)
    yield "hermitian", 6, r, c, m[r, c]
    # one position split over three terms, in an order that rounds
    yield "repeated", 4, np.array([1, 1, 2, 1]), np.array([2, 2, 1, 2]), np.array(
        [0.1 + 0.2j, 0.7 - 0.3j, 0.9 + 0.0j, 0.1 + 0.1j]
    )
    # terms that cancel: their position is not in the pattern
    yield "cancelling", 4, np.array([0, 0, 3, 1, 2]), np.array([3, 3, 0, 1, 2]), np.array(
        [0.5j, -0.5j, 0.0, 0.25, 0.0]
    )
    # an entry within DEFAULT_TOL whose mirror has no term
    yield "one-sided", 5, np.array([0, 4]), np.array([4, 4]), np.array([0.4 * DEFAULT_TOL, 1.0])
    yield "empty", 4, np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=complex)


@pytest.mark.parametrize(
    "n, rows, cols, values", [pytest.param(*case[1:], id=case[0]) for case in _term_panel()]
)
def test_term_entries_read_the_terms_as_the_dense_gather_reads_their_sum(n, rows, cols, values):
    dense = np.zeros((n, n), dtype=complex)
    for r, c, v in zip(rows, cols, values):
        dense[r, c] += v
    _, keys, entries = oracle._hermitian_entries(dense)
    got_keys, got_entries = oracle._term_entries(n, rows, cols, values)
    assert np.array_equal(got_keys, keys)
    assert got_entries.tobytes() == entries.tobytes()


@pytest.mark.parametrize(
    "value, error",
    [(np.nan, ValueError), (complex(0.0, np.inf), ValueError), (1e-3, NotHermitianError)],
    ids=["nan", "inf", "not-hermitian"],
)
def test_term_entries_refuse_bad_terms_as_the_dense_gather_does(value, error):
    rows, cols = np.array([0, 2, 3, 1]), np.array([0, 3, 2, 1])
    values = np.array([0.5, 0.2 + 0.1j, 0.2 - 0.1j, 0.5], dtype=complex)
    values[2] += value
    dense = np.zeros((4, 4), dtype=complex)
    dense[rows, cols] = values
    with pytest.raises(error) as expected:
        oracle._hermitian_entries(dense)
    with pytest.raises(error, match=re.escape(str(expected.value)) + "$"):
        oracle._term_entries(4, rows, cols, values)


def test_wrong_realignment_positions_fail_only_the_realignment_check(monkeypatch):
    # the dilation's positions come from the index rule as the caller finds
    # it, so a replaced rule is called; one that leaves the digits in place
    # realigns nothing, and the dilation of rho has rho's trace norm, 1
    def unrealigned(keys, dims):
        return np.divmod(keys, math.prod(dims))

    state = random_sc_state(3, 3, 1833)
    monkeypatch.setattr(oracle, "_realigned_keys", unrealigned)
    residuals, w_sep = verify.state_residuals(state)
    checks = verify.check_entries(residuals, w_sep, 1e-9)
    assert {name for name, entry in checks.items() if not entry["pass"]} == {"realignment"}


def test_dilation_and_term_positions_keep_the_last_64_patterns():
    # W's positions key the plan as rho's do: one rho with 70 witness
    # patterns keeps the last 64 plans
    rho = dense_from_sc(random_sc_state(3, 3, 1834))
    _, keys, _ = oracle._hermitian_entries(rho)
    oracle._plan.cache_clear()
    for key in range(70):
        oracle._plan(keys.tobytes(), np.array([key]).tobytes(), (3, 3, 3), (), True, *_RULES)
    info = oracle._plan.cache_info()
    assert info.currsize == info.maxsize == 64 and info.misses == 70
    w_keys, _ = oracle._term_entries(27, *_witness_terms(random_sc_state(3, 3, 1834))[1:])
    plan = oracle._plan(keys.tobytes(), w_keys.tobytes(), (3, 3, 3), (), True, *_RULES)
    assert _read_only(plan)
    # W^{T_1}'s side and the dilation's, 9 + 81; W's entries, then rho's and their mirrors
    _, gather, layout = plan
    assert layout[0] == 27 + 9 + 81
    assert gather.size == w_keys.size + 2 * keys.size
