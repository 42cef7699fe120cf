"""Verification-suite checks: witness sampling and the Bloch cross-check.

``witness_residuals`` draws all separable samples in one batched call.
The reference below makes the same single generator call and builds each
product vector with explicit ``np.kron``: the batched route must leave the
generator in the same state and find the same minimum.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scstates import (
    NotPSDError,
    NotUnitTraceError,
    SizeGuardError,
    build_witness,
    cli,
    measures,
    new_sc_state,
    oracle,
    random_sc_state,
    separability,
    verify,
)
from scstates.oracle import su_generators


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


def _perturbed_bloch(monkeypatch, field, pick):
    """Patch ``bloch_decomposition`` to add 1e-6 to the entry of ``field`` ``pick`` names."""
    original = separability.bloch_decomposition

    def perturbed(state, split=1, **kwargs):
        b = original(state, split, **kwargs)
        values = getattr(b, field).copy()
        values[pick(values)] += 1e-6
        return dataclasses.replace(b, **{field: values})

    monkeypatch.setattr(separability, "bloch_decomposition", perturbed)


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"oracle.{name} called")

    return refused


@pytest.mark.parametrize("parties, dim", [(2, 2), (3, 2), (4, 2), (3, 3), (6, 2)])
def test_pt_spectrum_residual_diagonalises_one_of_each_complementary_pair(
    monkeypatch, parties, dim
):
    spectra, calls = oracle.state_spectra, []

    def counted_spectra(m, subsets, dims, **extra):
        calls.append([tuple(s) for s in subsets])
        return spectra(m, subsets, dims, **extra)

    monkeypatch.setattr(oracle, "state_spectra", counted_spectra)
    # no dense transpose is built and no transpose is diagonalised on its own
    monkeypatch.setattr(oracle, "partial_transpose", _refuse("partial_transpose"))
    monkeypatch.setattr(oracle, "hermitian_eigen", _refuse("hermitian_eigen"))
    residual = verify.pt_spectrum_residual(random_sc_state(parties, dim, 7))
    # one stacked call, rho itself (the empty subset) first; the complement
    # of each subset holding party 1 has the same spectrum
    assert len(calls) == 1
    assert calls[0][0] == ()
    subsets = calls[0][1:]
    assert len(subsets) == len(set(subsets)) == 2 ** (parties - 1) - 1
    assert all(1 in subset for subset in subsets)
    assert residual <= separability.DEFAULT_SEP_TOL


@pytest.mark.parametrize("parties, dim", [(2, 2), (3, 3), (6, 2)])
def test_state_residuals_diagonalise_rho_and_its_first_party_transpose_once(
    monkeypatch, parties, dim
):
    eigen, spectra, calls = oracle.hermitian_eigen, oracle.state_spectra, []

    def counted_eigen(m, **kwargs):
        calls.append("hermitian_eigen")
        return eigen(m, **kwargs)

    def counted_spectra(m, subsets, dims, **extra):
        calls.append(("state_spectra", sorted(extra)))
        return spectra(m, subsets, dims, **extra)

    monkeypatch.setattr(oracle, "hermitian_eigen", counted_eigen)
    monkeypatch.setattr(oracle, "state_spectra", counted_spectra)
    monkeypatch.setattr(oracle, "partial_transpose", _refuse("partial_transpose"))
    state = random_sc_state(parties, dim, 17)
    residuals, w_sep = verify.state_residuals(state)
    # rho with all its transposes (rho^{T_1} among them), the realignment's
    # dilation and W^{T_1} in one call, whatever k; the diagonal sigma is
    # not diagonalised
    assert calls == [("state_spectra", ["dilation", "witness"])]
    checks = verify.check_entries(residuals, w_sep, separability.DEFAULT_SEP_TOL)
    assert all(entry["pass"] for entry in checks.values())


def _shift_weight(values):
    # move 1e-3 of weight from the largest eigenvalue to the smallest:
    # the trace stays 1 and rho's spectrum stays nonnegative
    values = values.copy()
    values[0] += 1e-3
    values[-1] -= 1e-3
    values.sort()
    return values


def _lower_the_least(values):
    values = values.copy()
    values[0] -= 1e-3
    return values


@pytest.mark.parametrize(
    "target, readers",
    [
        ("rho", {"state_spectrum", "relative_entropy"}),
        ("rho_t1", {"pt_spectrum", "negativity"}),
        ("dilation", {"realignment"}),
        ("witness", {"witness"}),
    ],
)
def test_state_residuals_hand_each_shared_spectrum_to_every_check_that_reads_it(
    monkeypatch, target, readers
):
    # corrupt the one row of rho (the empty subset), of rho^{T_1}, of the
    # realignment's dilation or of W^{T_1}: lowering W^{T_1}'s least value
    # fails its certificate, which shifting weight to it would not
    state = random_sc_state(3, 3, 18)
    spectra = oracle.state_spectra
    corrupt = _lower_the_least if target == "witness" else _shift_weight

    def corrupting_spectra(m, subsets, dims, **extra):
        out = spectra(m, subsets, dims, **extra)
        if target in ("dilation", "witness"):
            return out._replace(**{target: corrupt(getattr(out, target))})
        rows = out.transposes.copy()
        at = [list(s) for s in subsets].index({"rho": [], "rho_t1": [1]}[target])
        rows[at] = corrupt(rows[at])
        return out._replace(transposes=rows)

    monkeypatch.setattr(oracle, "state_spectra", corrupting_spectra)
    residuals, w_sep = verify.state_residuals(state)
    checks = verify.check_entries(residuals, w_sep, separability.DEFAULT_SEP_TOL)
    assert {name for name, entry in checks.items() if not entry["pass"]} == readers


@pytest.mark.parametrize(
    "field, pick",
    [("t_first", lambda v: (0, 0)), ("pair_values", lambda v: np.abs(v).argmax())],
    ids=["diagonal", "pair"],
)
def test_bloch_residuals_catch_a_wrong_closed_form(monkeypatch, field, pick):
    state = random_sc_state(3, 3, 12)
    tol = separability.DEFAULT_SEP_TOL
    assert verify.bloch_residuals(state, [1, 2], tol=tol) <= 1e-12
    _perturbed_bloch(monkeypatch, field, pick)
    residual = verify.bloch_residuals(state, [1, 2], tol=tol)
    assert np.isfinite(residual) and residual > tol


def test_bloch_residuals_keep_a_nan_of_the_rebuilt_state(monkeypatch):
    # the verdicts still agree; the rebuilt diagonal is NaN on every split
    original = separability.bloch_decomposition

    def nan_diagonal(state, split=1, **kwargs):
        b = original(state, split, **kwargs)
        return dataclasses.replace(b, t_first=np.full_like(b.t_first, np.nan))

    monkeypatch.setattr(separability, "bloch_decomposition", nan_diagonal)
    assert not np.isfinite(verify.bloch_residuals(random_sc_state(3, 3, 12), [1, 2]))


@pytest.mark.parametrize("parties, dim", [(5, 3), (6, 3), (4, 4)])
def test_bloch_residuals_build_no_generator_tensors(monkeypatch, parties, dim):
    def refuse(d):
        raise AssertionError(f"su_generators({d}) built")

    monkeypatch.setattr(oracle, "su_generators", refuse)
    state = random_sc_state(parties, dim, 13)
    assert verify.bloch_residuals(state, [1]) <= 1e-12


@pytest.mark.parametrize("parties, dim", [(4, 3), (3, 4)])
def test_bloch_residuals_peak_memory_stays_near_one_dense_state(parties, dim):
    state = random_sc_state(parties, dim, 14)
    rho_bytes = oracle.dense_from_sc(state).nbytes
    tracemalloc.start()
    try:
        residual = verify.bloch_residuals(state, [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak <= 8 * rho_bytes


@pytest.mark.parametrize(
    "refused",
    [
        lambda state: oracle.dense_from_sc(state),
        lambda state: verify.run_suite(state.parties, state.dim, samples=1),
        lambda state: verify.state_residuals(state),
    ],
    ids=["dense_from_sc", "run_suite", "state_residuals"],
)
def test_size_guard_refuses_before_allocating(monkeypatch, refused):
    # 4^7 = 16384 > the default guard; the dense state would take 4 GB
    monkeypatch.delenv("SC_SIZE_GUARD", raising=False)
    state = random_sc_state(7, 4, 15)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            refused(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("parties, dim", [(30, 2), (64, 2)])
@pytest.mark.parametrize(
    "refused",
    [
        lambda state: verify.state_residuals(state),
        lambda state: verify.pt_spectrum_residual(state),
        lambda state: verify.realignment_residual(state),
        lambda state: verify.witness_certificate(state),
        lambda state: verify.witness_residuals(state, np.random.default_rng(16), 10),
        lambda state: verify.bloch_residuals(state, [1]),
    ],
    ids=["state_residuals", "pt_spectrum", "realignment", "witness_certificate",
         "witness_residuals", "bloch"],
)
def test_size_guard_refuses_a_huge_state_before_allocating(monkeypatch, refused, parties, dim):
    # 2^30 would make 2^29 subsets before rho at k = 30; 2^64 passes int64,
    # so the witness's index arrays would overflow before the guard
    monkeypatch.delenv("SC_SIZE_GUARD", raising=False)
    state = random_sc_state(parties, dim, 16)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            refused(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "check",
    [
        verify.state_spectrum_residual,
        verify.relative_entropy_residual,
        verify.negativity_residual,
        verify.realignment_residual,
        verify.witness_certificate,
    ],
    ids=["state_spectrum", "relative_entropy", "negativity", "realignment", "witness"],
)
@pytest.mark.parametrize("parties, dim", [(2, 2), (3, 3), (6, 2)])
def test_a_check_called_alone_reads_the_row_state_residuals_reads(check, parties, dim):
    state = random_sc_state(parties, dim, 19)
    residual = check(state)
    assert residual <= verify.RELATIVE_ENTROPY_TOL_FLOOR
    # the row is the one a view shared by several checks holds
    dense = verify._DenseViews(state)
    verify.pt_spectrum_residual(state, dense=dense)
    assert residual == check(state, dense=dense)


def test_first_party_subsets_are_made_once_per_party_count():
    for parties in range(2, 8):
        subsets = verify._first_party_subsets(parties)
        assert verify._first_party_subsets(parties) is subsets
        expected = [()] + [tuple(s) for s in verify._all_proper_subsets(parties) if s[0] == 1]
        assert list(subsets) == expected


@pytest.mark.parametrize(
    "diag, error",
    [([1.1, 0.2, -0.3], NotPSDError), ([0.5, 0.3, 0.2 + 1e-6], NotUnitTraceError)],
    ids=["negative-entry", "trace-off"],
)
def test_relative_entropy_residual_validates_the_separable_state(monkeypatch, diag, error):
    state = random_sc_state(3, 3, 21)
    for bad in (diag, np.array(diag)):
        monkeypatch.setattr(
            measures, "optimal_separable", lambda s, bad=bad: measures.OptimalSeparable(diag=bad)
        )
        with pytest.raises(error) as raised:
            verify.relative_entropy_residual(state)
        # the exception new_sc_state raises on the same diagonal
        with pytest.raises(error, match=re.escape(str(raised.value)) + "$"):
            new_sc_state(3, 3, np.diag(bad))


def test_relative_entropy_residual_writes_sigma_where_dense_from_sc_would(monkeypatch):
    state = random_sc_state(3, 3, 22)
    seen = []

    def recording(rho, sigma, **kwargs):
        seen.append(sigma)
        return oracle_relative_entropy(rho, sigma, **kwargs)

    oracle_relative_entropy = oracle.relative_entropy_dense
    monkeypatch.setattr(oracle, "relative_entropy_dense", recording)
    verify.relative_entropy_residual(state)
    sigma_state = measures.optimal_separable(state).as_sc_state(3)
    assert seen[0].dtype == float
    assert np.array_equal(seen[0], np.diagonal(oracle.dense_from_sc(sigma_state)).real)


@pytest.mark.parametrize("parties, dim", [(4, 3), (3, 4)])
def test_relative_entropy_residual_builds_no_dense_sigma(parties, dim):
    # with rho and its spectrum at hand, the check reads rho's diagonal: no
    # n x n sigma and no eigenvector matrix
    state = random_sc_state(parties, dim, 27)
    views = verify._DenseViews(state)
    rho, _ = views.rho, views.spectra
    tracemalloc.start()
    try:
        residual = verify.relative_entropy_residual(state, dense=views)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak < rho.nbytes / 4


def _clear_oracle_caches():
    for module in (oracle, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_cached_shape_tables_leave_every_verify_op_unchanged(capsys, tmp_path):
    # the oracle-verify configurations and analyze --oracle splits of the
    # verify benchmark, each run with every cache cleared and then warm
    argvs = [
        ["oracle-verify", "--k", str(k), "--N", str(n), "--samples", "2", "--seed", "1201"]
        for k, n in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
    ]
    for k, n, split in [(4, 3, 1), (4, 3, 2), (3, 4, 1), (6, 2, 3), (5, 2, 1), (5, 2, 2)]:
        assert cli.main(["random", "--k", str(k), "--N", str(n), "--seed", "1201",
                         "--output-dir", str(tmp_path)]) == 0
        path = tmp_path / f"sc-k{k}-N{n}-seed1201-000.json"
        argvs.append(["analyze", "--oracle", "--split", str(split), str(path)])
    capsys.readouterr()
    for argv in argvs:
        outputs = []
        for clear in (True, False, False):
            if clear:
                _clear_oracle_caches()
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2], argv


def _reference_rebuild(b):
    """The Bloch expansion summed densely over every generator pair."""
    m, r_dim = b.dim_first, b.dim_rest
    r, s, t = verify.bloch_coefficients(b)
    gm, gr = su_generators(m), su_generators(r_dim)
    rec = np.einsum("ac,bd->abcd", np.eye(m, dtype=complex), np.eye(r_dim))
    rec += np.einsum("i,iac,bd->abcd", r, gm, np.eye(r_dim))
    rec += np.einsum("j,ac,jbd->abcd", s, np.eye(m), gr)
    rec += np.einsum("ij,iac,jbd->abcd", t, gm, gr)
    return rec.reshape(m * r_dim, m * r_dim) / (m * r_dim)


@pytest.mark.parametrize("parties, dim", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_bloch_entries_are_the_whole_expansion(parties, dim):
    state = random_sc_state(parties, dim, 23)
    for split in range(1, parties):
        b = separability.bloch_decomposition(state, split)
        keys, values = verify._bloch_entries(b)
        rec = _reference_rebuild(b).ravel()
        assert np.abs(values - rec[keys]).max() <= 1e-15
        outside = np.ones(rec.size, dtype=bool)
        outside[keys] = False
        assert np.abs(rec[outside]).max(initial=0.0) <= 1e-15
        assert keys.size == np.unique(keys).size == b.dim_first * b.dim_rest + 2 * dim * (dim - 1)


@pytest.mark.parametrize(
    "move",
    [lambda slot: np.roll(slot, 1), lambda slot: slot + np.arange(slot.size) % 2],
    ids=["swapped", "shifted"],
)
def test_bloch_residuals_catch_a_moved_pair_slot(monkeypatch, move):
    state = random_sc_state(3, 3, 24)
    original = separability.bloch_decomposition

    def moved(state, split=1):
        b = original(state, split)
        return dataclasses.replace(b, pair_first=move(b.pair_first))

    monkeypatch.setattr(separability, "bloch_decomposition", moved)
    residual = verify.bloch_residuals(state, [1, 2])
    assert np.isfinite(residual) and residual > 1e-3


def test_bloch_residuals_catch_two_pairs_on_one_slot(monkeypatch):
    state = random_sc_state(3, 3, 25)
    original = separability.bloch_decomposition

    def collided(state, split=1):
        b = original(state, split)
        return dataclasses.replace(b, pair_first=np.full_like(b.pair_first, b.pair_first[0]),
                                   pair_rest=np.full_like(b.pair_rest, b.pair_rest[0]))

    monkeypatch.setattr(separability, "bloch_decomposition", collided)
    assert verify.bloch_residuals(state, [1]) == float("inf")


def test_bloch_residuals_catch_a_nonzero_of_rho_outside_the_expansion(monkeypatch):
    state = random_sc_state(3, 3, 26)
    build = oracle.dense_from_sc

    def extra(s):
        rho = build(s)
        rho[1, 5] = rho[5, 1] = 1e-6  # |001>, |012>: no pair and no diagonal position
        return rho

    assert verify.bloch_residuals(state, [1, 2]) <= 1e-12
    monkeypatch.setattr(oracle, "dense_from_sc", extra)
    assert verify.bloch_residuals(state, [1, 2]) >= 1e-6


def _lower_diagonal_weight(monkeypatch, weight):
    """Patch ``build_witness`` to give its diagonal terms ``weight`` in place of 0.5.

    Those terms lie off the state's support, so Tr[W rho] is unchanged, but
    each pair's 2 x 2 block of W^{T_1} has eigenvalues weight +- 0.5.
    """
    original = separability.build_witness

    def lowered(state):
        w = original(state)
        terms = tuple((r, c, weight + 0j if r == c else v) for r, c, v in w.terms)
        return dataclasses.replace(w, terms=terms)

    monkeypatch.setattr(separability, "build_witness", lowered)


def test_witness_residuals_keep_a_nan_of_the_witness(monkeypatch):
    # NaN diagonal terms lie off the state's support: the closed form reads
    # none of them, the dense route and every sample read all of them
    _lower_diagonal_weight(monkeypatch, np.nan)
    state, rng = random_sc_state(3, 3, 1845), np.random.default_rng(0)
    residual, worst = verify.witness_residuals(state, rng, 50)
    assert np.isnan(residual) and np.isnan(worst)


@pytest.mark.parametrize("weight", [0.45, 0.49, 0.499])
@pytest.mark.parametrize("parties, dim", [(2, 2), (3, 3), (4, 3)])
def test_state_residuals_fail_a_witness_with_a_lowered_diagonal_weight(
    monkeypatch, weight, parties, dim
):
    state = random_sc_state(parties, dim, 1840)
    _lower_diagonal_weight(monkeypatch, weight)
    residuals, w_sep = verify.state_residuals(state)
    checks = verify.check_entries(residuals, w_sep, separability.DEFAULT_SEP_TOL)
    assert {name for name, entry in checks.items() if not entry["pass"]} == {"witness"}
    assert checks["witness"]["max_residual"] <= 1e-12
    assert w_sep == pytest.approx(weight - 0.5, abs=1e-12)


@pytest.mark.parametrize("parties, dim", [(2, 2), (3, 3), (6, 2)])
def test_state_residuals_make_one_jacobi_call(monkeypatch, parties, dim):
    jacobi, calls = oracle._jacobi, []

    def counted(layout, entries):
        # each matrix's side, from the runs of equal sides its values sort by
        calls.append(sum(((side,) * count for *_, count, side in layout[-1]), ()))
        return jacobi(layout, entries)

    monkeypatch.setattr(oracle, "_jacobi", counted)
    # no realigned copy, no second trace-norm pass and no product-state samples
    for name in ("realign", "trace_norm", "hermitian_eigen", "partial_transpose"):
        monkeypatch.setattr(oracle, name, _refuse(name))
    monkeypatch.setattr(verify, "random_product_mixture", _refuse("random_product_mixture"))
    state = random_sc_state(parties, dim, 1841)
    residuals, w_sep = verify.state_residuals(state)
    # rho, its 2^(k-1) - 1 party-1 transposes and W^{T_1}, then the dilation
    n = dim**parties
    assert calls == [(n,) * (2 ** (parties - 1) + 1) + (dim**2 + n**2 // dim**2,)]
    checks = verify.check_entries(residuals, w_sep, separability.DEFAULT_SEP_TOL)
    assert all(entry["pass"] for entry in checks.values())


def test_state_residuals_peak_memory_stays_near_one_dense_state():
    # full rank at (5, 4), split 2: no realigned copy of rho and one read of
    # its nonzeros
    state = random_sc_state(5, 4, 1842)
    assert np.linalg.matrix_rank(state.a) == 4
    rho_bytes = 16 * 1024 * 1024
    tracemalloc.start()
    try:
        residuals, w_sep = verify.state_residuals(state, [2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    checks = verify.check_entries(residuals, w_sep, separability.DEFAULT_SEP_TOL)
    assert all(entry["pass"] for entry in checks.values())
    assert peak <= 1.25 * rho_bytes


@pytest.mark.parametrize("parties, dim", [(3, 2), (3, 3), (4, 2)])
def test_bloch_residuals_read_the_shared_gather_of_rho(parties, dim):
    state = random_sc_state(parties, dim, 1843)
    shared = verify._DenseViews(state)
    alone = verify.bloch_residuals(state, range(1, parties))
    assert verify.bloch_residuals(state, range(1, parties), dense=shared) == alone
    # the positions the stacked call gathered are rho's nonzeros
    assert np.array_equal(shared.spectra.keys, np.flatnonzero(shared.rho != 0))


def test_witness_certificate_bounds_the_sampled_minimum():
    # lambda_min(W^{T_1}) is a lower bound on Tr[W sigma] over product states
    for seed in range(5):
        state = random_sc_state(3, 2, 1844 + seed)
        bound = verify.witness_certificate(state)
        _, sampled = verify.witness_residuals(state, np.random.default_rng(seed), 200)
        assert -1e-15 <= -bound <= 1e-15
        assert sampled >= bound
