"""Cross-validation suite: closed forms vs the dense oracle.

Each residual function recomputes one closed-form quantity by brute force
on the explicit N^k x N^k matrices (dense construction + the oracle's
Jacobi rotation loop, never the fast path) and returns the absolute
disagreement.  ``state_residuals`` runs them all on one state (``analyze
--oracle``), ``run_suite`` over random states (``oracle-verify``), and
``check_entries`` applies the one tolerance rule to either result.  Each
check takes an optional ``dense``, the :class:`_DenseViews` through which
``state_residuals`` shares rho, the witness and one stacked Jacobi call
among them; a check called without it makes its own, which reads the
same way.  Either way the size guard on N^k is read before anything is
built.  Every fold of residuals (over Bloch splits and entries, the two
witness routes, the SLOCC terms and the suite's states) and of
certificates (over witness sample blocks and states) is :func:`_worst`,
which keeps a NaN; ``check_entries`` reports any non-finite value as
null and fails its entry.

The witness is certified rather than sampled: W^{T_1} >= 0 makes
Tr[W sigma] = Tr[W^{T_1} sigma^{T_1}] >= lambda_min(W^{T_1}) for every
sigma that is PPT across party 1 | rest, which every fully separable
sigma is (``witness_certificate``).  ``witness_residuals`` keeps the
sampled bound over random product states for callers that ask for it.
"""

import functools
import math
from functools import cached_property

import numpy as np

from . import measures, oracle, separability, slocc
from .states import SCState, random_pure_sc_state, random_sc_state, validate_diagonal

#: Checks compared at a looser tolerance than the rest of the suite
#: (logarithms amplify eigenvalue dust near the support boundary).
RELATIVE_ENTROPY_TOL_FLOOR = 1e-8


def _all_proper_subsets(parties: int):
    full = range(1, parties + 1)
    for mask in range(1, 2**parties - 1):
        yield [p for p in full if mask & (1 << (p - 1))]


@functools.cache
def _first_party_subsets(parties: int) -> tuple:
    """() and then the 2^(k-1) - 1 proper subsets holding party 1, (1,) first,
    as :func:`_all_proper_subsets` yields them; one tuple per k."""
    return ((),) + tuple(tuple(s) for s in _all_proper_subsets(parties) if s[0] == 1)


def _worst(values, *, lowest: bool = False) -> float:
    """The largest of ``values`` (the smallest with ``lowest``), or NaN if any
    is NaN; ties keep the first.

    The one fold of residuals and certificates, here and in ``cli``: the
    builtin max of 0.0 and NaN is 0.0, which would report a NaN as agreement.
    """
    worst = None
    for value in map(float, values):
        if worst is None or math.isnan(value) or (value < worst if lowest else value > worst):
            worst = value  # a NaN stays: no value compares above or below it
    return worst


class _DenseViews:
    """The dense rho of one state, its witness and the one Jacobi call every
    check reads, each built on first use.

    ``spectra`` is one ``oracle.state_spectra`` call, one gather of rho's
    nonzeros and one ``_jacobi`` sweep loop, whatever k: its transposes
    are row 0 of rho (the empty subset), then of rho^{T_S} for each proper
    subset S holding party 1 (:func:`_first_party_subsets`, made once per
    k), [1] first; it also holds the spectra of the Hermitian dilation of
    the realigned rho and of W^{T_1}, and the positions of rho's nonzeros,
    which the Bloch check reads (rho's pattern is symmetric, so OR-ing it
    with its transpose adds none).  The relative entropy's sigma is
    diagonal and never diagonalised.  ``state_residuals`` hands one view
    to all its checks, so each of these is built once per state; a check
    called on its own makes its own and reads it the same way.  The size
    guard is read first, when the view is made.  Nothing here outlives
    the call that made it.
    """

    def __init__(self, state: SCState):
        # before anything is built: the subsets, the witness's index arrays
        # and rho all grow with N^k, which can pass int64 for a valid state
        oracle.check_size_guard(state.dim**state.parties)
        self.state = state

    @cached_property
    def rho(self) -> np.ndarray:
        return oracle.dense_from_sc(self.state)

    @cached_property
    def witness(self) -> tuple:
        """(w, rows, cols, values): the state's witness and its terms as arrays."""
        w = separability.build_witness(self.state)
        rows, cols, values = zip(*w.terms) if w.terms else ((), (), ())
        rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
        return w, rows, cols, np.array(values, dtype=complex)

    @cached_property
    def spectra(self) -> oracle.StateSpectra:
        k = self.state.parties
        return oracle.state_spectra(
            self.rho, _first_party_subsets(k), [self.state.dim] * k,
            dilation=True, witness=self.witness[1:],
        )


def pt_spectrum_residual(state: SCState, *, dense=None) -> float:
    """Closed-form PT spectrum vs dense eigenvalues, over all proper subsets.

    Only the 2^(k-1) - 1 subsets S holding party 1 are diagonalised, as
    rows of the view's one ``oracle.state_spectra`` call: rho^{T_{S^c}} =
    (rho^{T_S})^T = conj(rho^{T_S}), with the same Jacobi values.
    """
    dense = dense or _DenseViews(state)
    spectrum = separability.pt_spectrum(state)
    pairs, zeros = spectrum.pair_magnitudes, np.zeros(spectrum.zero_multiplicity)
    expected = np.sort(np.concatenate([spectrum.diagonal, pairs, -pairs, zeros]))
    return float(np.abs(dense.spectra.transposes[1:] - expected).max())


def realignment_residual(state: SCState, *, dense=None) -> float:
    """Sum-of-moduli closed form vs the trace norm of the realigned dense
    matrix (party 1 | rest), half the sum of the moduli of the Jacobi
    spectrum of its Hermitian dilation, which ``oracle.state_spectra``
    writes from rho's nonzeros: the value ``oracle.trace_norm(
    oracle.realign(rho, N, N^(k-1)))`` gives, with no realigned copy."""
    dense = dense or _DenseViews(state)
    value = 0.5 * float(np.abs(dense.spectra.dilation).sum())
    return abs(value - separability.realignment_norm(state))


def negativity_residual(state: SCState, *, dense=None) -> float:
    """Closed-form negativity vs (sum of |dense PT eigenvalues| - 1)/2.

    The PT is Hermitian, so its trace norm is read off its own Jacobi
    spectrum.
    """
    dense = dense or _DenseViews(state)
    value = 0.5 * (float(np.abs(dense.spectra.transposes[1]).sum()) - 1.0)
    return abs(value - measures.negativity(state))


def relative_entropy_residual(state: SCState, *, dense=None) -> float:
    """N x N relative-entropy shortcut vs the dense computation, in bits.

    The closest separable sigma, ``measures.optimal_separable(state).diag``
    at the repeated indices |m...m> and zeros elsewhere, is diagonal, so it
    is handed to ``oracle.relative_entropy_dense`` as its length-N^k
    diagonal, the one ``dense_from_sc`` would build from the validated
    state.  ``states.validate_diagonal`` first checks it as
    ``new_sc_state`` checks a coefficient matrix (finite, trace within
    ``DEFAULT_TOL`` of 1, no entry below -``DEFAULT_TOL``, with the same
    exceptions), so no N x N state is validated or diagonalised again, and
    sigma is never diagonalised: the overlaps are rho's diagonal.
    """
    dense = dense or _DenseViews(state)
    diag = validate_diagonal(measures.optimal_separable(state).diag)
    rho = dense.rho
    sigma = np.zeros(len(rho))
    sigma[oracle.repeated_basis_index(np.arange(state.dim), state.parties, state.dim)] = diag
    value = oracle.relative_entropy_dense(rho, sigma, rho_values=dense.spectra.transposes[0])
    return abs(value - measures.relative_entropy(state))


def state_spectrum_residual(state: SCState, *, dense=None) -> float:
    """Dense spectrum of rho vs ``state.eigenvalues`` plus padding zeros."""
    dense = dense or _DenseViews(state)
    vals = dense.spectra.transposes[0]
    small = state.eigenvalues
    expected = np.sort(np.concatenate([small, np.zeros(vals.size - small.size)]))
    return float(np.abs(vals - expected).max())


def random_product_mixture(parties: int, dim: int, rng, samples: int):
    """``samples`` random product pure states, drawn with one generator call.

    Returns unit local factors of shape (samples, parties, dim); sample s
    is the product vector local[s, 0] (x) ... (x) local[s, parties - 1],
    which is never built.  The real and imaginary parts come from one
    ``rng.standard_normal((samples, parties, 2, dim))`` call and are
    written, times the reciprocal norm, straight into the factors' real
    and imaginary parts: the bits numpy's complex division of the factor
    by its real norm gives, without the complex temporaries.
    """
    parts = rng.standard_normal((samples, parties, 2, dim))
    norms = np.sqrt(np.square(parts).reshape(samples, parties, 2 * dim).sum(axis=-1))
    scale = (1.0 / norms)[..., None]
    local = np.empty((samples, parties, dim), dtype=complex)
    np.multiply(parts[..., 0, :], scale, out=local.real)
    np.multiply(parts[..., 1, :], scale, out=local.imag)
    return local


#: Bytes of product-vector entries one block of samples may hold in
#: ``witness_residuals``.
_SAMPLE_BLOCK_BYTES = 1 << 20


def witness_expectation_residual(state: SCState, *, dense=None) -> float:
    """Closed-vs-dense residual on Tr[W rho] for the state's witness W.

    Compares both evaluation routes against the exact target
    -sum_{m<n}|a_mn|: the closed form on the coefficients and the sum of
    v rho[c, r] over the witness's sparse terms (r, c, v) against the
    dense rho.  An empty witness gives 0.0.
    """
    dense = dense or _DenseViews(state)
    w, rows, cols, values = dense.witness
    target = -float(sum(abs(state.a[m, j]) for m, j in w.source_pairs))
    closed = separability.witness_expectation(w, state)
    on_rho = float((values * dense.rho[cols, rows]).sum().real)
    return _worst([abs(closed - target), abs(on_rho - target)])


def witness_residuals(state: SCState, rng, separable_samples: int = 500, *, dense=None):
    """(closed-vs-dense residual on Tr[W rho], min Tr[W sigma] over samples).

    The first number is :func:`witness_expectation_residual`.  The second
    must stay >= -tol for the witness to be valid on separable states.
    Tr[W sigma] is linear in sigma, so
    its minimum over the fully separable states is reached on product
    pure states (a mixture never reads below its lowest component).  It
    draws ``separable_samples`` product vectors v with one
    ``random_product_mixture`` call and evaluates <v|W|v>, the sum of
    x v[c] conj(v[r]) over the terms (r, c, x), with each entry of v the
    product of the local factors at the index's base-N digits (no dense
    sigma, no SC shortcut).  An empty witness gives 0.0 and no samples
    give inf.  ``state_residuals`` reads :func:`witness_certificate` in
    place of the second.
    """
    dense = dense or _DenseViews(state)
    residual = witness_expectation_residual(state, dense=dense)
    if separable_samples < 1:
        return residual, float("inf")
    _, rows, cols, values = dense.witness

    k, n = state.parties, state.dim
    local = random_product_mixture(k, n, rng, separable_samples)
    index = np.concatenate([rows, cols])
    digits = (index // n ** np.arange(k - 1, -1, -1)[:, None]) % n
    block = max(1, _SAMPLE_BLOCK_BYTES // (16 * max(1, index.size)))
    minima = []
    for s in range(0, separable_samples, block):
        vec = local[s : s + block, 0, digits[0]]
        for p in range(1, k):
            vec *= local[s : s + block, p, digits[p]]
        expect = (vec[:, rows.size :] * vec[:, : rows.size].conj()) @ values
        minima.append(expect.real.min())
    return residual, _worst(minima, lowest=True)


def witness_certificate(state: SCState, *, dense=None) -> float:
    """lambda_min(W^{T_1}) of the state's witness W, from the oracle's Jacobi.

    ``build_witness`` makes W the party-1 partial transpose of a sum of
    projectors, a decomposable witness (Lewenstein, Kraus, Cirac &
    Horodecki, PRA 62, 052310 (2000)): for every fully separable sigma,
    sigma^{T_1} >= 0 and so Tr[W sigma] = Tr[W^{T_1} sigma^{T_1}] >=
    lambda_min(W^{T_1}).  The value is thus a certified lower bound on
    min Tr[W sigma] over separable sigma, and >= -tol certifies that W
    is a witness.  It reads 0 (or round-off below it) on every witness
    ``build_witness`` makes; an empty witness gives 0.0.
    """
    dense = dense or _DenseViews(state)
    return float(dense.spectra.witness[0])


def _default_splits(parties: int):
    return sorted({1, max(1, parties // 2)})


def bloch_coefficients(b: separability.BlochDecomposition):
    """The dense (r, s, t) of a Bloch decomposition, zeros included.

    r has M^2 - 1 entries, s R^2 - 1 and t is (M^2 - 1) x (R^2 - 1), so this
    is for tests only; the Bloch check reads the stored form.
    """
    m, r_dim = b.dim_first, b.dim_rest
    r = np.zeros(m * m - 1)
    s = np.zeros(r_dim * r_dim - 1)
    t = np.zeros((m * m - 1, r_dim * r_dim - 1))
    r[: m - 1] = b.r_diagonal
    s[: r_dim - 1] = b.s_diagonal
    t[: m - 1, : r_dim - 1] = b.t_first @ b.t_rest.T
    anti_first = b.pair_first + m * (m - 1) // 2
    anti_rest = b.pair_rest + r_dim * (r_dim - 1) // 2
    t[b.pair_first, b.pair_rest] = b.pair_values.real
    t[b.pair_first, anti_rest] = -b.pair_values.imag
    t[anti_first, b.pair_rest] = -b.pair_values.imag
    t[anti_first, anti_rest] = -b.pair_values.real
    return r, s, t


def _bloch_entries(b: separability.BlochDecomposition) -> tuple:
    """(keys, values): the density matrix rebuilt from its Bloch expansion, by
    the flat row-major positions where the expansion can be nonzero.

    rho = (1/(M R)) sum_ij c_ij g_i x h_j with g_0 = I_M, h_0 = I_R and
    c = [[1, s], [r, t]] as :func:`bloch_coefficients` expands it.  The
    stored form fills two kinds of terms:
    - diagonal generators on both sides, so all M R diagonal entries,
      (1 + r.g(a) + s.h(b) + g(a)^T t_first t_rest^T h(b))/(M R) at
      (a, b), with g(a) and h(b) the columns of the diagonal-generator
      tables ``oracle.generator_combination`` reads;
    - per pair, the symmetric and antisymmetric generators of its stored
      slots, of (m_A, n_A) and of (m_B, n_B): 4 off-diagonal entries, the
      rest side's sums B_i = sum_j c_ij h_j first and then sum_i g_i x B_i,
      each combined by ``oracle._pair_entries``, the sign convention of
      ``generator_combination``.
    Every other entry of the expansion is zero by the format, so these
    M R + 4 N(N - 1)/2 entries are all of it.
    """
    m, r_dim = b.dim_first, b.dim_rest
    n = m * r_dim
    _, on_first, first_j, first_k, _ = oracle._generator_levels(m, m)
    _, on_rest, rest_j, rest_k, _ = oracle._generator_levels(r_dim, r_dim)
    diagonal = (b.r_diagonal @ on_first)[:, None] + (b.s_diagonal @ on_rest)[None, :]
    diagonal += (on_first.T @ b.t_first) @ (on_rest.T @ b.t_rest).T

    # B of each pair's symmetric and antisymmetric first-side rows, at
    # (m_B, n_B) and (n_B, m_B); then the first side at (m_A, n_A) and (n_A, m_A)
    v = b.pair_values
    rest = oracle._pair_entries(np.array([v.real, -v.imag]), np.array([-v.imag, -v.real]))
    upper, lower = oracle._pair_entries(*np.array(rest).swapaxes(0, 1))
    slot_first, slot_rest = b.pair_first - (m - 1), b.pair_rest - (r_dim - 1)
    ma, na = first_j[slot_first] * r_dim, first_k[slot_first] * r_dim
    mb, nb = rest_j[slot_rest], rest_k[slot_rest]
    block = np.array([ma + mb, ma + nb, na + mb, na + nb])  # rows of the pair's 4 x 4 block
    keys = np.concatenate([np.arange(0, n * n, n + 1), (block * n + block[::-1]).ravel()])
    return keys, np.concatenate([(1.0 + diagonal).ravel(), *upper, *lower]) / n


def bloch_residuals(
    state: SCState, splits=None, *, tol: float = separability.DEFAULT_SEP_TOL, dense=None
) -> float:
    """Closed-form Bloch decomposition vs the dense state, across bipartitions.

    Rebuilds the state from the closed-form expansion with the oracle's
    generator tables and sign convention (:func:`_bloch_entries`) and
    compares it with ``oracle.dense_from_sc``: max |rebuilt - rho| over
    the whole matrix, read as the rebuilt entries against rho there and
    every other nonzero of rho in full (the generators are orthogonal, so
    the two agree exactly when every stored coefficient is right; the
    format has no slot for the structural zeros).  rho's nonzeros are
    those the view's stacked Jacobi call gathered.  It also demands the
    pair-value separability verdict match the off-diagonal test.
    Disagreement on the verdict, or two pairs stored on one position,
    returns infinity; otherwise the worst numeric residual.  Beyond the
    dense state, which its N^k size guard bounds, the largest array is one
    flag per entry of it.
    """
    if splits is None:
        splits = _default_splits(state.parties)
    sep = separability.is_fully_separable(state, tol)
    dense = dense or _DenseViews(state)
    rho, on_rho = dense.rho.ravel(), dense.spectra.keys
    worst = [0.0]
    for split in splits:
        b = separability.bloch_decomposition(state, split)
        if separability.check_corollary2(b, tol) != sep:
            return float("inf")
        keys, values = _bloch_entries(b)
        rebuilt = np.zeros(rho.size, dtype=bool)
        rebuilt[keys] = True
        if np.count_nonzero(rebuilt) < keys.size:
            return float("inf")
        outside = rho[on_rho[~rebuilt[on_rho]]]
        worst += [np.abs(values - rho[keys]).max(), np.abs(outside).max(initial=0.0)]
    return _worst(worst)


def slocc_residual(psi) -> float:
    """Uniformity of the filtered state: moduli at 1/sqrt(t), one global phase.

    Also requires the filter to preserve the support and the class label;
    any structural mismatch returns infinity.
    """
    cls = slocc.classify_pure(psi)
    f = slocc.build_filter(psi)
    out = slocc.apply_filter(f, psi)
    if slocc.classify_pure(out).t != cls.t:
        return float("inf")
    on = np.abs(psi.amplitudes) > slocc.SUPPORT_TOL
    if not np.array_equal(on, np.abs(out.amplitudes) > slocc.SUPPORT_TOL):
        return float("inf")
    z = out.amplitudes[on] * np.sqrt(cls.t)
    return _worst([np.abs(np.abs(z) - 1.0).max(), np.abs(z - z[0]).max()])


def separability_votes(
    state: SCState, *, tol: float = separability.DEFAULT_SEP_TOL, splits=None
) -> dict:
    """The four independent separability verdicts, for agreement tests.

    Each vote compares a largest coherence, not a sum of them, with
    ``tol``.  The realigned SC matrix (party 1 | rest) is a weighted
    permutation whose singular values are the N^2 moduli |a_mn| (Chen &
    Wu, Quantum Inf. Comput. 3, 193 (2003)); the realignment vote is on
    the largest one with m != n, not on the trace-norm excess
    2 sum_{m<n} |a_mn|.  The off-diagonal, realignment and PT votes read
    ``state.moduli``, so they agree also at a tie, |a_mn| = ``tol``
    exactly.  The Bloch vote reads |a_mn| back as 2|v|/(M R) from the
    stored v = (M R/2) a_mn, which is exact when N is a power of two; for
    other N it can differ from |a_mn| by an ulp, and so from the other
    votes within an ulp of a tie.
    """
    if splits is None:
        splits = _default_splits(state.parties)
    corner = all(
        separability.check_corollary2(separability.bloch_decomposition(state, s), tol)
        for s in splits
    )
    singular = state.moduli  # the realigned matrix's singular values, by (m, n)
    return {
        "off_diagonal": separability.is_fully_separable(state, tol),
        "realignment": float(singular[~np.eye(state.dim, dtype=bool)].max()) <= tol,
        "bloch_corner": corner,
        "pt_nonnegative": separability.pt_spectrum(state).min_eigenvalue() >= -tol,
    }


def state_residuals(
    state: SCState,
    splits=None,
    *,
    tol: float = separability.DEFAULT_SEP_TOL,
):
    """(residual per check, lambda_min(W^{T_1})) for every oracle check on one state.

    The checks share one :class:`_DenseViews`: rho and the witness are
    built once, and one ``oracle.state_spectra`` call, so one gather
    of rho's nonzeros and one ``_jacobi`` call, covers every spectrum,
    whatever k: rho's, those of all 2^(k-1) - 1 partial transposes over
    subsets holding party 1, the Hermitian dilation of the realigned rho
    and W^{T_1}.  The Bloch check reads rho's nonzeros from that gather,
    the diagonal sigma of the relative entropy is never diagonalised, and
    the witness is certified by :func:`witness_certificate`, so nothing
    is sampled.  The size guard is read first, before any of it is
    built.  The residual functions are looked up by their
    module-global names on each call, so patching one of them in this
    module reaches every caller.
    """
    dense = _DenseViews(state)
    residuals = {
        "pt_spectrum": pt_spectrum_residual(state, dense=dense),
        "realignment": realignment_residual(state, dense=dense),
        "negativity": negativity_residual(state, dense=dense),
        "relative_entropy": relative_entropy_residual(state, dense=dense),
        "state_spectrum": state_spectrum_residual(state, dense=dense),
        "witness": witness_expectation_residual(state, dense=dense),
        "bloch": bloch_residuals(state, splits, tol=tol, dense=dense),
    }
    return residuals, witness_certificate(state, dense=dense)


def _finite_or_none(x):
    x = float(x)
    return x if np.isfinite(x) else None


def check_entries(worst: dict, worst_separable: float, tol: float) -> dict:
    """Report entries {max_residual, tol, pass} for each check in ``worst``.

    A non-finite residual (verdict mismatch, support leak, NaN) is null
    and fails.  The witness entry also needs ``worst_separable``, a lower
    bound on Tr[W sigma] over separable sigma (``state_residuals`` gives
    lambda_min(W^{T_1})), to be finite and >= -tol; it is reported as
    ``min_separable_expectation``, null if not finite.
    """
    checks = {}
    for name, value in worst.items():
        allowed = max(tol, RELATIVE_ENTROPY_TOL_FLOOR) if name == "relative_entropy" else tol
        entry = {
            "max_residual": _finite_or_none(value),
            "tol": allowed,
            "pass": bool(value <= allowed),
        }
        if name == "witness":
            certificate = entry["min_separable_expectation"] = _finite_or_none(worst_separable)
            entry["pass"] = entry["pass"] and certificate is not None and certificate >= -tol
        checks[name] = entry
    return checks


def run_suite(
    parties: int,
    dim: int,
    samples: int = 50,
    seed=0,
    tol: float = separability.DEFAULT_SEP_TOL,
) -> dict:
    """Full closed-form-vs-oracle validation on random states.

    Runs every residual check on ``samples`` Ginibre states (plus the
    SLOCC filter check on as many random pure states) and returns a
    JSON-able summary with per-check worst residuals and verdicts.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    oracle.check_size_guard(dim**parties)
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(samples):
        residuals, w_sep = state_residuals(random_sc_state(parties, dim, rng), tol=tol)
        support = int(rng.integers(2, dim + 1))
        psi = random_pure_sc_state(parties, dim, rng, support_size=support)
        results.append((residuals | {"slocc": slocc_residual(psi)}, w_sep))
    worst = {name: _worst(r[name] for r, _ in results) for name in results[0][0]}
    checks = check_entries(worst, _worst((w for _, w in results), lowest=True), tol)
    return {
        "k": parties,
        "N": dim,
        "samples": samples,
        "seed": seed if isinstance(seed, int) else None,
        "tol": tol,
        "checks": checks,
        "pass": all(entry["pass"] for entry in checks.values()),
    }
