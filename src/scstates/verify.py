"""Cross-validation suite: closed forms vs the dense oracle.

Each residual function recomputes one closed-form quantity by brute force
on the explicit N^k x N^k matrices (dense construction + the internal
Jacobi eigensolver, never the fast path) and returns the absolute
disagreement.  ``state_residuals`` runs them all on one state (``analyze
--oracle``), ``run_suite`` over random states (``oracle-verify``), and
``check_entries`` applies the one tolerance rule to either result.  Each
check takes an optional ``dense``, the :class:`_DenseViews` through which
``state_residuals`` shares rho and its spectra among them; a check called
without it builds what it reads itself.

The witness is also checked on random product pure states, where Tr[W sigma]
is lowest over the fully separable states (``witness_residuals``).
"""

from functools import cached_property

import numpy as np

from . import measures, oracle, separability, slocc
from .states import SCState, random_pure_sc_state, random_sc_state

#: Checks compared at a looser tolerance than the rest of the suite
#: (logarithms amplify eigenvalue dust near the support boundary).
RELATIVE_ENTROPY_TOL_FLOOR = 1e-8


def _all_proper_subsets(parties: int):
    full = range(1, parties + 1)
    for mask in range(1, 2**parties - 1):
        yield [p for p in full if mask & (1 << (p - 1))]


class _DenseViews:
    """The dense rho of one state and the Jacobi spectra several checks read,
    each built on first use.

    ``state_residuals`` hands one to all its checks, so rho is built once,
    and rho and all its partial transposes over subsets holding party 1
    are diagonalised by one ``oracle.transpose_spectra`` call.  A check
    called on its own makes its own and pays for that whole stack, also
    where it reads one row: rho's for the state spectrum and the relative
    entropy, rho^{T_1}'s for the negativity.  Nothing here outlives the
    call that made it.
    """

    def __init__(self, state: SCState):
        self.state = state

    @cached_property
    def rho(self) -> np.ndarray:
        return oracle.dense_from_sc(self.state)

    @cached_property
    def spectra(self) -> np.ndarray:
        """Jacobi eigenvalues, ascending: row 0 of rho (the empty subset), then
        of rho^{T_S} for each proper subset S holding party 1, [1] first."""
        k = self.state.parties
        subsets = [[]] + [s for s in _all_proper_subsets(k) if s[0] == 1]
        return oracle.transpose_spectra(self.rho, subsets, [self.state.dim] * k)

    @property
    def rho_values(self) -> np.ndarray:
        return self.spectra[0]

    @property
    def pt_values(self) -> np.ndarray:
        """The rows of rho^{T_S}; row 0 is rho^{T_1}."""
        return self.spectra[1:]


def pt_spectrum_residual(state: SCState, *, dense=None) -> float:
    """Closed-form PT spectrum vs dense eigenvalues, over all proper subsets.

    Only the 2^(k-1) - 1 subsets S holding party 1 are diagonalised, all
    in one ``oracle.transpose_spectra`` call: rho^{T_{S^c}} =
    (rho^{T_S})^T = conj(rho^{T_S}), with the same Jacobi values.
    """
    dense = dense or _DenseViews(state)
    spectrum = separability.pt_spectrum(state)
    pairs, zeros = spectrum.pair_magnitudes, np.zeros(spectrum.zero_multiplicity)
    expected = np.sort(np.concatenate([spectrum.diagonal, pairs, -pairs, zeros]))
    return float(np.abs(dense.pt_values - expected).max())


def realignment_residual(state: SCState, *, dense=None) -> float:
    """Sum-of-moduli closed form vs trace norm of the realigned dense matrix."""
    dense = dense or _DenseViews(state)
    n, k = state.dim, state.parties
    r = oracle.realign(dense.rho, n, n ** (k - 1))
    return abs(oracle.trace_norm(r) - separability.realignment_norm(state))


def negativity_residual(state: SCState, *, dense=None) -> float:
    """Closed-form negativity vs (sum of |dense PT eigenvalues| - 1)/2.

    The PT is Hermitian, so its trace norm is read off its own Jacobi
    spectrum.
    """
    dense = dense or _DenseViews(state)
    value = 0.5 * (float(np.abs(dense.pt_values[0]).sum()) - 1.0)  # rho^{T_1}
    return abs(value - measures.negativity(state))


def relative_entropy_residual(state: SCState, *, dense=None) -> float:
    """N x N relative-entropy shortcut vs the dense two-matrix computation, in bits."""
    dense = dense or _DenseViews(state)
    sigma_state = measures.optimal_separable(state).as_sc_state(state.parties)
    sigma = oracle.dense_from_sc(sigma_state)
    value = oracle.relative_entropy_dense(dense.rho, sigma, rho_values=dense.rho_values)
    return abs(value - measures.relative_entropy(state))


def state_spectrum_residual(state: SCState, *, dense=None) -> float:
    """Dense spectrum of rho vs ``state.eigenvalues`` plus padding zeros."""
    dense = dense or _DenseViews(state)
    vals = dense.rho_values
    small = state.eigenvalues
    expected = np.sort(np.concatenate([small, np.zeros(vals.size - small.size)]))
    return float(np.abs(vals - expected).max())


def random_product_mixture(parties: int, dim: int, rng, samples: int):
    """``samples`` random product pure states, drawn with one generator call.

    Returns unit local factors of shape (samples, parties, dim); sample s
    is the product vector local[s, 0] (x) ... (x) local[s, parties - 1],
    which is never built.  The real and imaginary parts come from one
    ``rng.standard_normal((samples, parties, 2, dim))`` call.
    """
    parts = rng.standard_normal((samples, parties, 2, dim))
    local = parts[..., 0, :] + 1j * parts[..., 1, :]
    return local / np.sqrt((parts**2).sum(axis=(-2, -1)))[..., None]


#: Bytes of product-vector entries one block of samples may hold in
#: ``witness_residuals``.
_SAMPLE_BLOCK_BYTES = 1 << 20


def witness_residuals(state: SCState, rng, separable_samples: int = 500, *, dense=None):
    """(closed-vs-dense residual on Tr[W rho], min Tr[W sigma] over samples).

    The first number compares both evaluation routes against the exact
    target -sum_{m<n}|a_mn|: the closed form on the coefficients and the
    sum of v rho[c, r] over the witness's sparse terms (r, c, v) against
    the dense rho.  The second must stay >= -tol for the witness
    to be valid on separable states.  Tr[W sigma] is linear in sigma, so
    its minimum over the fully separable states is reached on product
    pure states (a mixture never reads below its lowest component).  It
    draws ``separable_samples`` product vectors v with one
    ``random_product_mixture`` call and evaluates <v|W|v>, the sum of
    x v[c] conj(v[r]) over the terms (r, c, x), with each entry of v the
    product of the local factors at the index's base-N digits (no dense
    sigma, no SC shortcut).  An empty witness gives 0.0 and no samples
    give inf.
    """
    w = separability.build_witness(state)
    target = -float(sum(abs(state.a[m, j]) for m, j in w.source_pairs))
    closed = separability.witness_expectation(w, state)
    rows = np.array([r for r, _, _ in w.terms], dtype=int)
    cols = np.array([c for _, c, _ in w.terms], dtype=int)
    values = np.array([v for _, _, v in w.terms], dtype=complex)
    rho = (dense or _DenseViews(state)).rho
    on_rho = float((values * rho[cols, rows]).sum().real)
    residual = max(abs(closed - target), abs(on_rho - target))
    if separable_samples < 1:
        return residual, float("inf")

    k, n = state.parties, state.dim
    local = random_product_mixture(k, n, rng, separable_samples)
    index = np.concatenate([rows, cols])
    digits = (index // n ** np.arange(k - 1, -1, -1)[:, None]) % n
    block = max(1, _SAMPLE_BLOCK_BYTES // (16 * max(1, index.size)))
    worst_separable = np.inf
    for s in range(0, separable_samples, block):
        vec = local[s : s + block, 0, digits[0]]
        for p in range(1, k):
            vec *= local[s : s + block, p, digits[p]]
        expect = (vec[:, rows.size :] * vec[:, : rows.size].conj()) @ values
        worst_separable = min(worst_separable, float(expect.real.min()))
    return residual, float(worst_separable)


def _default_splits(parties: int):
    return sorted({1, max(1, parties // 2)})


def bloch_coefficients(b: separability.BlochDecomposition):
    """The dense (r, s, t) of a Bloch decomposition, zeros included.

    r has M^2 - 1 entries, s R^2 - 1 and t is (M^2 - 1) x (R^2 - 1), so this
    is for the oracle checks and tests only.
    """
    m, r_dim = b.dim_first, b.dim_rest
    r = np.zeros(m * m - 1)
    s = np.zeros(r_dim * r_dim - 1)
    t = np.zeros((m * m - 1, r_dim * r_dim - 1))
    r[: m - 1] = b.r_diagonal
    s[: r_dim - 1] = b.s_diagonal
    t[: m - 1, : r_dim - 1] = b.t_first @ b.t_rest.T
    anti_first = b.pair_first + oracle._pair_indices(m)[0].size
    anti_rest = b.pair_rest + oracle._pair_indices(r_dim)[0].size
    t[b.pair_first, b.pair_rest] = b.pair_values.real
    t[b.pair_first, anti_rest] = -b.pair_values.imag
    t[anti_first, b.pair_rest] = -b.pair_values.imag
    t[anti_first, anti_rest] = -b.pair_values.real
    return r, s, t


def _dense_from_bloch(b: separability.BlochDecomposition) -> np.ndarray:
    """The density matrix rebuilt from its Bloch expansion.

    rho = (1/(M R)) sum_ij c_ij g_i x h_j with g_0 = I_M, h_0 = I_R and
    c = [[1, s], [r, t]] from :func:`bloch_coefficients`.  The rest side's
    sums B_i = sum_j c_ij h_j come first, then rho = sum_i g_i x B_i over
    the first side, both through ``oracle.generator_combination``, so no
    array is larger than rho.
    """
    m, r_dim = b.dim_first, b.dim_rest
    r, s, t = bloch_coefficients(b)
    rest = oracle.generator_combination(np.vstack([s, t]), r_dim)  # B_i at (i, b, d)
    rest[:, np.arange(r_dim), np.arange(r_dim)] += np.concatenate([[1.0], r])[:, None]
    rec = oracle.generator_combination(rest[1:].transpose(1, 2, 0), m)  # (b, d, a, c)
    rec[..., np.arange(m), np.arange(m)] += rest[0][..., None]
    return rec.transpose(2, 0, 3, 1).reshape(m * r_dim, m * r_dim) / (m * r_dim)


def bloch_residuals(
    state: SCState, splits=None, *, tol: float = separability.DEFAULT_SEP_TOL, dense=None
) -> float:
    """Closed-form Bloch decomposition vs the dense state, across bipartitions.

    Rebuilds the dense state from the closed-form expansion with the
    oracle's generators and compares it with ``oracle.dense_from_sc`` (the
    generators are orthogonal, so the two agree exactly when every stored
    coefficient is right; the format has no slot for the structural zeros),
    and demands the pair-value separability verdict match the off-diagonal
    test.  Disagreement on the verdict returns infinity; otherwise the
    worst numeric residual.  No array is larger than the dense state, so
    its N^k size guard is the only one.
    """
    if splits is None:
        splits = _default_splits(state.parties)
    sep = separability.is_fully_separable(state, tol)
    rho = (dense or _DenseViews(state)).rho
    worst = 0.0
    for split in splits:
        b = separability.bloch_decomposition(state, split)
        if separability.check_corollary2(b, tol) != sep:
            return float("inf")
        worst = max(worst, float(np.abs(_dense_from_bloch(b) - rho).max()))
    return worst


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
    worst = float(np.abs(np.abs(z) - 1.0).max())
    worst = max(worst, float(np.abs(z - z[0]).max()))
    return worst


def separability_votes(
    state: SCState, *, tol: float = separability.DEFAULT_SEP_TOL, splits=None
) -> dict:
    """The four independent separability verdicts, for agreement tests.

    Each vote compares a largest coherence, not a sum of them, with
    ``tol``, so all four agree also at the tolerance boundary.  The
    realigned SC matrix (party 1 | rest) is a weighted permutation whose
    singular values are the N^2 moduli |a_mn| (Chen & Wu, Quantum Inf.
    Comput. 3, 193 (2003)); the realignment vote is on the largest one
    with m != n, not on the trace-norm excess 2 sum_{m<n} |a_mn|.
    """
    if splits is None:
        splits = _default_splits(state.parties)
    corner = all(
        separability.check_corollary2(separability.bloch_decomposition(state, s), tol)
        for s in splits
    )
    singular = np.abs(state.a)  # the realigned matrix's singular values, by (m, n)
    return {
        "off_diagonal": separability.is_fully_separable(state, tol),
        "realignment": float(singular[~np.eye(state.dim, dtype=bool)].max()) <= tol,
        "bloch_corner": corner,
        "pt_nonnegative": separability.pt_spectrum(state).min_eigenvalue() >= -tol,
    }


def state_residuals(
    state: SCState,
    rng,
    separable_samples: int = 500,
    splits=None,
    *,
    tol: float = separability.DEFAULT_SEP_TOL,
):
    """(residual per check, min Tr[W sigma]) for every oracle check on one state.

    The checks share one :class:`_DenseViews`: rho is built once, and two
    Jacobi entry calls cover every spectrum, whatever k: one
    ``oracle.transpose_spectra`` call for rho and all 2^(k-1) - 1 partial
    transposes over subsets holding party 1, and sigma's
    ``oracle.hermitian_eigen``.  The residual functions are looked up by
    their module-global names on each call, so patching one of them in this
    module reaches every caller.  ``rng`` is drawn from only by the
    witness's separable samples.
    """
    dense = _DenseViews(state)
    bloch = bloch_residuals(state, splits, tol=tol, dense=dense)
    w_res, w_sep = witness_residuals(state, rng, separable_samples, dense=dense)
    residuals = {
        "pt_spectrum": pt_spectrum_residual(state, dense=dense),
        "realignment": realignment_residual(state, dense=dense),
        "negativity": negativity_residual(state, dense=dense),
        "relative_entropy": relative_entropy_residual(state, dense=dense),
        "state_spectrum": state_spectrum_residual(state, dense=dense),
        "witness": w_res,
        "bloch": bloch,
    }
    return residuals, w_sep


def _finite_or_none(x):
    x = float(x)
    return x if np.isfinite(x) else None


def check_entries(worst: dict, worst_separable: float, tol: float) -> dict:
    """Report entries {max_residual, tol, pass} for each check in ``worst``.

    A non-finite residual (verdict mismatch, support leak) is null and fails.
    The witness entry also needs its worst separable expectation >= -tol.
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
            entry["min_separable_expectation"] = _finite_or_none(worst_separable)
            entry["pass"] = bool(entry["pass"] and worst_separable >= -tol)
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
    worst = {}
    worst_separable = np.inf

    for _ in range(samples):
        state = random_sc_state(parties, dim, rng)
        residuals, w_sep = state_residuals(state, rng, tol=tol)
        worst_separable = min(worst_separable, w_sep)
        support = int(rng.integers(2, dim + 1))
        psi = random_pure_sc_state(parties, dim, rng, support_size=support)
        residuals["slocc"] = slocc_residual(psi)
        for name, value in residuals.items():
            worst[name] = max(worst.get(name, 0.0), value)

    checks = check_entries(worst, worst_separable, tol)
    return {
        "k": parties,
        "N": dim,
        "samples": samples,
        "seed": seed if isinstance(seed, int) else None,
        "tol": tol,
        "checks": checks,
        "pass": all(entry["pass"] for entry in checks.values()),
    }
