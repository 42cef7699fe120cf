"""Cross-validation suite: closed forms vs the dense oracle.

Each residual function recomputes one closed-form quantity by brute force
on the explicit N^k x N^k matrices (dense construction + the internal
Jacobi eigensolver, never the fast path) and returns the absolute
disagreement.  ``state_residuals`` runs them all on one state (``analyze
--oracle``), ``run_suite`` over random states (``oracle-verify``), and
``check_entries`` applies the one tolerance rule to either result.

The witness is also checked on random fully separable states.  Tr[W sigma]
is linear in sigma, so its minimum over them is reached on product pure
states: ``random_product_mixture`` draws a whole batch of those at once as
local factors, and ``witness_residuals`` evaluates <v|W|v> on all of them
together from the witness's sparse terms.
"""

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


def pt_spectrum_residual(state: SCState) -> float:
    """Closed-form PT spectrum vs dense eigenvalues, over ALL proper subsets."""
    rho = oracle.dense_from_sc(state)
    dims = [state.dim] * state.parties
    expected = separability.pt_spectrum(state).eigenvalues()
    worst = 0.0
    for subset in _all_proper_subsets(state.parties):
        pt = oracle.partial_transpose(rho, subset, dims)
        vals, _ = oracle.hermitian_eigen(pt)
        worst = max(worst, float(np.abs(vals - expected).max()))
    return worst


def realignment_residual(state: SCState) -> float:
    """Sum-of-moduli closed form vs trace norm of the realigned dense matrix."""
    rho = oracle.dense_from_sc(state)
    n, k = state.dim, state.parties
    r = oracle.realign(rho, n, n ** (k - 1))
    dense = oracle.trace_norm(r)
    return abs(dense - separability.realignment_norm(state))


def negativity_residual(state: SCState) -> float:
    """Closed-form negativity vs (sum of |dense PT eigenvalues| - 1)/2.

    The PT is Hermitian, so its trace norm is read off its own Jacobi
    spectrum.
    """
    rho = oracle.dense_from_sc(state)
    dims = [state.dim] * state.parties
    vals, _ = oracle.hermitian_eigen(oracle.partial_transpose(rho, [1], dims))
    dense = 0.5 * (float(np.abs(vals).sum()) - 1.0)
    return abs(dense - measures.negativity(state))


def relative_entropy_residual(state: SCState) -> float:
    """N x N relative-entropy shortcut vs the dense two-matrix computation, in bits."""
    rho = oracle.dense_from_sc(state)
    sigma_state = measures.optimal_separable(state).as_sc_state(state.parties)
    sigma = oracle.dense_from_sc(sigma_state)
    dense = oracle.relative_entropy_dense(rho, sigma)
    return abs(dense - measures.relative_entropy(state))


def state_spectrum_residual(state: SCState) -> float:
    """Dense spectrum of rho vs coefficient-matrix spectrum plus padding zeros."""
    rho = oracle.dense_from_sc(state)
    vals, _ = oracle.hermitian_eigen(rho)
    small = np.linalg.eigvalsh(state.a)
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


def witness_residuals(state: SCState, rng, separable_samples: int = 500):
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
    target = -float(
        sum(abs(state.a[m, j]) for m, j in w.source_pairs)
    )
    closed = separability.witness_expectation(w, state)
    rows = np.array([r for r, _, _ in w.terms], dtype=int)
    cols = np.array([c for _, c, _ in w.terms], dtype=int)
    values = np.array([v for _, _, v in w.terms], dtype=complex)
    rho = oracle.dense_from_sc(state)
    dense = float((values * rho[cols, rows]).sum().real)
    residual = max(abs(closed - target), abs(dense - target))
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


def _dense_from_bloch(b: separability.BlochDecomposition) -> np.ndarray:
    """The density matrix rebuilt from its Bloch expansion.

    rho = (1/(M R)) sum_ij c_ij g_i x h_j with g_0 = I_M, h_0 = I_R and
    c = [[1, s], [r, t]]; the sum is G^T c H on the generators reshaped to
    (M^2 - 1, M^2) and (R^2 - 1, R^2), split into its identity and
    generator rows, then one transpose from (a, c, b, d) to (a, b, c, d).
    """
    m, r_dim = b.dim_first, b.dim_rest
    gens_a = oracle.su_generators(m).reshape(m * m - 1, m * m)
    gens_b = oracle.su_generators(r_dim).reshape(r_dim * r_dim - 1, r_dim * r_dim)
    eye_a = np.eye(m).reshape(m * m)
    eye_b = np.eye(r_dim).reshape(r_dim * r_dim)
    rec = gens_a.T @ (b.t @ gens_b + np.outer(b.r, eye_b))
    rec += np.outer(eye_a, b.s @ gens_b + eye_b)
    rec = rec.reshape(m, m, r_dim, r_dim).transpose(0, 2, 1, 3)
    return rec.reshape(m * r_dim, m * r_dim) / (m * r_dim)


def bloch_residuals(
    state: SCState, splits=None, *, tol: float = separability.DEFAULT_SEP_TOL
) -> float:
    """Closed-form Bloch decomposition vs the dense state, across bipartitions.

    Verifies the SC structural zeros (off-diagonal-generator components
    of both local vectors and the mixed correlation blocks), rebuilds the
    dense state from the closed-form expansion with the oracle's
    generators and compares it with ``oracle.dense_from_sc`` (the
    generators are orthogonal, so the two agree exactly when the
    coefficients are right), and demands the corner-block separability
    verdict match the off-diagonal test.  Disagreement on the verdict
    returns infinity; otherwise the worst numeric residual.  The SU(d)
    generators hold about d^4 entries, so a split with max(M, R)^2 above
    the size guard (:func:`scstates.oracle.check_size_guard`) raises
    :class:`SizeGuardError` before any is built.
    """
    if splits is None:
        splits = _default_splits(state.parties)
    sep = separability.is_fully_separable(state, tol)
    rho = oracle.dense_from_sc(state)
    worst = 0.0
    for split in splits:
        b = separability.bloch_decomposition(state, split)
        m = state.dim**split
        r_dim = state.dim ** (state.parties - split)
        oracle.check_size_guard(max(m, r_dim) ** 2)
        worst = max(worst, float(np.abs(b.r[m - 1 :]).max(initial=0.0)))
        worst = max(worst, float(np.abs(b.s[r_dim - 1 :]).max(initial=0.0)))
        worst = max(worst, float(np.abs(b.t[: m - 1, r_dim - 1 :]).max(initial=0.0)))
        worst = max(worst, float(np.abs(b.t[m - 1 :, : r_dim - 1]).max(initial=0.0)))
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

    The residual functions are looked up by their module-global names on
    each call, so patching one of them in this module reaches every caller.
    ``rng`` is drawn from only by the witness's separable samples.  The
    Bloch check runs first, so a split its size guard refuses fails fast.
    """
    bloch = bloch_residuals(state, splits, tol=tol)
    w_res, w_sep = witness_residuals(state, rng, separable_samples)
    residuals = {
        "pt_spectrum": pt_spectrum_residual(state),
        "realignment": realignment_residual(state),
        "negativity": negativity_residual(state),
        "relative_entropy": relative_entropy_residual(state),
        "state_spectrum": state_spectrum_residual(state),
        "witness": w_res,
        "bloch": bloch,
    }
    return residuals, w_sep


def _allowed_residual(name: str, tol: float) -> float:
    """The largest residual check ``name`` passes with at tolerance ``tol``."""
    if name == "relative_entropy":
        return max(tol, RELATIVE_ENTROPY_TOL_FLOOR)
    return tol


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
        allowed = _allowed_residual(name, tol)
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
