"""Entanglement measures for SC states.

Negativity, realignment, and relative entropy all reduce to N x N
arithmetic on the coefficient matrix.  Concurrence of mixed states has
one closed-form lower bound, sqrt(2) ||offdiag(a)||_F, exact whenever a
is rank one plus a diagonal; otherwise a convex-roof minimizer gives an
upper bound (it only ever evaluates valid ensemble decompositions).
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .states import RANK_TOL, SCState, new_sc_state

#: Eigenvalues/populations below this are treated as exact zeros in
#: entropy sums (0 * log 0 = 0 convention).
LOG_CLAMP = 1e-15

#: Smoothing widths of the roof optimizer's stages, the last one unsmoothed.
ROOF_SMOOTHING = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 0.0)

#: The roof optimizer's cap on steps per smoothing stage.
ROOF_MAX_STEPS = 400

#: Gradient norm at which a roof start counts as converged.
ROOF_GRAD_TOL = 1e-9


def negativity(state: SCState) -> float:
    """Negativity: sum_{m<n} |a_mn|, half the absolute off-diagonal sum.

    Equals (trace norm of the partial transpose - 1)/2 and also
    (realignment_norm - 1)/2.  Ranges over [0, (N-1)/2]; zero exactly on
    separable states, maximal only for the uniform GHZ coefficient matrix.
    The off-diagonal ``state.moduli`` are summed directly (not as a total
    minus the diagonal), so for N = 2 it is exactly ``abs(a_01)``.
    """
    return float(0.5 * state.moduli[~np.eye(state.dim, dtype=bool)].sum())


def _pure_overlap_sum(amplitudes: np.ndarray) -> float:
    """1 - sum_m |c_m|^4, the linear-entropy core of the pure formulas."""
    p = np.abs(np.asarray(amplitudes)) ** 2
    return float(max(p.sum() ** 2 - (p**2).sum(), 0.0))


def concurrence_pure_bipartite(psi) -> float:
    """Pure-state concurrence sqrt(2(1 - Tr rho_1^2)) across any 1|rest cut.

    Accepts a PureSCState or a bare amplitude vector.  For SC pure states
    the single-party reduction is diag(|c_m|^2), so the trace purity is
    sum |c_m|^4 regardless of which party is singled out.
    """
    amplitudes = getattr(psi, "amplitudes", psi)
    return float(np.sqrt(2.0 * _pure_overlap_sum(amplitudes)))


def concurrence_pure_multipartite(psi) -> float:
    """Generalized k-party pure concurrence sqrt(k(1 - sum|c_m|^4)).

    All k single-party reductions of a pure SC state are the same
    diagonal matrix, so the k bipartite contributions are equal and the
    generalized measure is sqrt(k) times the shared linear entropy root.
    Range [0, sqrt(k(1 - 1/N))].
    """
    k = psi.parties
    return float(np.sqrt(k * _pure_overlap_sum(psi.amplitudes)))


class ConcurrenceMethod(str, enum.Enum):
    """How the `exact` field of a ConcurrenceReport was (or wasn't) obtained."""

    CLOSED_FORM = "closed_form"
    BOUNDS_ONLY = "bounds_only"
    ROOF_OPTIMIZER = "roof_optimizer"


@dataclass(frozen=True, eq=False)
class ConcurrenceReport:
    """Concurrence bounds, the exact value where it is known, and provenance.

    Invariants: 0 <= lower <= upper, and exact == lower when present.
    """

    lower: float
    upper: float
    exact: Optional[float]
    method: ConcurrenceMethod
    roof_trace: Optional[tuple] = None
    roof_converged: Optional[bool] = None


class RoofResult(NamedTuple):
    value: float
    trace: tuple
    converged: bool


def roof_optimizer(
    state: SCState,
    restarts: int = 16,
    seed=None,
) -> RoofResult:
    """Minimize the average pure concurrence over ensemble decompositions.

    With B the rank x N matrix of sqrt(eigenvalue)-scaled eigenvectors
    (from ``state.spectrum``),
    the rows of C = U B, for U any L x rank isometry, are an unnormalized
    ensemble of a, and every ensemble of size L arises this way.  The
    average concurrence is f(C) = sum_i w sqrt(S_i), with S_i =
    sum_{m<n} |C_im C_in|^2 and w = 2 (the bipartite objective; the
    k-party one is it times sqrt(k/2)).

    Minimization is conjugate-gradient descent over the ensembles of size
    L = 2 * rank, all starts batched in one (starts, L, N) tensor.  A step
    mixes rows by the Cayley transform C <- (I + tX/2)^-1 (I - tX/2) C,
    which is exactly unitary (Wen & Yin, Math. Program. 142, 397 (2013)).
    The gradient generator is K = A - A^dagger, with A = G C^dagger and G
    the Euclidean gradient (w / sqrt(S_i)) (P_i - p_im) C_im (p = |C|^2,
    P_i its row sums; 0 where S_i = 0); K U is the Riemannian gradient of
    U under the canonical metric (Edelman, Arias & Smith, SIAM J. Matrix
    Anal. Appl. 20, 303 (1998)).  X is D K D, D = diag(sqrt(S_i) / P_i),
    which slows rows near a product state (a kink of sqrt that plain
    gradient steps zig-zag across), plus a Polak-Ribiere share of the
    previous X while that stays a descent direction.  Each start's step t
    halves when a step fails the Armijo test and doubles when it passes;
    once f no longer resolves the decrease, a step must lower the
    gradient instead.  f is smoothed to
    sum_i w (sqrt(S_i + (delta P_i)^2) - delta P_i), within w * delta of
    f and free of kinks, with delta stepping through ``ROOF_SMOOTHING``
    down to 0.  A stage ends when each
    start's row-weighted gradient norm is at most max(delta,
    ``ROOF_GRAD_TOL``), or after ``ROOF_MAX_STEPS`` steps.  There are
    ``restarts`` * (rank + 1) starts, all of size 2 * rank: the spectral
    ensemble (padded with zero rows), then QR-orthonormalized Ginibre
    draws.

    Returns the best value, a trace of (iteration, best value)
    improvements of f, and whether every start ended the last stage
    below ``ROOF_GRAD_TOL``.  Non-convergence is not an error; the best
    value found still upper bounds the true convex roof.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    a = state.a
    weight = 2.0
    vals, vecs = state.spectrum
    rank = state.rank  # the eigenvalues above RANK_TOL are the last ``rank``
    if rank == 0:
        raise ValueError("coefficient matrix has no spectral weight")
    b = (vecs[:, -rank:] * np.sqrt(vals[-rank:])).T  # rank x N, rows sum back to a
    size = 2 * rank
    eye = np.eye(size)

    def descent(c, delta):
        """Smoothed f, generators K and D K D, and the rate <K, D K D> / 2."""
        p = np.abs(c) ** 2
        rows = p.sum(axis=-1)
        s = np.maximum(0.5 * (rows**2 - (p**2).sum(axis=-1)), 0.0)
        root = np.sqrt(s + (delta * rows) ** 2)
        scale = np.divide(weight, root, out=np.zeros_like(root), where=root > 0)
        radial = scale * (1.0 + 2.0 * delta**2) * rows - 2.0 * weight * delta
        grad = (radial[..., None] - scale[..., None] * p) * c
        k = grad @ c.conj().swapaxes(-1, -2)
        k = k - k.conj().swapaxes(-1, -2)
        pre = np.divide(root, rows, out=np.zeros_like(root), where=rows > 0)
        gen = pre[..., :, None] * k * pre[..., None, :]
        return weight * (root - delta * rows).sum(axis=-1), k, gen, inner(k, gen)

    def inner(x, y):
        return 0.5 * (x.conj() * y).real.sum(axis=(-2, -1))

    starts = restarts * (rank + 1)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((starts - 1, size, rank)) + 1j * rng.standard_normal(
        (starts - 1, size, rank)
    )
    c = np.concatenate([np.eye(size, rank)[None], np.linalg.qr(g)[0]]) @ b
    it = 0
    best = float(descent(c, 0.0)[0].min())
    trace = [(0, best)]

    for delta in ROOF_SMOOTHING:
        f, k, gen, rate = descent(c, delta)
        d = gen.copy()
        step = np.ones(starts)
        for n in range(ROOF_MAX_STEPS + 1):
            if delta == 0.0 and f.min() < best - 1e-14:
                best = float(f.min())
                trace.append((it, best))
            (act,) = np.nonzero(rate > max(delta, ROOF_GRAD_TOL) ** 2)
            if n == ROOF_MAX_STEPS or not act.size:
                break
            # conjugate direction while f resolves the decrease, else the gradient
            t, fa, ra = step[act], f[act], rate[act]
            slope = inner(k[act], d[act])
            reset = (slope <= 0) | (t * ra <= 1e-10 * fa)
            da = np.where(reset[:, None, None], gen[act], d[act])
            slope = np.where(reset, ra, slope)
            h = 0.5 * t[:, None, None] * da
            cand = np.linalg.solve(eye + h, (eye - h) @ c[act])  # Cayley: unitary
            f_new, k_new, gen_new, rate_new = descent(cand, delta)
            # Armijo while f resolves the decrease; below that, a smaller gradient
            armijo = f_new <= fa - 1e-4 * t * slope
            settled = (f_new <= fa + 1e-14 * fa) & (rate_new < ra)
            ok = np.where(t * slope > 1e-10 * fa, armijo, settled)
            beta = np.maximum(inner(k_new, gen_new - gen[act]) / ra, 0.0)
            i = act[ok]
            c[i], f[i], k[i] = cand[ok], f_new[ok], k_new[ok]
            gen[i], rate[i] = gen_new[ok], rate_new[ok]
            d[i] = gen_new[ok] + beta[ok, None, None] * da[ok]
            step[act] = np.where(ok, 2.0 * t, 0.5 * t)
            it += 1

    # guard against drift: the rows must still reconstruct the coefficients
    resid = np.abs(c.swapaxes(-1, -2) @ c.conj() - a).max()
    if resid > 1e-9:
        raise RuntimeError(f"ensemble decomposition drifted (residual {resid:.3e})")
    converged = bool((rate <= ROOF_GRAD_TOL**2).all())
    return RoofResult(value=best, trace=tuple(trace), converged=converged)


def _rank_one_plus_diagonal(a: np.ndarray, off: np.ndarray) -> bool:
    """Whether a - D = x x^dagger for a diagonal D >= 0, within ``RANK_TOL``.

    ``off`` holds the off-diagonal moduli and S the rows with one above
    ``RANK_TOL``; |S| <= 2 always qualifies (|a_mn|^2 <= a_mm a_nn).  Else x is
    rebuilt on S from one anchor triangle, (n, l) the largest entry and r
    the row maximizing |a_rn| |a_rl|: |x_r|^2 = |a_rn| |a_rl| / |a_nl|, x_m
    = a_mr / conj(x_r).  One comparison with a over S x S rejects
    incomplete or disjoint blocks and inconsistent triangle phases, and on
    the diagonal checks D >= 0: |x_m|^2 <= a_mm.
    """
    rows = (off > RANK_TOL).any(axis=0).nonzero()[0]
    if rows.size <= 2:
        return True
    a, off = a[rows][:, rows], off[rows][:, rows]  # S x S from here on
    n, l = divmod(int(off.argmax()), rows.size)
    through = off[n] * off[l]
    r = int(through.argmax())
    # a zero or subnormal anchor product gives inf/nan, which fails the test
    with np.errstate(all="ignore"):
        x_r = np.sqrt(through[r] / off[n, l])
        x = a[:, r] / x_r
        x[r] = x_r
        resid = x[:, None] * x.conj() - a
        resid.flat[:: rows.size + 1] = resid.diagonal().real.clip(0.0)
        return bool(np.abs(resid).max() <= RANK_TOL)


def concurrence(
    state: SCState,
    *,
    roof: bool = False,
    restarts: int = 16,
    seed=None,
) -> ConcurrenceReport:
    """Concurrence report: the closed form where it holds, bounds otherwise.

    Each component c of a decomposition of an SC state is an SC pure state
    of weighted concurrence sqrt(2) ||offdiag(c c^dagger)||_F, so by the
    triangle inequality lower = sqrt(2) ||offdiag(a)||_F (2|a_01| at N = 2).
    exact = lower when a - D = x x^dagger for a diagonal D >= 0: x and the
    product states of D attain it.  That covers rank-one, N = 2, diagonal
    and dephased pure states.  upper is sqrt(2(1 - 1/N)), tightened with
    ``roof``: to ``exact`` when it is known (empty trace, converged), else
    by ``roof_optimizer(state, restarts, seed)``, whose trace and
    ``converged`` flag the report carries.
    """
    off = state.moduli.copy()
    off.flat[:: state.dim + 1] = 0.0
    lower = float(np.sqrt(2.0 * (off**2).sum()))
    upper = float(np.sqrt(2.0 * (1.0 - 1.0 / state.dim)))
    exact = lower if _rank_one_plus_diagonal(state.a, off) else None
    roof_trace = roof_converged = None

    if exact is not None:
        method = ConcurrenceMethod.CLOSED_FORM
        if roof:
            upper, roof_trace, roof_converged = exact, (), True
    elif roof:
        method = ConcurrenceMethod.ROOF_OPTIMIZER
        result = roof_optimizer(state, restarts=restarts, seed=seed)
        upper = min(upper, result.value)
        roof_trace, roof_converged = result.trace, result.converged
    else:
        method = ConcurrenceMethod.BOUNDS_ONLY

    # a roof value can land ulps below lower, and lower ulps above sqrt(2(1 - 1/N))
    upper = max(upper, lower)
    return ConcurrenceReport(lower, upper, exact, method, roof_trace, roof_converged)


@dataclass(frozen=True, eq=False)
class OptimalSeparable:
    """The closest separable state: the diagonal part of the coefficients.

    Dropping every off-diagonal a_mn minimizes the relative entropy over
    all fully separable states, and the result is PPT by construction.
    """

    diag: np.ndarray

    def as_sc_state(self, parties: int) -> SCState:
        return new_sc_state(parties, self.diag.size, np.diag(self.diag))


def optimal_separable(state: SCState) -> OptimalSeparable:
    d = np.diagonal(state.a).real.copy()
    d.flags.writeable = False
    return OptimalSeparable(diag=d)


def relative_entropy(state: SCState, log_base: float = 2.0) -> float:
    """Relative entropy of entanglement, via the N x N shortcut.

    Equals S(rho || sigma*) with sigma* the diagonal part of the state:
    sum_i lambda_i log lambda_i - sum_m a_mm log a_mm, where lambda_i are
    the coefficient-matrix eigenvalues (``state.eigenvalues``).  Terms with
    weight <= 1e-15 are dropped (0 log 0 = 0); the result is clamped at 0
    against rounding.  ``log_base`` must be finite, positive and not 1.
    """
    if not np.isfinite(log_base) or log_base <= 0 or log_base == 1:
        raise ValueError(f"log_base must be finite, > 0 and != 1, got {log_base!r}")
    vals = state.eigenvalues
    diag = np.diagonal(state.a).real

    def plogp(p: np.ndarray) -> float:
        p = p[p > LOG_CLAMP]
        return float((p * np.log(p)).sum())

    value = (plogp(vals) - plogp(diag)) / np.log(log_base)
    return max(value, 0.0)
