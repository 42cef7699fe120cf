"""Core data types and constructors for Schmidt-correlated states.

A k-partite Schmidt-correlated (SC) state is fully determined by an N x N
coefficient matrix ``a``::

    rho = sum_{m,n} a[m, n] |m...m><n...n|

with ``a`` Hermitian, positive semidefinite, and of unit trace.  Everything
in this package operates on that small matrix; the dense N^k x N^k carrier
only ever appears inside :mod:`scstates.oracle`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EigenConvergenceError,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    UnsupportedDimensionError,
)

#: Validation tolerance: on Hermiticity, unit trace and the smallest
#: eigenvalue of a coefficient matrix, and on the norm of an amplitude
#: vector.
DEFAULT_TOL = 1e-10

#: Eigenvalues of a coefficient matrix count toward its rank, and stay in
#: its spectral ensemble, only when they are above this.
RANK_TOL = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _spectrum(a: np.ndarray) -> tuple:
    """(ascending eigenvalues, eigenvector columns) of ``a`` from one ``eigh``, write-protected.

    The only eigensolver call on a coefficient matrix, and the only place
    its ``LinAlgError`` becomes :class:`EigenConvergenceError`.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigendecomposition of the coefficient matrix failed: {exc}"
        ) from exc
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return eigenvalues, eigenvectors


def validate_coeff_matrix(a) -> np.ndarray:
    """Validate a candidate coefficient matrix and return a clean copy.

    Checks, in order: finite entries, then Hermiticity, unit trace and
    smallest eigenvalue >= 0, each within ``DEFAULT_TOL``.
    The accepted matrix is symmetrized ((a + a^dag)/2) so downstream closed
    forms see an exactly Hermitian array, and returned write-protected.

    Raises
    ------
    NotHermitianError, NotUnitTraceError, NotPSDError
        Each carries the worst violation magnitude in ``.violation``.
    ValueError
        For non-square or non-finite input.
    """
    h = _validate(a)[0]
    h.setflags(write=False)
    return h


def _validate(a) -> tuple:
    """:func:`validate_coeff_matrix`, plus the spectrum its PSD check computed.

    The symmetrized matrix comes back writable and shared with no one, so
    :class:`SCState` stores its one write-protected copy of it.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("coefficient matrix contains non-finite entries")

    adjoint = a.conj().T
    herm_defect = float(np.abs(a - adjoint).max())
    if herm_defect > DEFAULT_TOL:
        raise NotHermitianError(
            f"matrix is not Hermitian: worst |a_mn - conj(a_nm)| = {herm_defect:.3e} "
            f"exceeds {DEFAULT_TOL:.1e}",
            violation=herm_defect,
        )
    h = (a + adjoint) / 2.0
    _require_unit_trace(float(np.trace(h).real))
    spectrum = _spectrum(h)
    _require_psd(float(spectrum[0][0]))  # eigh's eigenvalues ascend
    return h, spectrum


def _require_unit_trace(trace: float) -> None:
    trace_defect = abs(trace - 1.0)
    if trace_defect > DEFAULT_TOL:
        raise NotUnitTraceError(
            f"trace differs from 1 by {trace_defect:.3e} (tolerance {DEFAULT_TOL:.1e})",
            violation=trace_defect,
        )


def _require_psd(eigmin: float) -> None:
    if eigmin < -DEFAULT_TOL:
        raise NotPSDError(
            f"matrix is not positive semidefinite: min eigenvalue {eigmin:.3e} "
            f"below -{DEFAULT_TOL:.1e}",
            violation=-eigmin,
        )


def validate_diagonal(d) -> np.ndarray:
    """Validate the diagonal coefficient matrix diag(d) without building it.

    The checks of :func:`validate_coeff_matrix`, with its exceptions and
    messages: finite entries (``ValueError``), trace within
    ``DEFAULT_TOL`` of 1 (:class:`NotUnitTraceError`), and no eigenvalue,
    which here is an entry of d, below -``DEFAULT_TOL``
    (:class:`NotPSDError`); a diagonal matrix is Hermitian.  Returns d as
    a float vector.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or not d.size:
        raise ValueError(f"diagonal must be a nonempty vector, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("coefficient matrix contains non-finite entries")
    _require_unit_trace(float(d.sum()))
    _require_psd(float(d.min()))
    return d


@dataclass(frozen=True, eq=False)
class SCState:
    """A k-partite Schmidt-correlated mixed state.

    Attributes
    ----------
    parties : int
        Number of parties k (>= 2).
    a : numpy.ndarray
        The N x N coefficient matrix.  Construct through
        :func:`new_sc_state` to get validation and symmetrization;
        the stored array is write-protected.
    """

    parties: int
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen(self.a))

    @property
    def dim(self) -> int:
        """Local dimension N."""
        return self.a.shape[0]

    @cached_property
    def spectrum(self) -> tuple:
        """``(eigenvalues, eigenvectors)`` of ``a`` from one ``eigh``, computed once.

        Eigenvalues ascend, with matching eigenvector columns; both arrays
        are write-protected.  :func:`new_sc_state` fills this from its
        positivity check, so no caller diagonalizes ``a`` again.
        """
        return _spectrum(self.a)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of ``a``, read from :attr:`spectrum`."""
        return self.spectrum[0]

    @property
    def rank(self) -> int:
        """Number of eigenvalues above ``RANK_TOL``, read from :attr:`spectrum`."""
        return int((self.eigenvalues > RANK_TOL).sum())

    @cached_property
    def moduli(self) -> np.ndarray:
        """|a_mn| as ``hypot(a.real, a.imag)``, computed once, write-protected.

        ``hypot`` matches the scalar ``abs(a_mn)`` bit for bit; numpy's
        vectorised complex ``abs`` can differ from it by an ulp.
        """
        out = np.hypot(self.a.real, self.a.imag)
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class PureSCState:
    """A pure SC state sum_m c_m |m...m>, stored by its amplitude vector."""

    parties: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A pure-state ensemble realizing an SC state.

    ``components`` is a tuple of ``(weight, PureSCState)`` pairs with
    positive weights summing to 1.
    """

    components: tuple

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components])

    @property
    def states(self) -> tuple:
        return tuple(s for _, s in self.components)

    def coeff_matrix(self) -> np.ndarray:
        """Reconstruct sum_i p_i c^(i) (c^(i))^dag."""
        n = self.components[0][1].dim
        a = np.zeros((n, n), dtype=complex)
        for w, psi in self.components:
            c = psi.amplitudes
            a += w * np.outer(c, c.conj())
        return a


def new_sc_state(parties: int, dim: int, a) -> SCState:
    """Build a validated :class:`SCState` from a coefficient matrix.

    Validation is idempotent: feeding an accepted state's matrix back in
    always succeeds, because acceptance symmetrizes the stored copy.
    """
    if int(parties) != parties or parties < 2:
        raise ValueError(f"party count must be an integer >= 2, got {parties}")
    if int(dim) != dim or dim < 2:
        raise ValueError(f"local dimension must be an integer >= 2, got {dim}")
    arr = np.asarray(a, dtype=complex)
    if arr.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {arr.shape}")
    h, spectrum = _validate(arr)
    state = SCState(parties=int(parties), a=h)
    state.__dict__["spectrum"] = spectrum  # the positivity check's eigendecomposition
    return state


def new_pure_sc_state(parties: int, amplitudes) -> PureSCState:
    """Build a validated :class:`PureSCState` from an amplitude vector."""
    if int(parties) != parties or parties < 2:
        raise ValueError(f"party count must be an integer >= 2, got {parties}")
    c = np.asarray(amplitudes, dtype=complex)
    if c.ndim != 1 or c.shape[0] < 2:
        raise ValueError(f"amplitudes must be a vector of length >= 2, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("amplitudes contain non-finite entries")
    norm_defect = float(abs(np.vdot(c, c).real - 1.0))
    if norm_defect > DEFAULT_TOL:
        raise NotUnitTraceError(
            f"squared norm differs from 1 by {norm_defect:.3e} (tolerance {DEFAULT_TOL:.1e})",
            violation=norm_defect,
        )
    return PureSCState(parties=int(parties), amplitudes=c)


def ghz(parties: int, dim: int) -> PureSCState:
    """The uniform maximally entangled state (1/sqrt(N)) sum_m |m...m>."""
    if int(parties) != parties or parties < 2 or int(dim) != dim or dim < 2:
        raise ValueError(
            f"need integer parties >= 2 and dimension >= 2, got ({parties}, {dim})"
        )
    c = np.full(int(dim), 1.0 / np.sqrt(dim), dtype=complex)
    return PureSCState(parties=int(parties), amplitudes=c)


def pure_to_mixed(psi: PureSCState) -> SCState:
    """Promote a pure SC state to its rank-one mixed representation.

    The coefficient matrix is the outer product a_mn = c_m conj(c_n),
    which is exactly Hermitian and PSD in floating point.
    """
    c = psi.amplitudes
    a = np.outer(c, c.conj())
    return new_sc_state(psi.parties, psi.dim, a)


def spectral_ensemble(state: SCState) -> Ensemble:
    """Realize a state by the eigendecomposition of its coefficient matrix.

    Components are (eigenvalue, eigenvector) pairs ordered by descending
    weight; eigenvalues at or below ``RANK_TOL`` are dropped, so there are
    ``state.rank`` components.
    """
    lam, vec = state.spectrum
    comps = []
    for i in reversed(range(lam.size - state.rank, lam.size)):  # the largest, descending
        comps.append(
            (float(lam[i]), PureSCState(parties=state.parties, amplitudes=vec[:, i]))
        )
    return Ensemble(components=tuple(comps))


def equal_modulus_ensemble(state: SCState) -> Ensemble:
    """Realize a two-level state by components with amplitude moduli (sqrt(a_00), sqrt(a_11)).

    Solves the one-pair moment problem: two equal-weight components whose
    relative phases are -arg(a_01) +/- phi with cos(phi) =
    |a_01|/sqrt(a_00 a_11), so the mixture reproduces a_01 exactly.  A pure
    input (phi = 0) or a degenerate diagonal (a_00 = 0 or a_11 = 0)
    collapses to a single component.

    Only implemented for N = 2; use :func:`spectral_ensemble` for larger
    local dimensions.
    """
    if state.dim != 2:
        raise UnsupportedDimensionError(
            f"equal-modulus construction is implemented for local dimension 2 only, "
            f"got N = {state.dim}"
        )
    a = state.a
    a00, a11 = a[0, 0].real, a[1, 1].real
    mod = np.sqrt([max(a00, 0.0), max(a11, 0.0)])

    if a00 <= 0.0 or a11 <= 0.0:
        # degenerate support: the state is a single basis projector
        c = mod.astype(complex)
        c /= np.linalg.norm(c)
        return Ensemble(components=((1.0, PureSCState(state.parties, c)),))

    ratio = state.moduli[0, 1] / np.sqrt(a00 * a11)
    alpha = np.angle(a[0, 1])
    if ratio >= 1.0 - 1e-12:
        # rank one (pure) up to round-off: one component carries the phase
        c = np.array([mod[0], mod[1] * np.exp(-1j * alpha)])
        return Ensemble(components=((1.0, PureSCState(state.parties, c)),))

    phi = np.arccos(ratio)
    comps = []
    for sign in (+1.0, -1.0):
        c = np.array([mod[0], mod[1] * np.exp(1j * (-alpha + sign * phi))])
        comps.append((0.5, PureSCState(state.parties, c)))
    return Ensemble(components=tuple(comps))


def random_sc_state(parties: int, dim: int, seed) -> SCState:
    """Draw a random SC state from the Ginibre-induced measure.

    The coefficient matrix is G G^dag / Tr(G G^dag) with G an N x N matrix
    of independent standard complex Gaussians, so Hermiticity and positive
    semidefiniteness hold by construction.  ``seed`` may be an integer or a
    ``numpy.random.Generator``; integers go through
    ``numpy.random.default_rng`` (PCG64), which pins the bit stream across
    platforms.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2.0
    a = w / np.trace(w).real
    return new_sc_state(parties, dim, a)


def random_pure_sc_state(parties: int, dim: int, seed, support_size: int | None = None) -> PureSCState:
    """Draw a random pure SC state, optionally restricted to a random support.

    With ``support_size = t``, the amplitude vector is nonzero on t basis
    levels chosen uniformly at random; entries are normalized complex
    Gaussians.  Mainly a test-input generator (used by the SLOCC
    verification suite).
    """
    rng = np.random.default_rng(seed)
    t = dim if support_size is None else int(support_size)
    if not 1 <= t <= dim:
        raise ValueError(f"support size must be in [1, {dim}], got {support_size}")
    support = rng.choice(dim, size=t, replace=False)
    c = np.zeros(dim, dtype=complex)
    c[np.sort(support)] = rng.standard_normal(t) + 1j * rng.standard_normal(t)
    c /= np.linalg.norm(c)
    return PureSCState(parties=int(parties), amplitudes=c)
