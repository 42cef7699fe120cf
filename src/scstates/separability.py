"""Separability criteria for SC states.

Everything an SC state's partial transposes, realignment, and Bloch tensor
can say about entanglement collapses onto the off-diagonal entries of the
coefficient matrix, so each criterion here has a closed form computed from
the N x N coefficients alone: the PT spectrum is three fields (the zeros
only counted), the Bloch vectors and correlation tensor are stored by the
generator slots a_mn can fill (no stored array exceeds max(M, R) N
entries), and a witness is evaluated on an :class:`SCState`'s coefficients
only.  Level m of the state sits at the flat index
``repeated_basis_index(m, k, N)`` = m (N^k - 1)/(N - 1), and one ``divmod``
by the index of |1...1> inverts it.  No function here builds the
N^k x N^k matrix except ``Witness.to_dense``, the explicit form kept for
cross-checks, and only it reads the size guard.  The dense routes in
:mod:`scstates.oracle` and :mod:`scstates.verify` re-derive the same
quantities from the explicit matrices for cross-validation.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import oracle
from .oracle import repeated_basis_index
from .states import SCState

#: Default threshold on scaled dense traces / coefficient moduli for
#: separability verdicts.
DEFAULT_SEP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PTSpectrum:
    """Closed-form spectrum of any partial transpose of an SC state.

    For every nonempty proper subset of parties, the partially transposed
    density matrix has eigenvalues:

    - ``diagonal``: the N diagonal coefficients a_mm,
    - ``pair_magnitudes``: |a_mn| for m < n, each contributing a +/- pair,
    - zero, with multiplicity N^k - N^2 (a count, never materialized).
    """

    diagonal: np.ndarray
    pair_magnitudes: np.ndarray
    zero_multiplicity: int

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the partial transpose."""
        candidates = [float(self.diagonal.min())]
        if self.pair_magnitudes.size:
            candidates.append(float(-self.pair_magnitudes.max()))
        if self.zero_multiplicity > 0:
            candidates.append(0.0)
        return min(candidates)


@functools.cache
def _pair_indices(n: int) -> tuple:
    """``np.triu_indices(n, 1)``, the pairs m < n in row-major order, read-only."""
    iu = np.triu_indices(n, 1)
    for idx in iu:
        idx.setflags(write=False)
    return iu


def pt_spectrum(state: SCState) -> PTSpectrum:
    """Spectrum of the partially transposed state, in closed form.

    The same multiset is the exact spectrum for EVERY nonempty proper
    party subset; subset independence is asserted by the oracle suite
    rather than assumed.
    """
    a = state.a
    n = state.dim
    iu = _pair_indices(n)
    diag = np.diagonal(a).real.copy()
    # hypot, not the vectorised complex abs, which can differ from abs(a_mn) by an ulp
    pairs = np.hypot(a.real[iu], a.imag[iu])
    zero_mult = state.dim**state.parties - n * n
    return PTSpectrum(diagonal=diag, pair_magnitudes=pairs, zero_multiplicity=zero_mult)


def is_fully_separable(state: SCState, tol: float = DEFAULT_SEP_TOL) -> bool:
    """Separability decision: true iff every off-diagonal |a_mn| <= tol.

    For SC states this single check is equivalent to positivity under all
    partial transpositions and to full separability; a negative verdict
    means genuine multipartite entanglement.
    """
    a = state.a
    off = a - np.diag(np.diagonal(a))
    return float(np.abs(off).max()) <= tol


@dataclass(frozen=True, eq=False)
class Witness:
    """A sparse entanglement witness over the N^k product basis.

    ``terms`` holds (row, col, value) triples with flat row-major indices
    (party 1 most significant); the triple list is closed under Hermitian
    conjugation (r, c, v) <-> (c, r, conj(v)).  ``source_pairs`` records
    the coefficient pairs (m, n), m < n, the witness was built from.
    """

    dims: tuple
    terms: tuple
    source_pairs: tuple

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def to_dense(self) -> np.ndarray:
        """Explicit matrix form, for oracle cross-checks."""
        total = self.total_dim
        oracle.check_size_guard(total)
        w = np.zeros((total, total), dtype=complex)
        for r, c, v in self.terms:
            w[r, c] += v
        return w


def build_witness(state: SCState) -> Witness:
    """Entanglement witness detecting the state by its own coefficients.

    For each pair m < n with a_mn != 0, take the eigenvector of the
    (first-party) partial transpose with eigenvalue -|a_mn|,

        |Psi_mn> = (|m n...n> - e^{i theta} |n m...m>) / sqrt(2),
        theta = arg(a_mn),

    and add the partial transpose of its projector.  The resulting
    operator has nonnegative expectation on every fully separable state
    but expectation -sum_{m<n} |a_mn| on the source state.  A separable
    source yields an empty witness.
    """
    a = state.a
    n, k = state.dim, state.parties
    rows, cols = _pair_indices(n)
    amn = a[rows, cols]
    keep = amn != 0
    phase = np.exp(1j * np.angle(amn[keep]))
    # flat indices as exact Python ints: N^k can exceed int64
    lead = n ** (k - 1)  # place value of party 1's digit
    unit = repeated_basis_index(1, k, n)  # |1...1>
    unit_rest = repeated_basis_index(1, k - 1, n)  # |1...1> on parties 2..k
    pairs = list(zip(rows[keep].tolist(), cols[keep].tolist()))
    terms = []
    coherences = zip(pairs, (-0.5 * phase).tolist(), (-0.5 * phase.conj()).tolist())
    for (m, j), v, v_conj in coherences:
        # |m n...n> and |n m...m>, then |m...m><n...n| and its conjugate
        idx_mn = m * lead + j * unit_rest
        idx_nm = j * lead + m * unit_rest
        terms += [
            (idx_mn, idx_mn, 0.5 + 0j),
            (idx_nm, idx_nm, 0.5 + 0j),
            (m * unit, j * unit, v),
            (j * unit, m * unit, v_conj),
        ]
    return Witness(dims=(n,) * k, terms=tuple(terms), source_pairs=tuple(pairs))


def witness_expectation(w: Witness, target: SCState) -> float:
    """Expectation value Tr[W target] on an SC state, in closed form.

    Only terms (r, c, v) with both indices repeated, r = |m...m> and
    c = |n...n>, meet the state's support; each adds v a_nm.  Any fully
    separable target gives a nonnegative result up to round-off; the
    witness's own source state gives -sum_{m<n}|a_mn|.  A dense target is
    evaluated by :func:`scstates.verify.witness_residuals` instead.
    """
    if not isinstance(target, SCState):
        raise TypeError(f"target must be an SCState, got {type(target).__name__}")
    if target.dim != w.dims[0] or target.parties != len(w.dims):
        raise ValueError(
            f"dimension mismatch: witness on {w.dims}, "
            f"state has (k, N) = ({target.parties}, {target.dim})"
        )
    unit = repeated_basis_index(1, target.parties, target.dim)
    total = 0.0 + 0.0j
    for r, c, v in w.terms:
        m_row, off_row = divmod(c, unit)  # rho[c, r]
        m_col, off_col = divmod(r, unit)
        if off_row or off_col:
            continue
        total += v * target.a[m_row, m_col]
    return float(total.real)


def realignment_norm(state: SCState) -> float:
    """Trace norm of the realigned density matrix (split party 1 | rest).

    Equals sum_{m,n} |a_mn| in closed form; ranges over [1, N], hitting 1
    exactly for separable states and N only for the uniform maximally
    entangled coefficient matrix.
    """
    return float(np.abs(state.a).sum())


@dataclass(frozen=True, eq=False)
class BlochDecomposition:
    """Generator-basis expansion of an SC state across a bipartition, by its nonzeros.

    Parties 1..split form the first subsystem (dimension M = N^split),
    the rest the second (dimension R).  Coefficients follow

        rho = (1/(M R)) (I + sum_i r_i g_i x I + sum_j s_j I x g_j
                           + sum_ij t_ij g_i x g_j)

    with the generator ordering of :func:`scstates.oracle.su_generators`.
    Only the entries an SC state can make nonzero are stored:

    - ``r_diagonal`` (M - 1) and ``s_diagonal`` (R - 1): the diagonal-
      generator components of r and s; the rest of r and s is zero;
    - ``t_first`` (M - 1, N) and ``t_rest`` (R - 1, N): the diagonal-
      generator block of t is ``t_first @ t_rest.T``;
    - per pair m < n, ``pair_first`` and ``pair_rest``: the symmetric-
      generator indices i and j of (m_A, n_A) and (m_B, n_B), and
      ``pair_values``: v = (M R/2) a_mn.  Then t[i, j] = Re v,
      t[i', j'] = -Re v and t[i, j'] = t[i', j] = -Im v, where the prime
      adds d(d - 1)/2 on that side (the antisymmetric generator).

    Every other entry of t is zero.  :func:`scstates.verify.bloch_coefficients`
    expands the dense (r, s, t).
    """

    split: int
    r_diagonal: np.ndarray
    s_diagonal: np.ndarray
    t_first: np.ndarray
    t_rest: np.ndarray
    pair_first: np.ndarray
    pair_rest: np.ndarray
    pair_values: np.ndarray

    @property
    def dim_first(self) -> int:
        return self.r_diagonal.size + 1

    @property
    def dim_rest(self) -> int:
        return self.s_diagonal.size + 1


def _pair_position(d: int, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Index of the symmetric generator of pair (j, k), j < k, in SU(d)."""
    return (d - 1) + j * d - j * (j + 1) // 2 + (k - j - 1)


def bloch_decomposition(state: SCState, split: int = 1) -> BlochDecomposition:
    """Compute the Bloch vectors and correlation tensor across a split.

    Closed form: rho = sum_mn a_mn |m_A m_B><n_A n_B|, where level m sits at
    index m_A = m (M - 1)/(N - 1) of the first side (m repeated ``split``
    times in base N) and likewise m_B on the second.  So only the diagonal
    generators see the a_mm, giving r, s and the (M-1) x (R-1) diagonal
    block (M R/4) D_A diag(a) D_B^T of t, kept as its two factors; each
    pair m < n puts +/-(M R/2) Re a_mn and -(M R/2) Im a_mn at the
    symmetric and antisymmetric generators of (m_A, n_A) x (m_B, n_B),
    kept as two indices and one complex value.  No stored array has more
    than max(M, R) N entries, so no size guard applies.  ``split`` must
    satisfy 1 <= split <= parties - 1.
    """
    k, n = state.parties, state.dim
    if int(split) != split or not 1 <= split <= k - 1:
        raise ValueError(f"split must be an integer in [1, {k - 1}], got {split}")
    split = int(split)
    dim_first = n**split
    dim_rest = n ** (k - split)
    a = state.a
    levels_first = repeated_basis_index(np.arange(n), split, n)
    levels_rest = repeated_basis_index(np.arange(n), k - split, n)
    diag_a = np.diagonal(a).real
    diag_first = oracle.diagonal_generator_values(dim_first, levels_first)
    diag_rest = oracle.diagonal_generator_values(dim_rest, levels_rest)
    scale = dim_first * dim_rest / 4.0
    m, j = _pair_indices(n)
    return BlochDecomposition(
        split=split,
        r_diagonal=(dim_first / 2.0) * (diag_first @ diag_a),
        s_diagonal=(dim_rest / 2.0) * (diag_rest @ diag_a),
        t_first=scale * (diag_first * diag_a),
        t_rest=diag_rest,
        pair_first=_pair_position(dim_first, levels_first[m], levels_first[j]),
        pair_rest=_pair_position(dim_rest, levels_rest[m], levels_rest[j]),
        pair_values=2.0 * scale * a[m, j],
    )


def check_corollary2(b: BlochDecomposition, tol: float = DEFAULT_SEP_TOL) -> bool:
    """Bloch-tensor separability test, one vote per coefficient pair.

    Pair m < n fills t only through its value v = (M R/2) a_mn, so
    2 |v|/(M R) is |a_mn|; true iff that is at most ``tol`` for every
    pair.  So the verdict is :func:`is_fully_separable`'s on valid SC
    states, also at the tolerance boundary.
    """
    size = b.dim_first * b.dim_rest
    return 2.0 * float(np.abs(b.pair_values).max()) / size <= tol
