"""Dense brute-force linear algebra used to cross-check every closed form.

Everything here works on explicit N^k x N^k arrays and deliberately avoids
LAPACK-backed decompositions: the eigensolver is a hand-written cyclic
complex Jacobi, so results verified against this module come from a code
path independent of the closed-form implementations (which use
``numpy.linalg`` on the small N x N coefficient matrix where they need
eigenvalues at all).

Multi-index convention, fixed project-wide: basis states of k parties are
flattened row-major with party 1 most significant, i.e. ``|i_1 ... i_k>``
maps to ``((i_1*N + i_2)*N + ...)*N + i_k``.
"""

import functools
import os

import numpy as np

from .errors import EigenConvergenceError, NotHermitianError, NotPSDError, SizeGuardError
from .states import DEFAULT_TOL, PureSCState, SCState

#: Largest N^k for which the oracle builds the dense N^k x N^k state, unless
#: the environment variable SC_SIZE_GUARD sets another.  No dense array an
#: oracle check builds is larger than that state, so one holds at most
#: guard^2 entries (~256 MB complex at the default; a 6-party 4-level
#: system is refused).
DEFAULT_SIZE_GUARD = 4095

#: Slack on the spectrum and trace of a density matrix given to
#: :func:`von_neumann_entropy`.
DENSITY_TOL = 1e-8


def check_size_guard(side: int) -> None:
    """Raise :class:`SizeGuardError` if a dense state of side N^k is too large.

    The guard is ``SC_SIZE_GUARD`` when that environment variable is set
    (a positive integer, else ``ValueError``), and ``DEFAULT_SIZE_GUARD``
    otherwise.  This is the only place the guard is read.
    """
    raw = os.environ.get("SC_SIZE_GUARD")
    try:
        guard = DEFAULT_SIZE_GUARD if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"SC_SIZE_GUARD must be an integer, got {raw!r}") from None
    if guard < 1:
        raise ValueError(f"SC_SIZE_GUARD must be positive, got {guard}")
    if side > guard:
        raise SizeGuardError(
            f"dense dimension {side} exceeds the size guard {guard}; "
            f"set SC_SIZE_GUARD to raise it if you really want this"
        )


def repeated_basis_index(level, parties: int, dim: int):
    """Flat index of |m m ... m> (k repetitions of digit m, base N).

    That is m (N^k - 1)/(N - 1), for a scalar or an array of levels; a
    Python int level gives an exact Python int for any k.  Inverted by
    ``divmod(idx, repeated_basis_index(1, parties, dim))``: remainder 0
    iff idx is a repeated index, and then the quotient is m.
    """
    return level * ((dim**parties - 1) // (dim - 1))


def normalize_party_subset(subset, parties: int, *, proper: bool = False) -> tuple:
    """Validate a 1-based party subset; returns it sorted and deduplicated."""
    idx = sorted(set(int(p) for p in subset))
    if not idx:
        raise ValueError("party subset must be nonempty")
    if idx[0] < 1 or idx[-1] > parties:
        raise ValueError(f"party indices must lie in [1, {parties}], got {idx}")
    if proper and len(idx) == parties:
        raise ValueError("party subset must be a proper subset for partial transposition")
    return tuple(idx)


def dense_from_sc(state: SCState) -> np.ndarray:
    """Explicit N^k x N^k density matrix of an SC state.

    Entry a_mn sits at (row, col) = (m repeated k times, n repeated k times)
    in the flat basis; all other entries vanish.
    """
    n, k = state.dim, state.parties
    total = n**k
    check_size_guard(total)
    rho = np.zeros((total, total), dtype=complex)
    idx = repeated_basis_index(np.arange(n), k, n)
    rho[np.ix_(idx, idx)] = state.a
    return rho


def dense_pure(psi: PureSCState) -> np.ndarray:
    """Explicit state vector (length N^k) of a pure SC state."""
    n, k = psi.dim, psi.parties
    total = n**k
    check_size_guard(total)
    vec = np.zeros(total, dtype=complex)
    vec[repeated_basis_index(np.arange(n), k, n)] = psi.amplitudes
    return vec


def partial_transpose(m: np.ndarray, subset, dims) -> np.ndarray:
    """Transpose the row/column indices of the parties in ``subset``.

    ``dims`` lists the local dimension of each party in order; ``subset``
    holds 1-based party indices and must be a nonempty proper subset.
    The operation is involutive and trace-preserving.
    """
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match party dimensions {dims} "
            f"(product {total})"
        )
    subset = normalize_party_subset(subset, k, proper=True)
    tensor = m.reshape(dims + dims)
    axes = list(range(2 * k))
    for p in subset:
        axes[p - 1], axes[k + p - 1] = axes[k + p - 1], axes[p - 1]
    return tensor.transpose(axes).reshape(total, total)


def _jacobi_rotation(a_pp: float, a_qq: float, a_pq: complex):
    """(c, s, phase) of the unitary U = [[c, -s phase], [s conj(phase), c]]
    for which U [[a_pp, a_pq], [conj(a_pq), a_qq]] U^dag is diagonal.

    ``a_pq`` must be nonzero.
    """
    ab = abs(a_pq)
    tau = (a_qq - a_pp) / (2.0 * ab)
    if tau == 0.0:
        t = 1.0
    else:
        t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c, a_pq / ab


def _rotate(x: np.ndarray, p: int, q: int, c, s, phase) -> None:
    """Apply [[c, -s phase], [s conj(phase), c]] in place to rows p and q of ``x``.

    Columns are rotated as the rows of the transpose view, with conj(phase).
    """
    xp, xq = x[p].copy(), x[q].copy()
    x[p] = c * xp - s * phase * xq
    x[q] = s * np.conj(phase) * xp + c * xq


def _check_finite(a: np.ndarray, rows, cols) -> np.ndarray:
    """The entries a[rows, cols], indices in row-major order and covering every
    nonzero of ``a``; a non-finite one raises ``ValueError`` naming the first."""
    entries = a[rows, cols]
    bad = np.flatnonzero(~np.isfinite(entries))
    if bad.size:
        where = (int(rows[bad[0]]), int(cols[bad[0]]))
        raise ValueError(f"matrix has a non-finite entry {a[where]} at {where}")
    return entries


def _coupled_pairs(src, dst) -> list:
    """The pairs (p, q), p < q, whose indices share a connected component of
    the graph with the edges (src[i], dst[i]), in row-major order.

    Components are merged edge by edge, smaller group into larger.
    """
    group_of = {}
    for p, q in zip(src.tolist(), dst.tolist()):
        gp = group_of.setdefault(p, [p])
        gq = group_of.setdefault(q, [q])
        if gp is not gq:
            if len(gp) < len(gq):
                gp, gq = gq, gp
            gp.extend(gq)
            for r in gq:
                group_of[r] = gp
    pairs = [(p, q) for p, group in group_of.items() for q in group if p < q]
    return sorted(pairs)


def hermitian_eigen(m: np.ndarray, *, vectors: bool = True):
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Sweeps zero out one off-diagonal entry at a time with a unitary 2x2
    rotation until the off-diagonal Frobenius norm falls below 1e-12
    times the matrix norm (at most 100 sweeps).

    The set-up reads only the nonzero pattern of ``m`` OR-ed with its
    transpose: the finiteness and Hermitian checks, the symmetrised
    entries (m + m^dag)/2, the norm and the coupled pairs all come from
    the entries gathered there.  A sweep visits, in row-major order, only
    the pairs (p, q) whose indices lie in one connected component of that
    pattern, and skips a pair whose entry is exactly zero.  This is exact:
    a rotation on (p, q) rewrites only rows and columns p and q, so an
    entry between two components stays zero, as the full scan leaves it,
    and the off-diagonal norm is sqrt(2) times the norm at those pairs.

    ``m`` must be square, finite and Hermitian: no |m - m^dag| entry may
    exceed ``states.DEFAULT_TOL``, the tolerance state validation uses.  A
    non-finite entry raises ``ValueError`` naming the first one in
    row-major order, before any sweep.

    Returns ``(values, vectors)`` with eigenvalues ascending and matching
    eigenvector columns; reconstruction ``V diag(w) V^dag`` and column
    orthonormality hold to well below 1e-9 for desk-scale matrices.  With
    ``vectors=False`` only the values are returned, bit-identical to the
    first item of the full result, and no eigenvector is accumulated.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    pattern = a != 0
    rows, cols = np.nonzero(pattern | pattern.T)
    entries, mirrored = _check_finite(a, rows, cols), a[cols, rows].conj()
    defect = float(np.abs(entries - mirrored).max()) if entries.size else 0.0
    if defect > DEFAULT_TOL:
        raise NotHermitianError(
            f"matrix is not Hermitian: worst defect {defect:.3e} exceeds {DEFAULT_TOL:.1e}",
            violation=defect,
        )
    n = a.shape[0]
    entries = (entries + mirrored) / 2.0
    a = np.zeros((n, n), dtype=complex)
    a[rows, cols] = entries
    v = np.eye(n, dtype=complex) if vectors else None
    norm = float(np.linalg.norm(entries))
    upper = rows < cols
    pairs = _coupled_pairs(rows[upper], cols[upper])
    pp, qq = np.array(pairs, dtype=int).reshape(-1, 2).T
    conv_tol = 1e-12
    for sweep in range(101):
        off = np.sqrt(2.0) * np.linalg.norm(a[pp, qq])
        if off <= conv_tol * norm:
            break
        if sweep == 100:
            raise EigenConvergenceError(
                f"Jacobi sweeps did not converge: off-diagonal norm {off:.3e} "
                f"above {conv_tol:.0e} * {norm:.3e} after 100 sweeps"
            )
        for p, q in pairs:
            if a[p, q] == 0.0:
                continue
            c, s, phase = _jacobi_rotation(a[p, p].real, a[q, q].real, a[p, q])
            _rotate(a, p, q, c, s, phase)
            _rotate(a.T, p, q, c, s, np.conj(phase))
            a[p, q] = 0.0
            a[q, p] = 0.0
            a[p, p] = a[p, p].real
            a[q, q] = a[q, q].real
            if vectors:
                _rotate(v.T, p, q, c, s, np.conj(phase))
    vals = np.real(np.diagonal(a)).copy()
    order = np.argsort(vals, kind="stable")
    if not vectors:
        return vals[order]
    return vals[order], v[:, order]


def realign(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Realign a bipartite matrix: output[(i,j),(k,l)] = input[(i,k),(j,l)].

    The input is (dim_a*dim_b) square; the output is dim_a^2 x dim_b^2.
    A trace norm above 1 certifies entanglement across the A|B split.
    """
    total = dim_a * dim_b
    if m.shape != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match split {dim_a}x{dim_b}"
        )
    return (
        m.reshape(dim_a, dim_b, dim_a, dim_b)
        .transpose(0, 2, 1, 3)
        .reshape(dim_a * dim_a, dim_b * dim_b)
    )


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values, by one-sided (Hestenes) Jacobi rotations.

    Works on the rows of the shorter side: each unitary 2x2 rotation mixes
    two rows so that they become orthogonal, which leaves the singular
    values unchanged.  Once every pair of rows is orthogonal to within
    round-off, the singular values are the row norms.  No Gram matrix is
    formed, so a small singular value keeps an absolute error of order
    eps times the largest and nothing is cut off.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    _check_finite(m, *np.nonzero(m))
    a = m.copy() if m.shape[0] <= m.shape[1] else m.conj().T.copy()
    rows = a.shape[0]
    conv_tol = max(a.shape) * np.finfo(float).eps
    for _ in range(100):
        gram = a @ a.conj().T
        sq = np.real(np.diagonal(gram))
        off = np.abs(gram - np.diag(np.diagonal(gram)))
        if (off <= conv_tol * np.sqrt(np.outer(sq, sq))).all():
            return float(np.sqrt(sq).sum())
        for p in range(rows - 1):
            for q in range(p + 1, rows):
                alpha = np.vdot(a[p], a[p]).real
                beta = np.vdot(a[q], a[q]).real
                b = np.vdot(a[q], a[p])
                if abs(b) <= conv_tol * np.sqrt(alpha * beta):
                    continue
                # the rotation that zeroes entry (p, q) of a a^dag
                _rotate(a, p, q, *_jacobi_rotation(alpha, beta, b))
    raise EigenConvergenceError(
        "one-sided Jacobi did not orthogonalise the rows in 100 sweeps"
    )


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy -sum lambda log2(lambda) of a density matrix, 0 log 0 = 0.

    Eigenvalues below -``DENSITY_TOL`` raise :class:`NotPSDError`, a trace
    off 1 by more than that raises ``ValueError``.
    """
    return _spectrum_entropy(hermitian_eigen(m, vectors=False))


def _spectrum_entropy(vals: np.ndarray) -> float:
    """:func:`von_neumann_entropy` of a density matrix with eigenvalues ``vals``."""
    if vals.min() < -DENSITY_TOL:
        raise NotPSDError(
            f"matrix has eigenvalue {vals.min():.3e} below -{DENSITY_TOL:.1e}",
            violation=float(-vals.min()),
        )
    if abs(vals.sum() - 1.0) > DENSITY_TOL:
        raise ValueError(f"trace {vals.sum():.6f} differs from 1 beyond {DENSITY_TOL:.1e}")
    lam = vals[vals > 1e-15]
    return float(-(lam * np.log(lam)).sum() / np.log(2.0))


def relative_entropy_dense(rho: np.ndarray, sigma: np.ndarray, *, rho_values=None) -> float:
    """Relative entropy Tr[rho log2 rho - rho log2 sigma] from dense matrices.

    The first term is -S(rho) as :func:`von_neumann_entropy` computes it
    (so rho must be a density matrix), from ``rho_values`` when the caller
    already holds rho's Jacobi eigenvalues.  sigma is eigendecomposed with
    the Jacobi solver, and its support is every eigenvalue above 1e-12
    times the largest.  The overlaps <v_i|rho|v_i> with its eigenvectors
    V are the column sums of conj(V_Z) * (rho_ZZ V_Z), one BLAS product on
    the indices Z of rho's nonzero rows (a zero row of a Hermitian rho is
    a zero column).  If rho has weight beyond 1e-9 outside sigma's
    support the result is ``inf`` (the flagged value for a support
    violation).
    """
    entropy = von_neumann_entropy(rho) if rho_values is None else _spectrum_entropy(rho_values)
    vals_s, vecs_s = hermitian_eigen(sigma)
    support = vals_s > 1e-12 * max(float(vals_s[-1]), 0.0)
    nz = np.flatnonzero(rho.any(axis=1))
    sub = vecs_s[nz]
    overlaps = (sub.conj() * (rho[np.ix_(nz, nz)] @ sub)).sum(axis=0).real
    leakage = float(np.trace(rho).real - overlaps[support].sum())
    if leakage > 1e-9:
        return float("inf")
    tr_r_log_s = float((overlaps[support] * np.log(vals_s[support])).sum())
    return -entropy - tr_r_log_s / float(np.log(2.0))


def su_generators(d: int) -> np.ndarray:
    """The d^2 - 1 traceless Hermitian SU(d) generators, Tr(g_a g_b) = 2 delta_ab.

    Ordering is a convention other modules depend on (the Bloch-tensor
    separability test singles out specific index blocks):

    1. d - 1 diagonal generators, ascending: the i-th (i = 0..d-2) is
       sqrt(2/((i+1)(i+2))) (sum_{a<=i} |a><a| - (i+1)|i+1><i+1|).
    2. (d^2-d)/2 symmetric generators |j><k| + |k><j|, pairs (j, k) with
       j < k in lexicographic order.
    3. (d^2-d)/2 antisymmetric generators -i(|j><k| - |k><j|), same pair
       order.
    """
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    return generator_combination(np.eye(int(d) ** 2 - 1), int(d))


def diagonal_generator_values(d: int, levels) -> np.ndarray:
    """(d - 1, len(levels)) values of the diagonal SU(d) generators at ``levels``.

    Generator i is sqrt(2/((i+1)(i+2))) on levels 0..i, -(i+1) times that
    on level i + 1, and zero above (item 1 of :func:`su_generators`).
    """
    i = np.arange(d - 1)[:, None]
    x = np.asarray(levels)[None, :]
    return np.sqrt(2.0 / ((i + 1) * (i + 2))) * ((x <= i) - (i + 1) * (x == i + 1))


@functools.cache
def _pair_indices(d: int) -> tuple:
    """``np.triu_indices(d, 1)``, read-only: the one order of the pairs j < k,
    for the SU(d) generators and for the coefficient pairs a_mn, m < n."""
    iu = np.triu_indices(d, 1)
    for idx in iu:
        idx.setflags(write=False)
    return iu


def generator_combination(coeffs, d: int) -> np.ndarray:
    """sum_i coeffs[..., i] g_i over :func:`su_generators`, shape (..., d, d).

    Each generator is written only at its own nonzeros, so nothing of
    size d^4 is built: the diagonal ones through their (d - 1) x d table
    from :func:`diagonal_generator_values`, the symmetric and
    antisymmetric ones of pair (j, k) at (j, k) and (k, j), pairs in
    :func:`_pair_indices` order.  :func:`_pair_position` is the inverse
    map.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-1:] != (d * d - 1,):
        raise ValueError(f"need {d * d - 1} coefficients on the last axis, got {coeffs.shape}")
    level = np.arange(d)
    j, k = _pair_indices(d)
    sym = coeffs[..., d - 1 : d - 1 + j.size]
    anti = coeffs[..., d - 1 + j.size :]
    out = np.zeros(coeffs.shape[:-1] + (d, d), dtype=complex)
    out[..., level, level] = coeffs[..., : d - 1] @ diagonal_generator_values(d, level)
    out[..., j, k] = sym - 1j * anti
    out[..., k, j] = sym + 1j * anti
    return out


def _pair_position(d: int, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Index of the symmetric SU(d) generator of pair (j, k), j < k; the
    antisymmetric one is ``_pair_indices(d)[0].size`` = d(d - 1)/2 further."""
    return (d - 1) + j * d - j * (j + 1) // 2 + (k - j - 1)


def reduced_density(m: np.ndarray, keep, dims) -> np.ndarray:
    """Partial trace onto the parties in ``keep`` (1-based), order preserved."""
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match party dimensions {dims}"
        )
    keep = normalize_party_subset(keep, k)
    if 2 * k > 52:
        raise ValueError(f"too many parties for the einsum route ({k})")

    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(letters[:k])
    col = list(letters[k : 2 * k])
    for p in range(1, k + 1):
        if p not in keep:
            col[p - 1] = row[p - 1]  # repeated index = trace over that party
    out = "".join(row[p - 1] for p in keep) + "".join(col[p - 1] for p in keep)
    spec = "".join(row) + "".join(col) + "->" + out
    kept_total = int(np.prod([dims[p - 1] for p in keep]))
    return np.einsum(spec, m.reshape(dims + dims)).reshape(kept_total, kept_total)
