"""Dense brute-force linear algebra used to cross-check every closed form.

Everything here takes explicit N^k x N^k arrays and deliberately avoids
LAPACK-backed decompositions: results verified against this module come
from a code path independent of the closed-form implementations (which
use ``numpy.linalg`` on the small N x N coefficient matrix where they need
eigenvalues at all).  Its one rotation loop is a hand-written cyclic
complex Jacobi (:func:`_jacobi`) that returns eigenvalues only.  It reads
only a matrix's nonzero entries and rotates each connected component of
their pattern as a compact block, stacking blocks of one size from
matrices of any sides: :func:`state_spectra` diagonalises many partial
transposes of one matrix without building any of them and, in the same
call, the Hermitian dilation of its realignment and a witness's partial
transpose, read from positions alone; :func:`hermitian_eigen` is its
one-matrix case, and :func:`trace_norm` diagonalises the Hermitian
dilation of a rectangular matrix.  :func:`_plan` is the one cache of
where the blocks lie.  The relative entropy is taken to a diagonal sigma,
whose eigenvectors are the basis vectors, so it needs no eigenvectors
either.

Multi-index convention, fixed project-wide: basis states of k parties are
flattened row-major with party 1 most significant, i.e. ``|i_1 ... i_k>``
maps to ``((i_1*N + i_2)*N + ...)*N + i_k``.
"""

import functools
import itertools
import math
import os
from typing import NamedTuple

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


def _jacobi_rotation(a_pp, a_qq, a_pq):
    """(c, s, phase) of the unitary U = [[c, -s phase], [s conj(phase), c]]
    for which U [[a_pp, a_pq], [conj(a_pq), a_qq]] U^dag is diagonal.

    Takes scalars or equal-shape arrays, one rotation per element, with
    the same bits either way: |a_pq| of an array is ``hypot`` of its
    parts, which is how scalar ``abs`` computes it (numpy's vectorised
    complex ``abs`` can differ in the last bit).  ``a_pq`` must be nonzero.
    """
    ab = np.hypot(a_pq.real, a_pq.imag) if isinstance(a_pq, np.ndarray) else abs(a_pq)
    tau = (a_qq - a_pp) / (2.0 * ab)
    # tau = 0 gives t = 1: sign(0) = 0 zeroes the first term there
    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) + (tau == 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c, a_pq / ab


def _rotate(x: np.ndarray, p: int, q: int, c, k) -> None:
    """Apply [[c, k_0], [k_1, c]] in place to rows p and q of ``x``, with
    ``k`` = [[k_0], [k_1]]; or to those rows of every matrix in a stack
    ``x``, with c of shape (stack, 1, 1) and k of shape (stack, 2, 1).

    The two rows are one strided view, so each product and the sum take
    one array operation for both.  For the Jacobi rotation (c, s, phase)
    the rows take k = [[-u], [v]] with u = s phase and v = s conj(phase),
    and the columns, rotated as the rows of the transpose view,
    k = [[-v], [u]]: row p becomes c x_p + (-u) x_q, the same bits as
    c x_p - u x_q.
    """
    pair = x[..., p : q + 1 : q - p, :]
    pair[...] = c * pair + k * pair[..., ::-1, :]


def _rotate_pair(x: np.ndarray, p: int, q: int) -> None:
    """Zero entry (p, q) of the Hermitian block ``x``, or of each block in a
    stack ``x``, by one Jacobi rotation of its rows and columns p and q."""
    at = (...,) * (x.ndim - 2)  # a single block is indexed to scalars
    pp, qq, pq = at + (p, p), at + (q, q), at + (p, q)
    c, s, phase = _jacobi_rotation(x[pp].real, x[qq].real, x[pq])
    u, v = s * phase, s * np.conj(phase)
    k = np.array([-u, v, -v, u]).T[..., None]  # the row and the column coefficients
    if at:
        c = c[:, None, None]
    _rotate(x, p, q, c, k[..., :2, :])
    _rotate(x.swapaxes(-1, -2), p, q, c, k[..., 2:, :])
    x[pq] = x[at + (q, p)] = 0.0
    x[pp], x[qq] = x[pp].real, x[qq].real


def _check_finite(entries: np.ndarray, rows, cols) -> np.ndarray:
    """``entries``, the entries of a matrix at (rows, cols), indices in
    row-major order and covering every nonzero; a non-finite one raises
    ``ValueError`` naming the first."""
    bad = np.flatnonzero(~np.isfinite(entries))
    if bad.size:
        where = (int(rows[bad[0]]), int(cols[bad[0]]))
        raise ValueError(f"matrix has a non-finite entry {entries[bad[0]]} at {where}")
    return entries


def _symmetrised(entries, mirrored, rows, cols) -> np.ndarray:
    """(e + conj(e'))/2 of the entries e at (rows, cols), row-major and
    covering every nonzero, and e' at (cols, rows), after the finiteness
    check (:func:`_check_finite`) and the Hermitian one: an |e - conj(e')|
    above ``states.DEFAULT_TOL`` raises :class:`NotHermitianError`."""
    _check_finite(entries, rows, cols)
    mirrored = mirrored.conj()
    defect = float(np.maximum.reduce(abs(entries - mirrored), initial=0.0))
    if defect > DEFAULT_TOL:
        raise NotHermitianError(
            f"matrix is not Hermitian: worst defect {defect:.3e} exceeds {DEFAULT_TOL:.1e}",
            violation=defect,
        )
    return (entries + mirrored) / 2.0


def _closed(positions: np.ndarray, n: int) -> np.ndarray:
    """The row-major ``positions`` in an n x n matrix and their mirrors,
    ascending, each once."""
    keys = np.sort(np.concatenate([positions, positions % n * n + positions // n]))
    return keys[np.diff(keys, prepend=-1) != 0]  # np.unique(keys) imports numpy.ma, ~1 MB


def _hermitian_entries(m) -> tuple:
    """(n, keys, entries) of a square, finite, Hermitian matrix ``m``.

    ``keys`` are the flat row-major positions r n + c of the nonzero
    pattern of ``m`` OR-ed with its transpose, ascending, and ``entries``
    the symmetrised (m + m^dag)/2 there (:func:`_symmetrised`, with its
    errors).  ``m`` is read once, in blocks of rows whose flags take at
    most 1 MiB, so no larger temporary is made; the pattern is closed
    under transposition from the mirrored entries, which are gathered
    anyway, and only a zero among them (a one-sided entry) adds positions.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = len(a)
    step = max(1, (1 << 20) // max(1, n))
    found = [(a[r : r + step] != 0).ravel().nonzero()[0] + r * n for r in range(0, max(n, 1), step)]
    keys = np.concatenate(found)
    rows, cols = np.divmod(keys, n)
    mirrored = a[cols, rows]
    if not mirrored.all():
        keys = _closed(keys, n)
        rows, cols = np.divmod(keys, n)
        mirrored = a[cols, rows]
    return n, keys, _symmetrised(a[rows, cols], mirrored, rows, cols)


def _term_entries(n: int, rows, cols, values) -> tuple:
    """(keys, entries) of the n x n matrix that sums ``values`` at (rows,
    cols), as :func:`_hermitian_entries` reads that matrix written out
    densely, with its errors, but from the terms alone: the values are
    added per position in term order, the terms of a position whose sum
    is 0 are dropped, and the rest is closed under transposition and
    symmetrised.
    """
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    positions = rows * n + cols
    keys = _closed(positions, n)
    at = keys.searchsorted(positions)
    summed = np.zeros(keys.size, dtype=complex)
    np.add.at(summed, at, values)
    if not summed[at].all():
        keep = summed[at] != 0
        return _term_entries(n, rows[keep], cols[keep], np.asarray(values)[keep])
    rows, cols = np.divmod(keys, n)
    return keys, _symmetrised(summed, summed[keys.searchsorted(cols * n + rows)], rows, cols)


def _components(src, dst) -> list:
    """The connected components of the graph with the edges (src[i], dst[i]),
    src[i] < dst[i], listed in ascending order of src.

    Returns one int array (blocks, c) per component size c, ascending:
    each row is one component's vertices, ascending, and the rows are in
    the order of their smallest vertex.  Components are merged edge by
    edge, smaller group into larger.
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
    by_size = {}
    for group in sorted(map(sorted, {id(g): g for g in group_of.values()}.values())):
        by_size.setdefault(len(group), []).append(group)
    return [np.array(by_size[c]) for c in sorted(by_size)]


def _runs(lengths: tuple) -> tuple:
    """(start, stop, count, length) per run of equal consecutive ``lengths``,
    start and stop counted in the concatenation of the lengths."""
    runs, start = [], 0
    for length, group in itertools.groupby(lengths):
        count = len(list(group))
        runs.append((start, start + count * length, count, length))
        start += count * length
    return tuple(runs)


def _block_layout(sides: tuple, sizes: tuple, keys: np.ndarray) -> tuple:
    """Where :func:`_jacobi` puts the entries of Hermitian matrices of the
    given ``sides``, whose nonzeros sit at the row-major positions
    ``keys``: sizes[i] ascending positions for matrix i, then those of the
    next.

    Vertex s_i + r is row r of matrix i, s_i the sum of the sides before
    it.  All blocks live in one flat buffer,
    ``np.concatenate([entries, [0]]).take(index)`` for the entries in
    ``keys`` order.  Returns (total, index, stacks, upper_at, owner,
    diagonal, vertex, within, members, norm_runs, sort_runs), ``total``
    the sum of the sides and
    - ``stacks``, per block size c, ascending: (start, stop, shape,
      owners, pairs), the buffer slice of the stack and its shape
      (blocks, c, c); the matrix of each block; and the pairs (p, q),
      p < q, in row-major order;
    - ``upper_at``, the buffer positions of the blocks' entries (p, q),
      p < q, and ``owner``, the matrix of each of their float parts;
    - ``diagonal``, the entries on a diagonal, and ``vertex``, theirs;
    - ``within``, the buffer positions of the blocks' diagonals, and
      ``members``, their vertices, as from :func:`_components`;
    - ``norm_runs`` and ``sort_runs``, the :func:`_runs` of the sizes and
      of the sides: matrices of one size have their norms taken as the
      rows of one array, and those of one side their values sorted so.
    Matrices of any sides stack: a block never spans two of them.  The
    layout depends only on the pattern, which many matrices share (all
    random states of one shape and rank, and their partial transposes), so
    :func:`_plan` keeps it with the rest of a :func:`state_spectra` call's
    plan.  Its arrays are read-only.
    """
    count, total = len(sides), sum(sides)
    first = np.cumsum((0,) + sides)  # each matrix's first vertex, then the total
    matrix = np.repeat(np.arange(count), sizes)
    row, col = np.divmod(keys, np.repeat(sides, sizes))
    vertex, other = first[matrix] + row, first[matrix] + col
    flat = vertex * total + other  # ascending, as each matrix's keys ascend
    is_upper = vertex < other
    zero = len(flat)  # the place of the 0
    stacks, parts, start = [], [], 0
    for members in _components(vertex[is_upper], other[is_upper]):
        c = members.shape[1]
        query = (members * total)[:, :, None] + members[:, None, :]
        at = flat.searchsorted(query)
        block = np.where(flat.take(at, mode="clip") == query, at, zero)
        base = start + np.arange(0, block.size, c * c)[:, None]
        j, k = _pair_indices(c)
        owners = first.searchsorted(members[:, 0], side="right") - 1
        owners.setflags(write=False)
        pairs = tuple(zip(j.tolist(), k.tolist()))
        stacks.append((start, start + block.size, block.shape, owners, pairs))
        diagonals = base + np.arange(0, c * c, c + 1)
        parts.append((block, base + (j * c + k), np.repeat(owners, 2 * j.size), diagonals, members))
        start += block.size
    index, upper_at, owner, within, members = (
        np.concatenate([np.zeros(0, dtype=int)] + [part[i].ravel() for part in parts])
        for i in range(5)
    )
    diagonal = (vertex == other).nonzero()[0]
    vertex = vertex[diagonal]
    for array in [index, upper_at, owner, diagonal, vertex, within, members]:
        array.setflags(write=False)
    layout = total, index, tuple(stacks), upper_at, owner, diagonal, vertex, within, members
    return layout + (_runs(sizes), _runs(sides))


def _jacobi(layout: tuple, entries: np.ndarray) -> np.ndarray:
    """Cyclic complex Jacobi on Hermitian matrices of any sides at once.

    ``layout`` is :func:`_block_layout` of their sides, their sizes and
    their pattern: matrix i holds sizes[i] of the ``entries`` at as many
    ascending row-major positions (closed under transposition, entries
    symmetrised), after those of the matrices before it.  Each connected
    component of a matrix's pattern is rotated as a compact c x c block: a
    rotation on (p, q) rewrites only rows and columns p and q, so entries
    between components stay zero, as in a sweep over the whole matrix.
    Blocks of equal size are stacked, whatever matrix and side they come
    from (:func:`_block_layout`), and each rotation acts on the blocks of
    the stack whose entry is nonzero and whose matrix has not converged;
    a stack of one block is indexed to scalars.  Either way a block sees
    the arithmetic and the row-major pair order of the full sweep, so a
    matrix's values do not depend on what is stacked with it.

    A matrix has converged when its off-diagonal Frobenius norm is at most
    1e-12 times its norm; one still above after 100 sweeps raises
    :class:`EigenConvergenceError`.  Returns every matrix's eigenvalues,
    ascending, one after the other: ``total`` values.  This is the
    oracle's one rotation loop: eigenvalues, partial-transpose spectra
    and trace norms all come from it.
    """
    (total, index, stacks, upper_at, owner, diagonal, vertex, within, members,
     norm_runs, sort_runs) = layout
    buffer = np.concatenate([entries, [0.0]]).take(index)
    blocks = [buffer[start:stop].reshape(shape) for start, stop, shape, *_ in stacks]
    square = np.square(entries.view(float))  # a run's norms are the rows of one reduction
    norms = [square[2 * a : 2 * b].reshape(c, 2 * size) for a, b, c, size in norm_runs]
    norms = np.sqrt(np.concatenate([np.zeros(0)] + [np.add.reduce(x, axis=1) for x in norms]))
    conv_tol = 1e-12
    limit = conv_tol * norms
    for sweep in range(101 if stacks else 0):  # no coupled pair: nothing to rotate
        square = np.square(buffer.take(upper_at).view(float))
        off = np.sqrt(2.0 * np.bincount(owner, square, minlength=norms.size))
        live = off > limit
        above = live.nonzero()[0]
        if not above.size:
            break
        if sweep == 100:
            raise EigenConvergenceError(
                f"Jacobi sweeps did not converge: off-diagonal norm {off[above[0]]:.3e} "
                f"above {conv_tol:.0e} * {norms[above[0]]:.3e} after 100 sweeps"
            )
        for x, (*_, owners, pq) in zip(blocks, stacks):
            on = live[owners]
            if len(x) == 1:
                block = x[0]
                for p, q in pq if on[0] else ():
                    if block[p, q] != 0.0:
                        _rotate_pair(block, p, q)
                continue
            for p, q in pq:
                hit = (on & (x[:, p, q] != 0.0)).nonzero()[0]
                if hit.size:
                    part = x[hit]
                    _rotate_pair(part, p, q)
                    x[hit] = part
    values = np.zeros(total)
    values[vertex] = entries[diagonal].real
    values[members] = buffer[within].real
    for a, b, c, side in sort_runs:
        values[a:b].reshape(c, side).sort(axis=1, kind="stable")
    return values


def hermitian_eigen(m: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a Hermitian matrix by cyclic complex Jacobi
    rotations.

    Sweeps zero out one off-diagonal entry at a time with a unitary 2x2
    rotation until the off-diagonal Frobenius norm falls below 1e-12
    times the matrix norm (at most 100 sweeps).

    This is the one-matrix row of :func:`state_spectra`: ``m`` as one
    party, transposed over the empty subset.  The set-up reads only the
    nonzero pattern of ``m`` OR-ed with its transpose
    (:func:`_hermitian_entries`): the finiteness and Hermitian checks, the
    symmetrised entries (m + m^dag)/2 and the norm all come from the
    entries gathered there.  The sweeps run on one compact block per
    connected component of that pattern (:func:`_jacobi`), visiting its
    pairs in row-major order and skipping a pair whose entry is exactly
    zero; this gives the bits of a row-major sweep over the whole matrix.
    Where the blocks lie depends only on the pattern, and is kept for the
    last 64 patterns (:func:`_plan`).  No n x n array is allocated: the
    pattern scan's flags take at most 1 MiB per block of rows.

    ``m`` must be square, finite and Hermitian: no |m - m^dag| entry may
    exceed ``states.DEFAULT_TOL``, the tolerance state validation uses.  A
    non-finite entry raises ``ValueError`` naming the first one in
    row-major order, before any sweep.
    """
    return state_spectra(m, [()], np.shape(m)[:1]).transposes[0]


def _partial_transpose_keys(keys: np.ndarray, subsets, dims: tuple) -> np.ndarray:
    """Positions, shape (len(subsets), len(keys)), that the entries at the
    row-major positions ``keys`` take in the partial transpose over each
    subset: the base-``dims`` digits of its parties swap between row and
    column index."""
    k, n = len(dims), math.prod(dims)
    stride = [math.prod(dims[p + 1 :]) for p in range(k)]
    place = np.array([s * n for s in stride] + stride)[:, None]
    digits = keys // place % np.array(dims * 2)[:, None]
    swapped = (digits[k:] - digits[:k]) * np.array(stride)[:, None]  # what the row index gains
    chosen = np.array([[p in subset for p in range(1, k + 1)] for subset in subsets], dtype=int)
    return keys + (chosen @ swapped) * (n - 1)  # and the column index loses


class StateSpectra(NamedTuple):
    """What :func:`state_spectra` returns: the partial transposes' rows; the
    dilation's and the witness's rows, each None if not asked for; and the
    positions of the nonzeros of ``m`` that the one gather read (its
    pattern OR-ed with its transpose, ascending, row-major)."""

    transposes: np.ndarray
    dilation: object
    witness: object
    keys: np.ndarray


def state_spectra(m: np.ndarray, subsets, dims, *, dilation=False, witness=None) -> StateSpectra:
    """Ascending Jacobi eigenvalues of the partial transposes of ``m`` over
    each subset, and of up to two more matrices, all from one gather of the
    nonzeros of ``m`` and one :func:`_jacobi` sweep loop, as a
    :class:`StateSpectra`.

    ``transposes`` has shape (len(subsets), N), row i bit-identical to
    ``hermitian_eigen(partial_transpose(m, subsets[i], dims))``, but no
    transpose is built: the nonzeros of ``m`` are gathered, checked and
    symmetrised once (a partial transpose sends an entry and its mirror to
    an entry and its mirror, so this gives the bits of doing it on each
    transpose) and their positions mapped to each transpose's.  An empty
    subset transposes no party: its row is ``hermitian_eigen(m)``, which
    is this call with the one subset () and dims (n,).  Other subsets
    must be proper.  ``m`` is read and checked first, with the errors of
    :func:`hermitian_eigen`; then its side must be prod(dims), else
    ``ValueError``, as in :func:`partial_transpose`.  On request:
    - ``dilation=True``: the Hermitian dilation [[0, R], [R^dag, 0]] of
      R = ``realign(m, dims[0], prod(dims[1:]))``, its positions mapped
      from those of the gathered nonzeros (:func:`_realigned_keys`), so R
      is never built.  Half the sum of its row's moduli is R's trace
      norm, equal to ``trace_norm(R)`` for an exactly Hermitian ``m``.
    - ``witness=(rows, cols, values)``: the partial transpose over party 1
      of the Hermitian matrix W summing ``values`` at (rows, cols), read
      from the terms alone (:func:`_term_entries`); the row is
      bit-identical to ``hermitian_eigen(partial_transpose(W, [1], dims))``.

    Everything else is the :func:`_plan` of the patterns of ``m`` and W,
    so another state of one shape and rank pays only for reading its
    entries, summing W's terms, one gather of the values and the sweeps.
    """
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    n, keys, entries = _hermitian_entries(m)
    if n != total:
        raise ValueError(
            f"matrix shape {np.shape(m)} does not match party dimensions {dims} "
            f"(product {total})"
        )
    source, w_pattern = [entries, entries.conj()], None
    if witness is not None:
        w_keys, w_entries = _term_entries(total, *witness)
        source.append(w_entries)
        w_pattern = w_keys.tobytes()
    subsets, gather, layout = _plan(
        keys.tobytes(), w_pattern, dims, tuple(map(tuple, subsets)), dilation,
        _partial_transpose_keys, _realigned_keys,
    )
    spectra = _jacobi(layout, np.concatenate(source).take(gather))
    rows = spectra[: len(subsets) * total].reshape(len(subsets), total)
    at = rows.size + (total if witness is not None else 0)
    return StateSpectra(
        rows,
        spectra[at:] if dilation else None,
        spectra[rows.size : at] if witness is not None else None,
        keys,
    )


@functools.lru_cache(maxsize=64)
def _plan(
    pattern: bytes, w_pattern, dims: tuple, subsets: tuple, dilation: bool,
    transpose_rule, realign_rule,
) -> tuple:
    """(subsets, gather, layout), read-only, of a :func:`state_spectra` call
    on a matrix whose nonzeros sit at the row-major positions ``pattern``
    and a witness W whose nonzeros sit at ``w_pattern`` (the bytes of
    ascending int arrays; None for no witness).

    ``subsets`` are those given, each normalised by
    :func:`normalize_party_subset` as a proper subset, or () if empty.
    Each matrix's positions are mapped and sorted per matrix, in the order
    the rows come out: the partial transposes (``transpose_rule``, W^{T_1}
    by the same), then the dilation (``realign_rule``, its entries then
    their mirrors, as :func:`_dilated_keys`).  ``gather`` takes each
    matrix's entries in that order from the gathered entries, their
    conjugates and W's entries, one after the other, and ``layout`` is the
    :func:`_block_layout` of it all.  The rules are
    :func:`_partial_transpose_keys` and :func:`_realigned_keys` as the
    caller finds them, so a replaced rule is always called.  The last 64
    plans are kept: one serves every state of one shape and rank, or every
    matrix of one pattern given to :func:`hermitian_eigen`.  This is the
    oracle's one cache of Jacobi layouts.
    """
    keys = np.frombuffer(pattern, dtype=int)
    total = math.prod(dims)
    subsets = tuple(normalize_party_subset(s, len(dims), proper=True) if s else () for s in subsets)
    sides, parts, gather = [], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    if subsets:
        moved = transpose_rule(keys, subsets, dims)
        order = moved.argsort(axis=1)
        sides += [total] * len(subsets)
        parts += list(np.take_along_axis(moved, order, axis=1))
        gather.append(order.ravel())
    if w_pattern is not None:
        moved = transpose_rule(np.frombuffer(w_pattern, dtype=int), ((1,),), dims)[0]
        order = moved.argsort()
        sides.append(total)
        parts.append(moved[order])
        gather.append(2 * keys.size + order)
    if dilation:
        top = dims[0] ** 2
        sides.append(top + math.prod(dims[1:]) ** 2)
        moved, order = _dilated_keys(*realign_rule(keys, dims), top, sides[-1])
        parts.append(moved)
        gather.append(order)
    sizes = tuple(part.size for part in parts[1:])
    layout = _block_layout(tuple(sides), sizes, np.concatenate(parts))
    gather = np.concatenate(gather)
    gather.setflags(write=False)
    return subsets, gather, layout


def _realigned_keys(keys: np.ndarray, dims: tuple) -> tuple:
    """(rows, cols) that the entries at the row-major positions ``keys`` take
    in the realigned matrix (party 1 | the rest, as :func:`realign`): the
    row is party 1's row and column digit, the column the rest's row and
    column index."""
    rest = math.prod(dims[1:])
    row, col = np.divmod(keys, dims[0] * rest)
    (row_1, row_rest), (col_1, col_rest) = np.divmod(row, rest), np.divmod(col, rest)
    return row_1 * dims[0] + col_1, row_rest * rest + col_rest


def _dilated_keys(rows, cols, top: int, side: int) -> tuple:
    """(keys, order): the positions in the side x side Hermitian dilation
    [[0, R], [R^dag, 0]] of the entries of R, which has ``top`` rows, at
    (rows, cols), then of their mirrors, sorted, and the order that sorts
    them."""
    cols = cols + top
    keys = np.concatenate([rows * side + cols, cols * side + rows])
    order = keys.argsort()
    return keys[order], order


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
    """Sum of singular values, from :func:`_jacobi` on the Hermitian dilation
    H = [[0, m], [m^dag, 0]].

    The eigenvalues of H are +-s_i for the singular values s_i of ``m``,
    and |rows - columns| zeros, so the trace norm is half the sum of their
    moduli.  H is written from the nonzeros of ``m`` alone, and no Gram
    matrix is formed, so a small singular value keeps an absolute error of
    order eps times the largest and nothing is cut off.  The block layout
    is built on each call; nothing is kept.  A non-finite entry raises
    ``ValueError`` naming the first in row-major order, before any sweep.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    rows, cols = np.nonzero(m != 0)  # numpy scans the flags faster than complex m
    entries = _check_finite(m[rows, cols], rows, cols)
    n = sum(m.shape)
    keys, order = _dilated_keys(rows, cols, m.shape[0], n)
    layout = _block_layout((n,), (keys.size,), keys)
    values = _jacobi(layout, np.concatenate([entries, entries.conj()])[order])
    return 0.5 * float(np.abs(values).sum())


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy -sum lambda log2(lambda) of a density matrix, 0 log 0 = 0.

    Eigenvalues below -``DENSITY_TOL`` raise :class:`NotPSDError`, a trace
    off 1 by more than that raises ``ValueError``.
    """
    return _spectrum_entropy(hermitian_eigen(m))


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


def relative_entropy_dense(rho: np.ndarray, sigma, *, rho_values=None) -> float:
    """Relative entropy Tr[rho log2 rho - rho log2 sigma] of a dense rho to a
    diagonal sigma, given as its length-n diagonal.

    The first term is -S(rho) as :func:`von_neumann_entropy` computes it
    (so rho must be a density matrix), from ``rho_values`` when the caller
    already holds rho's Jacobi eigenvalues.  sigma's eigenvectors are the
    basis vectors, so the overlaps <i|rho|i> are rho's diagonal, and its
    support is every entry above 1e-12 times the largest.  If rho has
    weight beyond 1e-9 outside that support the result is ``inf`` (the
    flagged value for a support violation).  No n x n array is built.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (len(rho),) or not np.isfinite(sigma).all():
        raise ValueError(
            f"sigma must be a finite vector of length {len(rho)}, got shape {sigma.shape}"
        )
    entropy = von_neumann_entropy(rho) if rho_values is None else _spectrum_entropy(rho_values)
    support = sigma > 1e-12 * sigma.max(initial=0.0)
    overlaps = np.diagonal(rho).real[support]
    if float(np.trace(rho).real - overlaps.sum()) > 1e-9:
        return float("inf")
    tr_r_log_s = float((overlaps * np.log(sigma[support])).sum())
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


@functools.lru_cache(maxsize=64)
def _pair_indices(d: int) -> tuple:
    """``np.triu_indices(d, 1)``, read-only: the one order of the pairs j < k,
    for the SU(d) generators and for the coefficient pairs a_mn, m < n.
    Kept for the last 64 d."""
    iu = np.triu_indices(d, 1)
    for idx in iu:
        idx.setflags(write=False)
    return iu


def _generator_levels(d: int, count: int) -> tuple:
    """(levels, values, first, second, slot), read-only, for ``count`` evenly
    spaced levels of SU(d), from 0 to d - 1 (``count`` = d: all of them).

    ``values`` is :func:`diagonal_generator_values` at ``levels``; per pair
    m < n of the levels, in :func:`_pair_indices` order, ``first`` and
    ``second`` are levels[m] and levels[n], and ``slot`` the index of
    their symmetric generator (:func:`_pair_position`).  These depend only
    on (d, count), which repeat with the shape of a state, so they are
    kept for the last 64 (d, count) whose table holds at most 2^12 entries
    (32 KiB; everything kept for one is under 100 KiB).  Larger ones are
    built per call: they only arise where the dense rebuild they feed costs
    far more than building them.
    """
    if (d - 1) * count > 1 << 12:
        return _build_generator_levels(d, count)
    return _kept_generator_levels(d, count)


def _build_generator_levels(d: int, count: int) -> tuple:
    levels = np.arange(count) * ((d - 1) // max(count - 1, 1))
    m, n = _pair_indices(count)
    first, second = levels[m], levels[n]
    out = (levels, diagonal_generator_values(d, levels), first, second)
    out += (_pair_position(d, first, second),)
    for array in out:
        array.setflags(write=False)
    return out


_kept_generator_levels = functools.lru_cache(maxsize=64)(_build_generator_levels)


def generator_combination(coeffs, d: int) -> np.ndarray:
    """sum_i coeffs[..., i] g_i over :func:`su_generators`, shape (..., d, d).

    Each generator is written only at its own nonzeros, so nothing of
    size d^4 is built: the diagonal ones through their (d - 1) x d table
    from :func:`diagonal_generator_values`, the symmetric and
    antisymmetric ones of pair (j, k) at (j, k) and (k, j), pairs in
    :func:`_pair_indices` order.  :func:`_pair_position` is the inverse
    map.  The table and the index vectors come from
    :func:`_generator_levels`, so a repeated d reuses them.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-1:] != (d * d - 1,):
        raise ValueError(f"need {d * d - 1} coefficients on the last axis, got {coeffs.shape}")
    level, values, j, k, _ = _generator_levels(d, d)
    out = np.zeros(coeffs.shape[:-1] + (d, d), dtype=complex)
    out[..., level, level] = coeffs[..., : d - 1] @ values
    sym, anti = coeffs[..., d - 1 : d - 1 + j.size], coeffs[..., d - 1 + j.size :]
    out[..., j, k], out[..., k, j] = _pair_entries(sym, anti)
    return out


def _pair_entries(sym, anti) -> tuple:
    """The entries at (j, k) and (k, j), j < k, of sym g + anti g' for the
    symmetric generator g and the antisymmetric one g' of the pair (j, k):
    sym - i anti and sym + i anti.  The one place of that sign convention."""
    anti = 1j * anti
    return sym - anti, sym + anti


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
