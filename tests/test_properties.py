"""Property tests: the |m...m> index rule, verdicts near the tolerance
boundary and at exact ties, and the identities every report must satisfy.

The four separability votes agree within 1e-6 of ``tol`` for every N.  At
a tie, |a_mn| = ``tol`` exactly, they agree when N is a power of two; for
other N the Bloch vote reads |a_mn| back from (M R/2) a_mn, which can move
it by an ulp, and only the other three are held to agree."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scstates import (
    bloch_decomposition,
    build_witness,
    canonical_dumps,
    check_corollary2,
    concurrence,
    dumps_state,
    is_fully_separable,
    loads_state,
    negativity,
    new_sc_state,
    pt_spectrum,
    pure_to_mixed,
    random_pure_sc_state,
    random_sc_state,
    realignment_norm,
    validate_coeff_matrix,
    witness_expectation,
)
from scstates.oracle import repeated_basis_index
from scstates.verify import separability_votes

DIGITS = "0123456789abcdef"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    parties=st.integers(1, 80),
    dim=st.integers(2, 16),
    data=st.data(),
)
def test_repeated_index_round_trips_through_divmod(parties, dim, data):
    level = data.draw(st.integers(0, dim - 1))
    idx = repeated_basis_index(level, parties, dim)
    assert idx == int(DIGITS[level] * parties, dim)  # k base-N digits m
    assert divmod(idx, repeated_basis_index(1, parties, dim)) == (level, 0)
    # any other flat index leaves a remainder
    flat = data.draw(st.integers(0, dim**parties - 1))
    digits = np.base_repr(flat, dim).lower().rjust(parties, "0")
    remainder = flat % repeated_basis_index(1, parties, dim)
    assert (remainder == 0) == (len(set(digits)) == 1)


@pytest.mark.parametrize("parties, dim", [(70, 2), (25, 8)])
def test_witness_expectation_past_int64(parties, dim):
    state = random_sc_state(parties, dim, parties)
    a = state.a
    target = -sum(abs(a[m, n]) for m in range(dim) for n in range(m + 1, dim))
    assert abs(witness_expectation(build_witness(state), state) - target) <= 1e-12


@st.composite
def boundary_states(draw):
    """SC states with one |a_mn| = tol (1 +/- 1e-6) at a random phase, N^k <= 256."""
    dim = draw(st.integers(2, 16))
    parties = draw(st.integers(2, int(np.log(256) / np.log(dim) + 1e-9)))
    m, n = sorted(draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True)))
    tol = 10.0 ** draw(st.integers(-12, -3))
    side = draw(st.sampled_from([-1.0, 1.0]))
    phase = draw(st.floats(0.0, 2.0 * np.pi))
    weights = 1.0 + np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)))
    a = np.diag(weights / weights.sum()).astype(complex)
    a[m, n] = tol * (1.0 + side * 1e-6) * np.exp(1j * phase)
    a[n, m] = np.conj(a[m, n])
    return new_sc_state(parties, dim, a), tol


def _coherent(parties, diagonal, pairs):
    a = np.diag(diagonal).astype(complex)
    for (m, n), value in pairs.items():
        a[m, n] = value
        a[n, m] = np.conj(value)
    return new_sc_state(parties, len(diagonal), a), 1e-9


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=boundary_states())
@example(case=_coherent(3, [0.5, 0.5], {(0, 1): 0.6e-9}))
@example(case=_coherent(3, [0.5, 0.5], {(0, 1): 0.9e-9}))
@example(case=_coherent(3, [0.4, 0.3, 0.3], {(0, 1): 0.8e-9, (1, 2): 0.8e-9}))
def test_bloch_vote_agrees_at_the_tolerance_boundary(case):
    state, tol = case
    verdict = is_fully_separable(state, tol)
    assert (pt_spectrum(state).min_eigenvalue() >= -tol) == verdict
    for split in range(1, state.parties):
        assert check_corollary2(bloch_decomposition(state, split), tol) == verdict
    votes = separability_votes(state, tol=tol, splits=range(1, state.parties))
    assert set(votes.values()) == {verdict}, votes


def _tie_states(parties, dim, phases=300):
    """States with |a_01| = 0.9/N at evenly spaced phases, each with tol = |a_01|
    exactly, as ``SCState.moduli`` takes it."""
    for phase in np.linspace(0.0, 2.0 * np.pi, phases, endpoint=False):
        a = np.diag(np.full(dim, 1.0 / dim)).astype(complex)
        a[0, 1] = 0.9 / dim * np.exp(1j * phase)
        a[1, 0] = np.conj(a[0, 1])
        state = new_sc_state(parties, dim, a)
        yield state, float(state.moduli[0, 1])


@pytest.mark.parametrize("parties, dim", [(2, 2), (3, 2), (4, 2), (2, 4)])
def test_votes_agree_at_an_exact_tie_when_n_is_a_power_of_two(parties, dim):
    for state, tol in _tie_states(parties, dim):
        votes = separability_votes(state, tol=tol, splits=range(1, parties))
        assert set(votes.values()) == {True}, votes


@pytest.mark.parametrize("parties, dim", [(2, 3), (3, 3)])
def test_realignment_vote_is_the_off_diagonal_one_at_an_exact_tie(parties, dim):
    for state, tol in _tie_states(parties, dim):
        votes = separability_votes(state, tol=tol, splits=range(1, parties))
        assert votes["realignment"] == votes["off_diagonal"] == votes["pt_nonnegative"]


sc_states = st.builds(
    lambda parties, dim, seed, pure: (
        pure_to_mixed(random_pure_sc_state(parties, dim, seed))
        if pure
        else random_sc_state(parties, dim, seed)
    ),
    st.integers(2, 12),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(state=sc_states)
def test_negativity_is_half_the_realignment_excess(state):
    assert abs(negativity(state) - (realignment_norm(state) - 1.0) / 2.0) <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(state=sc_states)
def test_concurrence_bounds_bracket_the_exact_value(state):
    rep = concurrence(state)
    assert 0.0 <= rep.lower <= rep.upper
    if rep.exact is not None:
        assert rep.lower <= rep.exact <= rep.upper


@settings(max_examples=100, deadline=None, derandomize=True)
@given(state=sc_states)
def test_state_emit_parse_emit_is_byte_identical(state):
    text = dumps_state(state)
    assert dumps_state(loads_state(text)) == text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(value=json_values)
def test_canonical_emit_parse_emit_is_byte_identical(value):
    text = canonical_dumps(value)
    assert canonical_dumps(json.loads(text)) == text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_validation_is_idempotent(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T  # Hermitian only to round-off, trace not exactly 1
    once = validate_coeff_matrix(w / np.trace(w).real)
    assert np.array_equal(validate_coeff_matrix(once), once)
    state = new_sc_state(3, dim, once)
    assert np.array_equal(new_sc_state(3, dim, state.a).a, state.a)
