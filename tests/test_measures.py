"""Entanglement measures: negativity, concurrence, relative entropy."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from scstates import (
    ConcurrenceMethod,
    concurrence,
    concurrence_pure_bipartite,
    concurrence_pure_multipartite,
    ghz,
    negativity,
    new_pure_sc_state,
    new_sc_state,
    optimal_separable,
    pure_to_mixed,
    random_pure_sc_state,
    random_sc_state,
    realignment_norm,
    relative_entropy,
    roof_optimizer,
)
from scstates import measures
from scstates.oracle import dense_pure, reduced_density

THREE_QUBIT_MIXED = [[2 / 3, 1 / 3], [1 / 3, 1 / 3]]
TILTED = (np.sqrt(1 / 3), np.sqrt(2 / 3))


def test_negativity_values():
    for n in range(2, 7):
        g = pure_to_mixed(ghz(2, n))
        assert negativity(g) == pytest.approx((n - 1) / 2, abs=1e-12)
    assert negativity(new_sc_state(3, 2, THREE_QUBIT_MIXED)) == pytest.approx(
        1 / 3, abs=1e-15
    )
    assert negativity(new_sc_state(2, 4, np.eye(4) / 4)) == 0.0


def test_negativity_realignment_relation():
    rng = np.random.default_rng(200)
    for _ in range(25):
        st = random_sc_state(2, 3, rng)
        assert negativity(st) == pytest.approx(
            (realignment_norm(st) - 1.0) / 2.0, abs=1e-12
        )


def test_qubit_concurrence_lower_bound_never_exceeds_exact():
    # at N = 2 the lower bound sqrt(2) ||offdiag(a)||_F is exactly 2|a_01|,
    # not an ulp above it
    for seed in range(300):
        rep = concurrence(random_sc_state(2, 2, seed), roof=True)
        assert rep.lower <= rep.exact == rep.upper


def test_pure_concurrence_values():
    psi = new_pure_sc_state(2, TILTED)
    assert concurrence_pure_bipartite(psi) == pytest.approx(
        2.0 * np.sqrt(2.0) / 3.0, abs=1e-15
    )
    assert concurrence_pure_bipartite(ghz(2, 2)) == pytest.approx(1.0)
    assert concurrence_pure_bipartite(np.asarray(TILTED)) == pytest.approx(
        2.0 * np.sqrt(2.0) / 3.0, abs=1e-15
    )
    # product state in the symmetric basis has zero concurrence
    assert concurrence_pure_bipartite(new_pure_sc_state(2, (1.0, 0.0))) == 0.0


def test_pure_concurrence_multipartite_values():
    assert concurrence_pure_multipartite(ghz(3, 2)) == pytest.approx(
        np.sqrt(1.5), abs=1e-15
    )
    psi4 = new_pure_sc_state(4, TILTED)
    assert concurrence_pure_multipartite(psi4) == pytest.approx(4 / 3, abs=1e-15)
    # k = 2 reduces to the bipartite form
    psi2 = new_pure_sc_state(2, TILTED)
    assert concurrence_pure_multipartite(psi2) == pytest.approx(
        concurrence_pure_bipartite(psi2), abs=1e-15
    )


def test_concurrence_report_qubit_closed_form():
    st = new_sc_state(3, 2, THREE_QUBIT_MIXED)
    rep = concurrence(st)
    assert rep.method is ConcurrenceMethod.CLOSED_FORM
    assert rep.exact == pytest.approx(2 / 3, abs=1e-15)
    assert rep.lower == pytest.approx(2 * negativity(st), abs=1e-15)
    assert rep.exact == pytest.approx(rep.lower, abs=1e-12)
    assert rep.upper == pytest.approx(1.0)
    assert rep.roof_trace is None


def test_concurrence_report_rank_one():
    st = pure_to_mixed(new_pure_sc_state(2, TILTED))
    rep = concurrence(st)
    assert rep.method is ConcurrenceMethod.CLOSED_FORM
    assert rep.exact == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-12)


def test_concurrence_report_diagonal():
    rep = concurrence(new_sc_state(2, 2, np.diag([0.3, 0.7])))
    assert rep.exact == 0.0
    assert rep.lower == 0.0


def test_concurrence_report_ordering_invariant():
    rng = np.random.default_rng(201)
    for dim in (2, 3, 4):
        for _ in range(15):
            rep = concurrence(random_sc_state(2, dim, rng))
            assert 0.0 <= rep.lower <= rep.upper + 1e-12
            if rep.exact is not None:
                assert rep.lower - 1e-9 <= rep.exact <= rep.upper + 1e-9


def test_concurrence_report_bounds_only_and_roof():
    st = random_sc_state(2, 3, 202)
    plain = concurrence(st)
    assert plain.method is ConcurrenceMethod.BOUNDS_ONLY
    assert plain.exact is None and plain.roof_trace is None
    assert plain.roof_converged is None
    roofed = concurrence(st, roof=True, restarts=4, seed=7)
    assert roofed.method is ConcurrenceMethod.ROOF_OPTIMIZER
    assert roofed.roof_trace is not None
    assert isinstance(roofed.roof_converged, bool)
    assert plain.lower - 1e-9 <= roofed.upper <= plain.upper + 1e-12


def test_concurrence_roof_skips_optimizer_when_exact_known(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("roof_optimizer ran although exact is known")

    monkeypatch.setattr(measures, "roof_optimizer", fail)
    for st in (
        pure_to_mixed(new_pure_sc_state(3, TILTED)),
        new_sc_state(2, 2, [[0.5, 0.25], [0.25, 0.5]]),
    ):
        rep = concurrence(st, roof=True)
        assert rep.upper == rep.exact
        assert rep.roof_trace == ()
        assert rep.roof_converged is True


def test_concurrence_ghz23_bounds_coincide():
    rep = concurrence(pure_to_mixed(ghz(2, 3)))
    assert rep.method is ConcurrenceMethod.CLOSED_FORM
    target = 2.0 / np.sqrt(3.0)
    assert rep.lower == pytest.approx(target, abs=1e-12)
    assert rep.upper == pytest.approx(target, abs=1e-12)
    assert rep.exact == pytest.approx(target, abs=1e-12)


def _dense_concurrence(psi) -> float:
    """sqrt(2(1 - Tr rho_1^2)) of a pure state, from its dense reduction."""
    vec = dense_pure(psi)
    rho1 = reduced_density(np.outer(vec, vec.conj()), [1], [psi.dim] * psi.parties)
    return float(np.sqrt(2.0 * (1.0 - np.trace(rho1 @ rho1).real)))


def _dephased(psi, lam):
    """(1 - lam) psi psi^dagger + lam diag|psi|^2."""
    c = psi.amplitudes
    a = (1.0 - lam) * np.outer(c, c.conj()) + lam * np.diag(np.abs(c) ** 2)
    return new_sc_state(psi.parties, psi.dim, a)


@pytest.mark.parametrize("dim", [3, 4, 5, 8])
def test_concurrence_exact_on_dephased_pure_states(dim):
    # the decomposition (1 - lam) psi plus the product states |m..m> in
    # lam diag|psi|^2, whose concurrence is 0, attains the lower bound
    parties = 3 if dim <= 5 else 2
    for seed, lam in ((1, 0.1), (2, 0.5), (3, 0.9)):
        psi = random_pure_sc_state(parties, dim, 300 + 10 * dim + seed)
        rep = concurrence(_dephased(psi, lam))
        assert rep.method is ConcurrenceMethod.CLOSED_FORM
        assert rep.exact == rep.lower
        assert abs(rep.exact - (1.0 - lam) * _dense_concurrence(psi)) <= 1e-12


def _coherent(diagonal, pairs):
    a = np.diag(diagonal).astype(complex)
    for (m, n), value in pairs.items():
        a[m, n], a[n, m] = value, np.conj(value)
    return new_sc_state(2, len(a), a)


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(random_sc_state(2, 4, 205), id="ginibre"),
        pytest.param(_coherent([0.25] * 4, {(0, 1): 0.1, (2, 3): 0.2j}), id="disjoint-blocks"),
        pytest.param(
            _coherent([1 / 3] * 3, {(0, 1): 0.1, (0, 2): 0.1, (1, 2): -0.1}),
            id="negative-triangle",
        ),
        pytest.param(_coherent([1 / 3] * 3, {(0, 1): 0.1, (0, 2): 0.1}), id="incomplete-block"),
        # off-diagonal of x x^dagger for x = (2, 1, 1)/3, but |x_0|^2 > a_00
        pytest.param(
            _coherent([1 / 3] * 3, {(0, 1): 2 / 9, (0, 2): 2 / 9, (1, 2): 1 / 9}),
            id="negative-diagonal-rest",
        ),
    ],
)
def test_concurrence_rejects_states_outside_the_family(state):
    rep = concurrence(state)
    assert rep.method is ConcurrenceMethod.BOUNDS_ONLY
    assert rep.exact is None


def test_concurrence_rank_one_matches_the_pure_formula():
    for dim in range(2, 9):
        for seed in range(5):
            psi = random_pure_sc_state(2, dim, 400 + 10 * dim + seed)
            rep = concurrence(pure_to_mixed(psi))
            assert rep.method is ConcurrenceMethod.CLOSED_FORM
            assert abs(rep.exact - concurrence_pure_bipartite(psi.amplitudes)) <= 1e-14


def test_concurrence_qubit_exact_is_twice_the_coherence_bitwise():
    for seed in range(200):
        st = random_sc_state(2, 2, seed)
        if seed % 2:
            st = pure_to_mixed(random_pure_sc_state(2, 2, seed))
        assert concurrence(st).exact == 2.0 * abs(st.a[0, 1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dim=strategies.integers(2, 6),
    seed=strategies.integers(0, 2**32 - 1),
    pure=strategies.booleans(),
)
@example(dim=3, seed=0, pure=None)
def test_concurrence_lower_never_below_the_negativity_bound(dim, seed, pure):
    if pure is None:
        state = pure_to_mixed(ghz(2, dim))  # equal moduli: the two bounds coincide
    elif pure:
        state = pure_to_mixed(random_pure_sc_state(2, dim, seed))
    else:
        state = random_sc_state(2, dim, seed)
    old = 2.0 * np.sqrt(2.0) / np.sqrt(dim * (dim - 1)) * negativity(state)
    # Cauchy-Schwarz, with equality up to rounding when all |a_mn| agree
    assert concurrence(state).lower >= old * (1.0 - 4.0 * np.finfo(float).eps)


def test_concurrence_lower_bounds_the_roof():
    for dim, seed in ((3, 11), (4, 12), (5, 13), (3, 14)):
        st = random_sc_state(2, dim, seed)
        assert concurrence(st).lower <= roof_optimizer(st, restarts=2, seed=0).value + 1e-9


def test_concurrence_calls_no_eigensolver(monkeypatch):
    states = [
        pure_to_mixed(random_pure_sc_state(3, 5, 500)),
        random_sc_state(2, 2, 501),
        _dephased(random_pure_sc_state(2, 4, 502), 0.3),
        random_sc_state(3, 4, 503),
    ]

    def fail(*args, **kwargs):
        raise AssertionError("concurrence called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    methods = [concurrence(st).method for st in states]
    assert methods == [ConcurrenceMethod.CLOSED_FORM] * 3 + [ConcurrenceMethod.BOUNDS_ONLY]


def test_roof_optimizer_qubit_hits_closed_form():
    rng = np.random.default_rng(203)
    for _ in range(5):
        st = random_sc_state(2, 2, rng)
        target = 2.0 * abs(st.a[0, 1])
        res = roof_optimizer(st, restarts=8, seed=rng)
        assert res.converged
        assert target - 1e-9 <= res.value <= target + 1e-4


def test_roof_optimizer_ququart_within_bounds():
    # reference values: the Givens coordinate-descent optimizer this one
    # replaced, run on the same calls (restarts=16, seed=0)
    for s, reference in ((1, 0.8131780322089145), (2, 0.6744170366183153)):
        st = random_sc_state(2, 4, s)
        rep = concurrence(st)
        res = roof_optimizer(st, restarts=16, seed=0)
        assert rep.lower - 1e-9 <= res.value <= rep.upper
        assert res.value <= reference + 1e-8


def test_roof_optimizer_rank_one_immediate():
    st = pure_to_mixed(new_pure_sc_state(2, TILTED))
    res = roof_optimizer(st, restarts=2, seed=0)
    assert res.value == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-10)
    assert res.trace[0][1] == pytest.approx(res.value, abs=1e-6)


def test_roof_optimizer_diagonal_is_zero():
    res = roof_optimizer(new_sc_state(2, 3, np.diag([0.2, 0.3, 0.5])), seed=1)
    assert res.value <= 1e-12


def test_roof_optimizer_seed_determinism():
    st = random_sc_state(2, 3, 204)
    r1 = roof_optimizer(st, restarts=3, seed=42)
    r2 = roof_optimizer(st, restarts=3, seed=42)
    assert r1.value == r2.value
    assert r1.trace == r2.trace


def test_roof_optimizer_rejects_zero_restarts():
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        roof_optimizer(random_sc_state(2, 3, 204), restarts=0)


def test_optimal_separable():
    st = new_sc_state(3, 2, THREE_QUBIT_MIXED)
    opt = optimal_separable(st)
    assert np.allclose(opt.diag, [2 / 3, 1 / 3])
    with pytest.raises(ValueError):
        opt.diag[0] = 1.0
    sep = opt.as_sc_state(3)
    assert negativity(sep) == 0.0
    assert relative_entropy(sep) == 0.0


def test_relative_entropy_values():
    for k in (2, 3, 5):
        assert relative_entropy(pure_to_mixed(ghz(k, 2))) == pytest.approx(
            1.0, abs=1e-12
        )
    assert relative_entropy(pure_to_mixed(ghz(2, 3))) == pytest.approx(
        np.log2(3.0), abs=1e-12
    )
    assert relative_entropy(new_sc_state(3, 2, THREE_QUBIT_MIXED)) == pytest.approx(
        0.36824807447173197, abs=1e-12
    )
    assert relative_entropy(new_sc_state(2, 3, np.diag([0.1, 0.4, 0.5]))) == 0.0


@pytest.mark.parametrize("log_base", [float("inf"), float("nan"), 0.0, -2.0, 1.0])
def test_relative_entropy_rejects_bad_log_base(log_base):
    st = new_sc_state(3, 2, THREE_QUBIT_MIXED)
    with pytest.raises(ValueError, match="log_base"):
        relative_entropy(st, log_base)


def test_relative_entropy_log_bases():
    st = new_sc_state(3, 2, THREE_QUBIT_MIXED)
    bits = relative_entropy(st, log_base=2.0)
    assert relative_entropy(st, log_base=np.e) == pytest.approx(
        bits * np.log(2.0), abs=1e-12
    )
    assert relative_entropy(st, log_base=10.0) == pytest.approx(
        bits * np.log10(2.0), abs=1e-12
    )


def test_relative_entropy_party_count_independent():
    rng = np.random.default_rng(206)
    for dim in (2, 3):
        a = random_sc_state(2, dim, rng).a
        values = [relative_entropy(new_sc_state(k, dim, a)) for k in (2, 3, 4)]
        assert max(values) - min(values) <= 1e-12


def test_measures_monotone_under_dephasing():
    base = pure_to_mixed(ghz(2, 2)).a.copy()
    diag = np.diag(np.diagonal(base)).astype(complex)
    rel_prev = -1.0
    for p in np.linspace(0.0, 1.0, 11):
        st = new_sc_state(2, 2, (1 - p) * diag + p * base)
        assert negativity(st) == pytest.approx(p / 2, abs=1e-12)
        rel = relative_entropy(st)
        assert rel >= rel_prev - 1e-12
        rel_prev = rel
    assert rel_prev == pytest.approx(1.0, abs=1e-12)
