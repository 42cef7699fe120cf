"""Entanglement measures: negativity, concurrence, relative entropy."""

import numpy as np
import pytest

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
    random_sc_state,
    realignment_norm,
    relative_entropy,
    roof_optimizer,
)
from scstates import measures

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
    # negativity sums the off-diagonal moduli, so at N = 2 the lower bound
    # 2 * negativity is exactly 2|a_01|, not an ulp above it
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
    assert rep.method is ConcurrenceMethod.QUBIT_CLOSED_FORM
    assert rep.exact == pytest.approx(2 / 3, abs=1e-15)
    assert rep.lower == pytest.approx(2 * negativity(st), abs=1e-15)
    assert rep.exact == pytest.approx(rep.lower, abs=1e-12)
    assert rep.upper == pytest.approx(1.0)
    assert rep.roof_trace is None


def test_concurrence_report_rank_one():
    st = pure_to_mixed(new_pure_sc_state(2, TILTED))
    rep = concurrence(st)
    assert rep.method is ConcurrenceMethod.PURE_CLOSED_FORM
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
    assert rep.method is ConcurrenceMethod.PURE_CLOSED_FORM
    target = 2.0 / np.sqrt(3.0)
    assert rep.lower == pytest.approx(target, abs=1e-12)
    assert rep.upper == pytest.approx(target, abs=1e-12)
    assert rep.exact == pytest.approx(target, abs=1e-12)


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


def test_roof_optimizer_multipartite_weight():
    # pure GHZ: the roof equals the pure multipartite concurrence
    st = pure_to_mixed(ghz(3, 2))
    res = roof_optimizer(st, restarts=2, seed=0, multipartite=True)
    assert res.value == pytest.approx(np.sqrt(1.5), abs=1e-9)
    # k = 2 weight reduces to the bipartite objective
    st2 = random_sc_state(2, 2, 205)
    a = roof_optimizer(st2, restarts=4, seed=9, multipartite=False)
    b = roof_optimizer(st2, restarts=4, seed=9, multipartite=True)
    assert a.value == pytest.approx(b.value, abs=1e-12)


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
