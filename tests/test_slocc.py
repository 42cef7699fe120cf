"""SLOCC classification and the leveling filter for pure SC states."""

import numpy as np
import pytest

from scstates import (
    PureSCState,
    SloccKind,
    apply_filter,
    build_filter,
    classify_pure,
    concurrence_pure_multipartite,
    ghz,
    new_pure_sc_state,
    random_pure_sc_state,
)

TILTED = (np.sqrt(1 / 3), np.sqrt(2 / 3))


def test_classify_product_state():
    cls = classify_pure(new_pure_sc_state(3, (1.0, 0.0)))
    assert cls.kind is SloccKind.FULLY_SEPARABLE
    assert cls.t == 1


def test_classify_ghz_and_partial_support():
    cls = classify_pure(ghz(3, 2))
    assert cls.kind is SloccKind.GHZ_CLASS
    assert cls.t == 2
    c = np.array([np.sqrt(1 / 3), np.sqrt(2 / 3), 0.0])
    cls = classify_pure(new_pure_sc_state(2, c))
    assert cls.kind is SloccKind.GHZ_CLASS
    assert cls.t == 2


def test_classify_tolerance_and_empty_support():
    c = np.array([1.0, 1e-13])
    c /= np.linalg.norm(c)
    assert classify_pure(new_pure_sc_state(2, c)).t == 1
    psi = PureSCState(2, np.zeros(2, dtype=complex))  # unvalidated: no support
    with pytest.raises(ValueError, match="no support"):
        classify_pure(psi)


def test_build_filter_values():
    psi = new_pure_sc_state(2, TILTED)
    f = build_filter(psi)
    expected0 = (np.sqrt(2.0) * np.sqrt(1 / 3)) ** (-0.5)
    expected1 = (np.sqrt(2.0) * np.sqrt(2 / 3)) ** (-0.5)
    assert f.diagonal[0] == pytest.approx(expected0, abs=1e-15)
    assert f.diagonal[1] == pytest.approx(expected1, abs=1e-15)
    assert list(f.support) == [0, 1]
    with pytest.raises(ValueError):
        f.diagonal[0] = 1.0


def test_build_filter_zero_entries_off_support():
    c = np.array([np.sqrt(1 / 3), 0.0, np.sqrt(2 / 3)])
    f = build_filter(new_pure_sc_state(3, c))
    assert f.diagonal[1] == 0.0
    assert list(f.support) == [0, 2]


def test_build_filter_rejects_product_state():
    with pytest.raises(ValueError):
        build_filter(new_pure_sc_state(3, (0.0, 1.0)))


def test_apply_filter_levels_amplitudes():
    psi = new_pure_sc_state(2, TILTED)
    out = apply_filter(build_filter(psi), psi)
    assert np.abs(out.amplitudes - 1.0 / np.sqrt(2.0)).max() <= 1e-12


def test_apply_identity_filter_is_noop():
    from scstates.slocc import FilterOperator

    psi = new_pure_sc_state(3, TILTED)
    ident = FilterOperator(diagonal=np.ones(2, dtype=complex))
    out = apply_filter(ident, psi)
    assert np.abs(out.amplitudes - psi.amplitudes).max() <= 1e-15


def test_apply_filter_complex_phases():
    c = np.array([np.exp(0.7j), np.exp(-1.1j) * 2.0, 0.5j]) / np.sqrt(5.25)
    psi = new_pure_sc_state(3, c)
    out = apply_filter(build_filter(psi), psi)
    z = out.amplitudes * np.sqrt(3.0)
    # uniform moduli, and at most one global phase shared by all entries
    assert np.abs(np.abs(z) - 1.0).max() <= 1e-12
    assert np.abs(z - z[0]).max() <= 1e-12


def test_apply_filter_errors():
    from scstates.slocc import FilterOperator

    psi = new_pure_sc_state(2, TILTED)
    with pytest.raises(ValueError):
        apply_filter(FilterOperator(diagonal=np.ones(3, dtype=complex)), psi)
    disjoint = FilterOperator(diagonal=np.array([0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        apply_filter(disjoint, new_pure_sc_state(2, (1.0, 0.0)))


def test_filter_normalizes_random_states():
    rng = np.random.default_rng(300)
    for _ in range(60):
        parties = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 5))
        support = int(rng.integers(2, dim + 1))
        psi = random_pure_sc_state(parties, dim, rng, support_size=support)
        cls = classify_pure(psi)
        assert cls.t == support
        out = apply_filter(build_filter(psi), psi)
        assert classify_pure(out).t == support
        on = np.abs(psi.amplitudes) > 1e-12
        z = out.amplitudes[on] * np.sqrt(support)
        assert np.abs(np.abs(z) - 1.0).max() <= 1e-10
        assert np.abs(z - z[0]).max() <= 1e-10
        assert np.abs(out.amplitudes[~on]).max(initial=0.0) <= 1e-12


def test_filter_never_decreases_multipartite_concurrence():
    rng = np.random.default_rng(301)
    for _ in range(30):
        psi = random_pure_sc_state(3, 3, rng, support_size=3)
        before = concurrence_pure_multipartite(psi)
        after = concurrence_pure_multipartite(apply_filter(build_filter(psi), psi))
        assert after >= before - 1e-12
        # the leveled state maximizes the support-restricted concurrence
        assert after == pytest.approx(np.sqrt(3.0 * (1.0 - 1.0 / 3.0)), abs=1e-10)
