"""SLOCC classification of pure SC states.

A pure SC state is locally equivalent (under stochastic local operations)
to either a product state or the uniform maximally entangled state on its
support.  The equivalence is realized by one invertible diagonal filter
applied identically to every party.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .states import PureSCState, new_pure_sc_state

#: Amplitudes at or below this modulus do not count toward the support.
SUPPORT_TOL = 1e-12


class SloccKind(str, enum.Enum):
    FULLY_SEPARABLE = "fully_separable"
    GHZ_CLASS = "ghz_class"


@dataclass(frozen=True)
class SloccClass:
    """Equivalence class of a pure SC state under SLOCC.

    ``t`` is the support size (number of nonzero amplitudes); t = 1 means
    fully separable, 2 <= t <= N means equivalent to the uniform
    entangled state on t levels.
    """

    kind: SloccKind
    t: int


@dataclass(frozen=True, eq=False)
class FilterOperator:
    """Diagonal single-party operator, applied to all k parties at once.

    Entries vanish exactly outside the source state's support and are
    nonzero (hence the filter is invertible) on it.
    """

    diagonal: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.diagonal)


def classify_pure(psi: PureSCState) -> SloccClass:
    """Classify by support size: one nonzero amplitude means product state."""
    t = int((np.abs(psi.amplitudes) > SUPPORT_TOL).sum())
    if t == 0:
        raise ValueError("state has no support above the tolerance")
    kind = SloccKind.FULLY_SEPARABLE if t == 1 else SloccKind.GHZ_CLASS
    return SloccClass(kind=kind, t=t)


def build_filter(psi: PureSCState) -> FilterOperator:
    """Construct the diagonal filter mapping psi to the uniform state.

    On the support, f_m = (sqrt(t) * c_m)^(-1/k) with the principal
    complex root, so applying f to every party multiplies amplitude m by
    f_m^k = 1/(sqrt(t) c_m), leveling all support amplitudes to 1/sqrt(t).
    Entry values are only meaningful up to k-th roots of unity; the
    contract is the action under apply_filter, not the entries.
    """
    cls = classify_pure(psi)
    if cls.t < 2:
        raise ValueError("state is not entangled: support size < 2")
    c = psi.amplitudes
    k = psi.parties
    diagonal = np.zeros(c.size, dtype=complex)
    on = np.abs(c) > SUPPORT_TOL
    diagonal[on] = (np.sqrt(cls.t) * c[on]) ** (-1.0 / k)
    diagonal.flags.writeable = False
    return FilterOperator(diagonal=diagonal)


def apply_filter(f: FilterOperator, psi: PureSCState) -> PureSCState:
    """Apply the filter to every party of psi and renormalize.

    Amplitudes map as c_m -> f_m^k * c_m.  Raises if the filter and state
    have mismatched dimensions or if the filter annihilates the state
    (disjoint supports).
    """
    c = psi.amplitudes
    if f.diagonal.size != c.size:
        raise ValueError(
            f"dimension mismatch: filter on {f.diagonal.size} levels, "
            f"state on {c.size}"
        )
    out = (f.diagonal**psi.parties) * c
    nrm = np.linalg.norm(out)
    if nrm == 0.0:
        raise ValueError("filter annihilates the state (disjoint supports)")
    return new_pure_sc_state(psi.parties, out / nrm)
