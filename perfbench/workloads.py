"""Workload inputs and per-op output checks.

Each workload is one pass: a fixed list of ops, each an ``scstates`` CLI
argv plus the check its output must pass. The benchmark repeats whole
passes, so every run measures the same mix of op kinds and the per-op
trace counts repeat exactly. The seed draws every input number; the
program sees only the state files and the CLI arguments.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np


class OutputError(Exception):
    """An op's output failed its check."""


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable[[int, str], Optional[float]]


# -- state files ---------------------------------------------------------


def _write_state(path: Path, k: int, a: np.ndarray) -> str:
    a = (a + a.conj().T) / 2.0
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in a]
    path.write_text(json.dumps({"k": k, "N": int(a.shape[0]), "a": rows}))
    return str(path)


def _mixed(rng, n: int) -> np.ndarray:
    """Full-rank Ginibre coefficient matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return w / np.trace(w).real


def _pure(rng, n: int, support: int) -> np.ndarray:
    """Rank-one coefficient matrix on ``support`` random levels."""
    c = np.zeros(n, dtype=complex)
    on = rng.choice(n, size=support, replace=False)
    c[on] = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    c /= np.linalg.norm(c)
    return np.outer(c, c.conj())


def _diagonal(rng, n: int) -> np.ndarray:
    return np.diag(rng.dirichlet(np.ones(n))).astype(complex)


def _local_unitary_copy(rng, a: np.ndarray) -> np.ndarray:
    """Relabel the levels and rephase them: a local unitary on one party.

    Every entanglement quantity of the state, the concurrence roof and
    both of its closed-form bounds are unchanged; every number in the
    file changes.
    """
    n = a.shape[0]
    p = rng.permutation(n)
    phase = np.exp(2j * np.pi * rng.random(n))
    return a[np.ix_(p, p)] * np.outer(phase, phase.conj())


# -- output checks -------------------------------------------------------


def _fail(msg: str):
    raise OutputError(msg)


def _analyze_report(rc: int, out: str) -> dict:
    if rc != 0:
        _fail(f"analyze exited {rc}")
    r = json.loads(out)
    lower, upper, exact = r["concurrence_lower"], r["concurrence_upper"], r["concurrence_exact"]
    mid = lower if exact is None else exact
    if not lower - 1e-9 <= mid <= upper + 1e-9:
        _fail(f"concurrence bounds out of order: {lower} <= {exact} <= {upper}")
    if abs(r["negativity"] - (r["realignment_norm"] - 1.0) / 2.0) > 1e-12:
        _fail(f"negativity {r['negativity']} != (realignment_norm - 1)/2")
    pt = r["pt_spectrum"]
    size = len(pt["diagonal"]) + 2 * len(pt["pair_magnitudes"]) + pt["zero_multiplicity"]
    if size != r["N"] ** r["k"]:
        _fail(f"pt_spectrum multiplicities add up to {size}, not N^k = {r['N'] ** r['k']}")
    return r


def bound_gap(r: dict) -> float:
    """concurrence_upper - max(concurrence_lower, concurrence_exact or 0)."""
    exact = r["concurrence_exact"]
    return r["concurrence_upper"] - max(r["concurrence_lower"], 0.0 if exact is None else exact)


def check_analyze(rc: int, out: str) -> None:
    _analyze_report(rc, out)


def check_roof(rc: int, out: str) -> float:
    r = _analyze_report(rc, out)
    # criterion 6: where a closed form exists the roof must land on it
    if r["concurrence_exact"] is not None and r["N"] == 2:
        if abs(r["concurrence_upper"] - r["concurrence_exact"]) > 1e-4:
            _fail(f"roof upper {r['concurrence_upper']} misses exact {r['concurrence_exact']}")
    return bound_gap(r)


def check_oracle_analyze(rc: int, out: str) -> None:
    if rc != 0:
        _fail(f"analyze --oracle exited {rc}")


def check_oracle_verify(rc: int, out: str) -> None:
    if rc != 0 or json.loads(out)["pass"] is not True:
        _fail(f"oracle-verify failed (exit {rc})")


# -- workloads -----------------------------------------------------------

#: analyze-batch grid: every (k, N) pair, each with one rank-one state, one
#: diagonal (separable) state and three full-rank states, so one state in
#: five is rank-one and one in seven is N = 2.
BATCH_K = range(2, 11)
BATCH_N = range(2, 9)


def analyze_batch(rng, work: Path, tiny: bool):
    grid = [(k, n) for k in BATCH_K for n in BATCH_N]
    if tiny:
        grid = grid[:2]
    ops = []
    for k, n in grid:
        for kind in ("pure", "diagonal", "mixed", "mixed", "mixed"):
            if kind == "pure":
                a = _pure(rng, n, int(rng.integers(2, n + 1)))
            elif kind == "diagonal":
                a = _diagonal(rng, n)
            else:
                a = _mixed(rng, n)
            path = _write_state(work / f"s{len(ops):04d}.json", k, a)
            ops.append(Op(("analyze", path), check_analyze))
    return ops


#: roof panel in run order. Six full-rank N = 3/4 states, where the
#: optimizer is the only route, each followed by three full-rank N = 2
#: states and, in four of the six blocks, a rank-one state: where a closed
#: form is exact the optimizer is redundant. The N = 2 ops set op_p50_ms
#: and op_tail_ms, so there are many of them, spread over the whole run.
#: The states are local-unitary copies of base states drawn from
#: ROOF_BASE_SEED: the optimizer's cost varies ~2.5x between random N = 3
#: states, which six ops per run cannot average out, while a copy keeps the
#: problem and its difficulty and still moves every input number.
ROOF_BASE_SEED = 20080318
ROOF_PANEL = (
    (2, 3, "full"), (2, 2, "full"), (3, 2, "full"), (4, 2, "full"), (2, 3, "pure"),
    (3, 3, "full"), (2, 2, "full"), (3, 2, "full"), (4, 2, "full"), (3, 4, "pure"),
    (2, 3, "full"), (2, 2, "full"), (3, 2, "full"), (4, 2, "full"),
    (2, 4, "full"), (2, 2, "full"), (3, 2, "full"), (4, 2, "full"), (2, 2, "pure"),
    (3, 4, "full"), (2, 2, "full"), (3, 2, "full"), (4, 2, "full"), (4, 5, "pure"),
    (3, 4, "full"), (2, 2, "full"), (3, 2, "full"), (4, 2, "full"),
)
ROOF_TINY = ((2, 2, "full"), (3, 3, "pure"))


def roof(rng, work: Path, tiny: bool):
    base = np.random.default_rng(ROOF_BASE_SEED)
    ops = []
    for k, n, kind in ROOF_TINY if tiny else ROOF_PANEL:
        a = _mixed(base, n) if kind == "full" else _pure(base, n, n)
        a = _local_unitary_copy(rng, a)
        path = _write_state(work / f"s{len(ops):04d}.json", k, a)
        ops.append(Op(("analyze", "--roof", path), check_roof))
    return ops


#: verify pass: oracle-verify on the five acceptance configurations, where
#: witness separable sampling dominates, alternating with analyze --oracle
#: --split s at dense dimension 32-81, where Bloch decomposition and Jacobi
#: dominate. Eleven ops, so the median falls inside one op kind.
VERIFY_SUITE_CONFIGS = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))
VERIFY_SUITE_SAMPLES = 2
VERIFY_ORACLE_CONFIGS = ((4, 3, 1), (4, 3, 2), (3, 4, 1), (6, 2, 3), (5, 2, 1), (5, 2, 2))


def verify(rng, work: Path, tiny: bool):
    suite = VERIFY_SUITE_CONFIGS[:1] if tiny else VERIFY_SUITE_CONFIGS
    dense = ((3, 2, 1),) if tiny else VERIFY_ORACLE_CONFIGS
    samples = "1" if tiny else str(VERIFY_SUITE_SAMPLES)
    ops = []
    for i, (k, n, split) in enumerate(dense):
        if i < len(suite):
            sk, sn = suite[i]
            seed = str(int(rng.integers(2**31)))
            argv = ("oracle-verify", "--k", str(sk), "--N", str(sn), "--samples", samples, "--seed", seed)
            ops.append(Op(argv, check_oracle_verify))
        path = _write_state(work / f"s{len(ops):04d}.json", k, _mixed(rng, n))
        ops.append(Op(("analyze", "--oracle", "--split", str(split), path), check_oracle_analyze))
    return ops


WORKLOADS = {
    "analyze-batch": analyze_batch,
    "roof": roof,
    "verify": verify,
}


def make_ops(name: str, seed: int, work: Path, tiny: bool = False):
    """The workload's pass for ``seed``, writing its state files under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), work, tiny)


def tail_index(n: int) -> int:
    """Index into n sorted latencies of the highest percentile with ten ops beyond it, capped at p99.

    Above p99 the percentile is set by scheduler jitter on a shared
    machine rather than by the program (p99.9 of analyze-batch spread 40 %
    between runs), so runs long enough for it report p99.
    """
    return max(min(n - 11, math.ceil(0.99 * n) - 1), 0)


def percentile_of(index: int, n: int) -> float:
    return 100.0 * (index + 1) / n
