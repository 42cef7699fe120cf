"""Command-line front end.

Subcommands:

- ``analyze``       full entanglement report for a state JSON file
- ``ghz``           emit the uniform maximally entangled state file
- ``random``        emit reproducible random state files
- ``oracle-verify`` run the closed-form-vs-dense validation suite
- ``examples``      emit one of the built-in worked states

Exit codes: 0 success, 2 input/validation problem, 3 oracle mismatch,
4 dense-size guard exceeded, 1 anything else.  The environment variable
``SC_SIZE_GUARD`` overrides the default dense-dimension guard; it is read
(by :func:`scstates.oracle.check_size_guard`) only when a command builds
a dense array, so an invalid value exits 2 from ``analyze --oracle`` and
``oracle-verify`` but not from plain ``analyze``.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, measures, separability, slocc, verify
from .errors import SizeGuardError
from .separability import DEFAULT_SEP_TOL
from .serialize import canonical_dumps, dumps_state, loads_state
from .states import PureSCState, new_sc_state, random_sc_state

_LOG_BASES = {"2": 2.0, "e": float(np.e), "10": 10.0}


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not np.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of ``--seed``: an integer >= 0, as numpy's generators need."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _emit(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _load_state_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return loads_state(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _slocc_summary(state):
    """SLOCC classification for rank-one (pure) inputs, else None."""
    if state.rank != 1:
        return None
    _, vecs = np.linalg.eigh(state.a)
    cls = slocc.classify_pure(PureSCState(state.parties, vecs[:, -1]))
    return {"kind": cls.kind.value, "t": cls.t}


def cmd_analyze(args) -> int:
    state = _load_state_file(args.input)
    base = _LOG_BASES[args.log_base]
    tol = args.tol

    neg = measures.negativity(state)
    realn = separability.realignment_norm(state)
    pt = separability.pt_spectrum(state)
    report_c = measures.concurrence(state, roof=args.roof, seed=0)
    rel = measures.relative_entropy(state, base)
    w = separability.build_witness(state)
    w_expect = separability.witness_expectation(w, state)

    report = {
        "k": state.parties,
        "N": state.dim,
        "separable": separability.is_fully_separable(state, tol),
        "negativity": neg,
        "realignment_norm": realn,
        "pt_spectrum": {
            "diagonal": pt.diagonal.tolist(),
            "pair_magnitudes": pt.pair_magnitudes.tolist(),
            "zero_multiplicity": pt.zero_multiplicity,
        },
        "concurrence_lower": report_c.lower,
        "concurrence_upper": report_c.upper,
        "concurrence_exact": report_c.exact,
        "concurrence_method": report_c.method.value,
        "concurrence_roof_trace": (
            None
            if report_c.roof_trace is None
            else [[int(i), float(v)] for i, v in report_c.roof_trace]
        ),
        "relative_entropy": rel,
        "log_base": args.log_base,
        "slocc": _slocc_summary(state),
        "witness": {"pair_count": len(w.source_pairs), "expectation": w_expect},
        "oracle_checked": bool(args.oracle),
        "oracle_max_residual": None,
    }

    oracle_failed = False
    if args.oracle:
        residuals, w_sep = verify.state_residuals(
            state, np.random.default_rng(0), 100, [args.split], tol=tol
        )
        worst = max(residuals.values())
        report["oracle_max_residual"] = worst if np.isfinite(worst) else None
        report["oracle_checks"] = verify.check_entries(residuals, w_sep, tol)
        oracle_failed = not all(e["pass"] for e in report["oracle_checks"].values())
    report["tol"] = tol

    _emit(canonical_dumps(report), args.output)
    return 3 if oracle_failed else 0


def cmd_ghz(args) -> int:
    if args.k < 2 or args.N < 2:
        raise ValueError(f"need k >= 2 and N >= 2, got k={args.k}, N={args.N}")
    a = np.full((args.N, args.N), 1.0 / args.N)
    state = new_sc_state(args.k, args.N, a)
    _emit(dumps_state(state), args.output)
    return 0


def cmd_random(args) -> int:
    if args.k < 2 or args.N < 2:
        raise ValueError(f"need k >= 2 and N >= 2, got k={args.k}, N={args.N}")
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    files = []
    for i in range(args.count):
        state = random_sc_state(args.k, args.N, rng)
        path = out_dir / f"sc-k{args.k}-N{args.N}-seed{args.seed}-{i:03d}.json"
        path.write_text(dumps_state(state))
        files.append(str(path))
    sys.stdout.write(canonical_dumps({"files": files}))
    return 0


def cmd_oracle_verify(args) -> int:
    summary = verify.run_suite(
        args.k, args.N, samples=args.samples, seed=args.seed, tol=args.tol
    )
    sys.stdout.write(canonical_dumps(summary))
    return 0 if summary["pass"] else 3


def _example_state(which: str):
    if which == "ghz32":
        return new_sc_state(3, 2, np.full((2, 2), 0.5))
    if which == "example41":
        return new_sc_state(3, 2, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 1.0 / 3.0]])
    if which == "psi-onethird":
        c = np.array([np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)], dtype=complex)
        return new_sc_state(2, 2, np.outer(c, c.conj()))
    raise ValueError(f"unknown example {which!r}")


def cmd_examples(args) -> int:
    state = _example_state(args.which)
    _emit(dumps_state(state), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scstates",
        description=(
            "Construct, validate, and analyze Schmidt-correlated multipartite "
            "quantum states from their coefficient matrices."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full entanglement report for a state file")
    p.add_argument("input", help="path to a state JSON file")
    p.add_argument(
        "--split",
        type=int,
        default=1,
        help="bipartition size for the Bloch-tensor oracle check (default 1)",
    )
    p.add_argument(
        "--log-base",
        choices=sorted(_LOG_BASES),
        default="2",
        help="logarithm base for entropies (default 2)",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="recompute every closed form densely and report the max residual",
    )
    p.add_argument(
        "--roof",
        action="store_true",
        help="tighten the concurrence upper bound with the convex-roof optimizer",
    )
    p.add_argument(
        "--tol",
        type=_tolerance,
        default=DEFAULT_SEP_TOL,
        help="tolerance for separability verdicts and oracle residuals",
    )
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ghz", help="emit the uniform maximally entangled state")
    p.add_argument("--k", type=int, required=True, help="number of parties")
    p.add_argument("--N", type=int, required=True, help="local dimension")
    p.add_argument("--output", help="write the state here instead of stdout")
    p.set_defaults(func=cmd_ghz)

    p = sub.add_parser("random", help="emit reproducible random states")
    p.add_argument("--k", type=int, required=True, help="number of parties")
    p.add_argument("--N", type=int, required=True, help="local dimension")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--count", type=int, default=1, help="number of states (default 1)")
    p.add_argument(
        "--output-dir", default=".", help="directory for the state files (default .)"
    )
    p.set_defaults(func=cmd_random)

    p = sub.add_parser(
        "oracle-verify", help="validate closed forms against the dense oracle"
    )
    p.add_argument("--k", type=int, required=True, help="number of parties")
    p.add_argument("--N", type=int, required=True, help="local dimension")
    p.add_argument(
        "--samples", type=int, default=50, help="random states per check (default 50)"
    )
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--tol",
        type=_tolerance,
        default=DEFAULT_SEP_TOL,
        help="residual tolerance (default 1e-9)",
    )
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("examples", help="emit a built-in worked state")
    p.add_argument(
        "--which",
        required=True,
        choices=["ghz32", "example41", "psi-onethird"],
        help=(
            "ghz32: three-party two-level uniform entangled state; "
            "example41: three-qubit mixed state with coefficients "
            "[[2/3,1/3],[1/3,1/3]]; psi-onethird: rank-one two-party state "
            "with amplitudes sqrt(1/3), sqrt(2/3)"
        ),
    )
    p.add_argument("--output", help="write the state here instead of stdout")
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
