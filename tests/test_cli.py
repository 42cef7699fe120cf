"""End-to-end command-line tests, run in process through main(argv)."""

import json
from pathlib import Path

import numpy as np
import pytest

from scstates import cli, is_fully_separable, oracle, separability, verify
from scstates.serialize import canonical_dumps, dumps_state, loads_state
from scstates.states import ghz, new_sc_state, pure_to_mixed, random_sc_state


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_diag_state(tmp_path, name="diag.json"):
    path = tmp_path / name
    path.write_text(dumps_state(new_sc_state(2, 3, np.diag([0.2, 0.3, 0.5]))))
    return path


def write_boundary_state(tmp_path):
    """k=3, N=3 with a01 = a12 = 0.8e-9: separable at the default tol, by a hair."""
    a = np.diag([0.4, 0.3, 0.3]).astype(complex)
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 0.8e-9
    path = tmp_path / "boundary.json"
    path.write_text(dumps_state(new_sc_state(3, 3, a)))
    return path


def test_ghz_emits_exact_uniform_entries(capsys, tmp_path):
    out = tmp_path / "ghz.json"
    code, stdout, _ = run_cli(capsys, "ghz", "--k", "3", "--N", "2", "--output", str(out))
    assert code == 0 and stdout == ""
    st = loads_state(out.read_text())
    assert st.parties == 3 and st.dim == 2
    assert np.array_equal(st.a, np.full((2, 2), 0.5) + 0j)


def test_ghz_to_stdout_and_bad_args(capsys):
    code, stdout, _ = run_cli(capsys, "ghz", "--k", "2", "--N", "3")
    assert code == 0
    st = loads_state(stdout)
    assert st.dim == 3
    code, _, err = run_cli(capsys, "ghz", "--k", "1", "--N", "2")
    assert code == 2 and "k >= 2" in err


def test_analyze_report_fields_and_invariants(capsys, tmp_path):
    out = tmp_path / "ghz.json"
    run_cli(capsys, "ghz", "--k", "2", "--N", "3", "--output", str(out))
    code, stdout, _ = run_cli(capsys, "analyze", str(out))
    assert code == 0
    rep = json.loads(stdout)
    assert rep["k"] == 2 and rep["N"] == 3
    assert rep["separable"] is False
    assert rep["negativity"] == pytest.approx(1.0, abs=1e-12)
    assert rep["realignment_norm"] == pytest.approx(3.0, abs=1e-12)
    assert rep["negativity"] == pytest.approx(
        (rep["realignment_norm"] - 1.0) / 2.0, abs=1e-12
    )
    assert rep["relative_entropy"] == pytest.approx(np.log2(3.0), abs=1e-12)
    assert rep["log_base"] == "2"
    assert rep["concurrence_method"] == "closed_form"
    assert rep["concurrence_exact"] == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-9)
    assert rep["slocc"] == {"kind": "ghz_class", "t": 3}
    assert rep["witness"]["pair_count"] == 3
    assert rep["witness"]["expectation"] == pytest.approx(-1.0, abs=1e-12)
    assert rep["pt_spectrum"]["zero_multiplicity"] == 0
    assert rep["oracle_checked"] is False
    assert rep["oracle_max_residual"] is None
    # the report itself is canonical JSON
    assert canonical_dumps(json.loads(stdout)) == stdout


def test_analyze_diagonal_state_is_separable(capsys, tmp_path):
    path = write_diag_state(tmp_path)
    code, stdout, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    rep = json.loads(stdout)
    assert rep["separable"] is True
    assert rep["negativity"] == 0.0
    assert rep["realignment_norm"] == pytest.approx(1.0)
    assert rep["relative_entropy"] == 0.0
    assert rep["concurrence_exact"] == 0.0  # diagonal: exact, no coherence
    assert rep["concurrence_lower"] == 0.0
    assert rep["witness"] == {"pair_count": 0, "expectation": 0.0}


def test_analyze_with_oracle_passes_on_example(capsys, tmp_path):
    state_path = tmp_path / "ex.json"
    run_cli(capsys, "examples", "--which", "example41", "--output", str(state_path))
    code, stdout, _ = run_cli(capsys, "analyze", str(state_path), "--oracle")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["negativity"] == pytest.approx(1 / 3, abs=1e-12)
    assert rep["oracle_checked"] is True
    assert rep["oracle_max_residual"] <= 1e-8
    assert rep["slocc"] is None  # rank two: no pure classification
    assert rep["concurrence_method"] == "closed_form"


def test_analyze_oracle_mismatch_exits_3(capsys, tmp_path, monkeypatch):
    path = write_diag_state(tmp_path)
    monkeypatch.setattr(verify, "negativity_residual", lambda *a, **k: 1.0)
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--oracle")
    assert code == 3
    rep = json.loads(stdout)  # the report is still emitted
    assert rep["oracle_max_residual"] == 1.0
    assert rep["oracle_checks"]["negativity"]["pass"] is False


def test_analyze_oracle_non_finite_residual_exits_3(capsys, tmp_path, monkeypatch):
    path = write_diag_state(tmp_path)
    monkeypatch.setattr(verify, "bloch_residuals", lambda *a, **k: float("inf"))
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--oracle")
    assert code == 3
    rep = json.loads(stdout)
    assert rep["oracle_max_residual"] is None
    bloch = rep["oracle_checks"]["bloch"]
    assert bloch == {"max_residual": None, "tol": 1e-9, "pass": False}
    assert rep["oracle_checks"]["negativity"]["pass"] is True


def test_analyze_separable_matches_library_at_boundary(capsys, tmp_path):
    path = write_boundary_state(tmp_path)
    assert is_fully_separable(loads_state(path.read_text()))
    code, stdout, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(stdout)["separable"] is True


def test_analyze_oracle_bloch_check_uses_tol(capsys, tmp_path):
    path = write_boundary_state(tmp_path)
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--oracle", "--tol", "1e-6")
    assert code == 0
    bloch = json.loads(stdout)["oracle_checks"]["bloch"]
    assert bloch["pass"] is True and bloch["tol"] == 1e-6
    assert bloch["max_residual"] <= 1e-12


def test_analyze_oracle_passes_at_the_default_tol_boundary(capsys, tmp_path):
    # every a_mn is within tol, so the Bloch vote must say separable too
    path = write_boundary_state(tmp_path)
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--oracle")
    assert code == 0
    bloch = json.loads(stdout)["oracle_checks"]["bloch"]
    assert bloch["pass"] is True and bloch["max_residual"] <= 1e-12


def test_analyze_oracle_split_1_builds_no_generator_tensors(capsys, tmp_path, monkeypatch):
    def refuse(d):
        raise AssertionError(f"su_generators({d}) built")

    monkeypatch.setattr(oracle, "su_generators", refuse)
    # the dense states are 243 and 256 wide; SU(R) generator tensors of
    # (R^2 - 1) R^2 entries would be 0.69 GB and 0.27 GB
    for k, n in ((5, 3), (4, 4)):
        path = tmp_path / f"g{k}{n}.json"
        path.write_text(dumps_state(pure_to_mixed(ghz(k, n))))
        code, stdout, _ = run_cli(capsys, "analyze", str(path), "--oracle", "--split", "1")
        assert code == 0
        assert json.loads(stdout)["oracle_checks"]["bloch"]["pass"] is True


@pytest.mark.parametrize("split", [0, 3, -1])
def test_analyze_oracle_refuses_a_bad_split_before_building_rho(
    capsys, tmp_path, monkeypatch, split
):
    def refuse(state):
        raise AssertionError("dense_from_sc called")

    monkeypatch.setattr(oracle, "dense_from_sc", refuse)
    path = tmp_path / "g.json"
    path.write_text(dumps_state(pure_to_mixed(ghz(3, 2))))
    code, stdout, err = run_cli(capsys, "analyze", str(path), "--oracle", "--split", str(split))
    assert (code, stdout) == (2, "")
    assert f"--split must be an integer in [1, 2], got {split}" in err
    # without --oracle nothing reads the split
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--split", str(split))
    assert code == 0 and json.loads(stdout)["oracle_checked"] is False


def test_analyze_roof_tightens_upper_bound(capsys, tmp_path):
    code, listing, _ = run_cli(
        capsys, "random", "--k", "2", "--N", "3", "--seed", "5",
        "--output-dir", str(tmp_path / "d"),
    )
    assert code == 0
    produced = json.loads(listing)["files"][0]
    code, plain_out, _ = run_cli(capsys, "analyze", produced)
    assert code == 0
    plain = json.loads(plain_out)
    assert plain["concurrence_method"] == "bounds_only"
    assert plain["concurrence_roof_trace"] is None
    code, roof_out, _ = run_cli(capsys, "analyze", produced, "--roof")
    assert code == 0
    roofed = json.loads(roof_out)
    assert roofed["concurrence_method"] == "roof_optimizer"
    assert roofed["concurrence_upper"] <= plain["concurrence_upper"] + 1e-12
    assert roofed["concurrence_lower"] - 1e-9 <= roofed["concurrence_upper"]
    trace = roofed["concurrence_roof_trace"]
    assert isinstance(trace, list) and len(trace) >= 1
    assert all(len(pair) == 2 for pair in trace)


def test_analyze_log_base_e(capsys, tmp_path):
    out = tmp_path / "g.json"
    run_cli(capsys, "ghz", "--k", "2", "--N", "2", "--output", str(out))
    code, stdout, _ = run_cli(capsys, "analyze", str(out), "--log-base", "e")
    rep = json.loads(stdout)
    assert code == 0
    assert rep["log_base"] == "e"
    assert rep["relative_entropy"] == pytest.approx(np.log(2.0), abs=1e-12)


def test_analyze_output_file(capsys, tmp_path):
    src = write_diag_state(tmp_path)
    dst = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "analyze", str(src), "--output", str(dst))
    assert code == 0 and stdout == ""
    rep = json.loads(dst.read_text())
    assert rep["separable"] is True


def test_analyze_input_error_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == 2 and "absent.json" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2,\n "N": 2,\n "a": [[[0.5, 0.0]\n')
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2 and "line" in err and "column" in err

    ragged = tmp_path / "ragged.json"
    ragged.write_text('{"k": 2, "N": 2, "a": [[[0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}')
    code, _, err = run_cli(capsys, "analyze", str(ragged))
    assert code == 2 and '"a"[0]' in err

    unnormalized = tmp_path / "trace.json"
    unnormalized.write_text(
        '{"k": 2, "N": 2, "a": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]}'
    )
    code, _, err = run_cli(capsys, "analyze", str(unnormalized))
    assert code == 2 and "trace" in err.lower()


def test_analyze_huge_integer_exits_2(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"k": 2, "N": 2, "a": [[[1%s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}'
        % ("0" * 400)
    )
    code, _, err = run_cli(capsys, "analyze", str(huge))
    assert code == 2 and '"a"[0][0][0]: integer too large for a double' in err


def test_plain_analyze_runs_one_eigensolver_call(capsys, tmp_path, monkeypatch):
    # one eigh, inside validation, whose eigenvectors also serve the SLOCC summary
    full = random_sc_state(3, 4, 7)
    pure = pure_to_mixed(ghz(3, 4))
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    def fail(*args, **kwargs):
        raise AssertionError("plain analyze called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    for state, slocc in ((full, None), (pure, {"kind": "ghz_class", "t": 4})):
        path = tmp_path / "state.json"
        path.write_text(dumps_state(state))
        calls.clear()
        code, stdout, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0 and json.loads(stdout)["slocc"] == slocc
        assert len(calls) == 1


def test_random_is_deterministic_and_analyzable(capsys, tmp_path):
    args = ("random", "--k", "3", "--N", "2", "--seed", "11", "--count", "3")
    code, stdout, _ = run_cli(capsys, *args, "--output-dir", str(tmp_path / "a"))
    assert code == 0
    files_a = json.loads(stdout)["files"]
    assert len(files_a) == 3
    code, stdout, _ = run_cli(capsys, *args, "--output-dir", str(tmp_path / "b"))
    files_b = json.loads(stdout)["files"]
    for fa, fb in zip(files_a, files_b):
        assert Path(fa).read_text() == Path(fb).read_text()
    code, stdout, _ = run_cli(
        capsys, "random", "--k", "3", "--N", "2", "--seed", "12",
        "--output-dir", str(tmp_path / "c"),
    )
    other = json.loads(stdout)["files"][0]
    assert Path(other).read_text() != Path(files_a[0]).read_text()
    for path in files_a:
        code, stdout, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["separable"] is False  # Ginibre states are entangled a.s.


def test_random_bad_count_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "random", "--k", "2", "--N", "2", "--count", "0",
        "--output-dir", str(tmp_path),
    )
    assert code == 2 and "count" in err


def test_oracle_verify_passes(capsys):
    code, stdout, _ = run_cli(
        capsys, "oracle-verify", "--k", "3", "--N", "2", "--samples", "5"
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["pass"] is True
    assert summary["k"] == 3 and summary["N"] == 2
    names = set(summary["checks"])
    assert {
        "pt_spectrum", "realignment", "negativity", "relative_entropy",
        "state_spectrum", "witness", "bloch", "slocc",
    } <= names
    for item in summary["checks"].values():
        assert item["pass"] is True
        assert item["max_residual"] <= item["tol"]


def test_oracle_verify_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(verify, "realignment_residual", lambda *a, **k: 0.5)
    code, stdout, _ = run_cli(
        capsys, "oracle-verify", "--k", "2", "--N", "2", "--samples", "2"
    )
    assert code == 3
    summary = json.loads(stdout)
    assert summary["pass"] is False
    assert summary["checks"]["realignment"]["pass"] is False


def test_oracle_verify_non_finite_residual_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        verify, "relative_entropy_residual", lambda *a, **k: float("inf")
    )
    code, stdout, _ = run_cli(
        capsys, "oracle-verify", "--k", "2", "--N", "2", "--samples", "1"
    )
    assert code == 3
    checks = json.loads(stdout)["checks"]
    rel = checks["relative_entropy"]
    assert rel == {"max_residual": None, "tol": 1e-8, "pass": False}
    assert checks["negativity"]["pass"] is True


def test_oracle_verify_fails_a_nan_residual_among_finite_ones(capsys, monkeypatch):
    # the second of two states reads NaN: the suite's fold keeps it
    original, calls = verify.pt_spectrum_residual, []

    def second_is_nan(*args, **kwargs):
        calls.append(None)
        return float("nan") if len(calls) == 2 else original(*args, **kwargs)

    monkeypatch.setattr(verify, "pt_spectrum_residual", second_is_nan)
    code, stdout, _ = run_cli(
        capsys, "oracle-verify", "--k", "2", "--N", "2", "--samples", "2"
    )
    assert code == 3
    checks = json.loads(stdout)["checks"]
    assert checks["pt_spectrum"] == {"max_residual": None, "tol": 1e-9, "pass": False}
    assert all(entry["pass"] for name, entry in checks.items() if name != "pt_spectrum")


def test_a_nan_certificate_fails_the_witness_entry_in_both_commands(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.setattr(verify, "witness_certificate", lambda *a, **k: float("nan"))
    path = tmp_path / "pair.json"
    path.write_text(dumps_state(new_sc_state(2, 2, [[0.5, 0.4], [0.4, 0.5]])))
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--oracle")
    assert code == 3
    analyzed = json.loads(stdout)["oracle_checks"]["witness"]
    code, stdout, _ = run_cli(
        capsys, "oracle-verify", "--k", "2", "--N", "2", "--samples", "2"
    )
    assert code == 3
    verified = json.loads(stdout)["checks"]["witness"]
    for witness in (analyzed, verified):
        assert witness["pass"] is False
        assert witness["min_separable_expectation"] is None
        assert witness["max_residual"] <= witness["tol"]


def test_analyze_oracle_max_residual_is_null_when_an_entry_is_null(
    capsys, tmp_path, monkeypatch
):
    # a NaN after the first check: a plain max over the checks would drop it
    monkeypatch.setattr(verify, "realignment_residual", lambda *a, **k: float("nan"))
    path = write_diag_state(tmp_path)
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--oracle")
    assert code == 3
    report = json.loads(stdout)
    assert report["oracle_checks"]["realignment"]["max_residual"] is None
    assert report["oracle_max_residual"] is None


def _weaken_witness(monkeypatch):
    """Patch ``build_witness`` to scale its diagonal terms by 0.8.

    Those terms lie off the state's support, so Tr[W rho] is unchanged, but
    the weakened witness reads negative on some product states.
    """
    original = separability.build_witness

    def weakened(state):
        w = original(state)
        terms = tuple((r, c, 0.8 * v if r == c else v) for r, c, v in w.terms)
        return separability.Witness(dims=w.dims, terms=terms, source_pairs=w.source_pairs)

    monkeypatch.setattr(separability, "build_witness", weakened)


def test_analyze_oracle_catches_a_witness_negative_on_product_states(
    capsys, tmp_path, monkeypatch
):
    path = tmp_path / "pair.json"
    path.write_text(dumps_state(new_sc_state(2, 2, [[0.5, 0.4], [0.4, 0.5]])))
    _weaken_witness(monkeypatch)
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "--oracle")
    assert code == 3
    witness = json.loads(stdout)["oracle_checks"]["witness"]
    assert witness["pass"] is False
    assert witness["max_residual"] <= witness["tol"]
    assert witness["min_separable_expectation"] < -witness["tol"]


def test_oracle_verify_catches_a_witness_negative_on_product_states(capsys, monkeypatch):
    _weaken_witness(monkeypatch)
    code, stdout, _ = run_cli(capsys, "oracle-verify", "--k", "2", "--N", "2")
    assert code == 3
    assert json.loads(stdout)["checks"]["witness"]["pass"] is False


@pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_nonnegative(capsys, tmp_path, bad):
    path = write_diag_state(tmp_path)
    for argv in (["analyze", str(path), "--oracle"], ["oracle-verify", "--k", "2", "--N", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--tol", bad])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["-1", "-5", "abc"])
def test_seed_must_be_a_nonnegative_integer(capsys, tmp_path, bad):
    out_dir = tmp_path / "states"
    for argv in (
        ["oracle-verify", "--k", "2", "--N", "2"],
        ["random", "--k", "2", "--N", "2", "--output-dir", str(out_dir)],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", bad])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
    assert not out_dir.exists()


def test_tol_zero_is_valid(capsys, tmp_path):
    code, stdout, _ = run_cli(capsys, "analyze", str(write_diag_state(tmp_path)), "--tol", "0")
    assert code == 0 and json.loads(stdout)["tol"] == 0
    # every residual is above 0, so the suite runs and reports a mismatch
    code, stdout, _ = run_cli(
        capsys, "oracle-verify", "--k", "2", "--N", "2", "--samples", "1", "--tol", "0"
    )
    assert code == 3 and json.loads(stdout)["tol"] == 0


def test_oracle_verify_bad_samples_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "oracle-verify", "--k", "2", "--N", "2", "--samples", "0"
    )
    assert code == 2 and "samples" in err


def test_examples_tokens(capsys, tmp_path):
    expectations = {
        "ghz32": (3, 2),
        "example41": (3, 2),
        "psi-onethird": (2, 2),
    }
    for token, (k, n) in expectations.items():
        out = tmp_path / f"{token}.json"
        code, _, _ = run_cli(capsys, "examples", "--which", token, "--output", str(out))
        assert code == 0
        st = loads_state(out.read_text())
        assert st.parties == k and st.dim == n
    with pytest.raises(SystemExit) as exc:
        cli.main(["examples", "--which", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_size_guard_env_blocks_dense_work(capsys, tmp_path, monkeypatch):
    out = tmp_path / "g.json"
    run_cli(capsys, "ghz", "--k", "3", "--N", "2", "--output", str(out))
    monkeypatch.setenv("SC_SIZE_GUARD", "7")
    code, _, err = run_cli(capsys, "analyze", str(out), "--oracle")
    assert code == 4 and "guard" in err
    # plain analysis never builds the dense matrix, so it still succeeds
    code, _, _ = run_cli(capsys, "analyze", str(out))
    assert code == 0
    # N^k = 8 is the largest array side, the Bloch check's included
    monkeypatch.setenv("SC_SIZE_GUARD", "8")
    code, _, _ = run_cli(capsys, "analyze", str(out), "--oracle")
    assert code == 0


@pytest.mark.parametrize("parties", [30, 64])
def test_size_guard_refuses_a_huge_state_with_exit_4(capsys, tmp_path, monkeypatch, parties):
    # N^k = 2^30 and 2^64 (past int64): refused before anything of that size
    monkeypatch.delenv("SC_SIZE_GUARD", raising=False)
    path = tmp_path / "huge.json"
    path.write_text(dumps_state(random_sc_state(parties, 2, 17)))
    code, _, err = run_cli(capsys, "analyze", str(path), "--oracle")
    assert code == 4 and "guard" in err


def test_size_guard_default_blocks_big_suite(capsys):
    code, _, err = run_cli(capsys, "oracle-verify", "--k", "6", "--N", "4")
    assert code == 4 and "4096" in err


def test_size_guard_env_validation(capsys, monkeypatch, tmp_path):
    path = write_diag_state(tmp_path)
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("SC_SIZE_GUARD", bad)
        code, _, err = run_cli(capsys, "analyze", str(path), "--oracle")
        assert code == 2 and "SC_SIZE_GUARD" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "scstates" in capsys.readouterr().out
