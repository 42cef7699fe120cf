"""Fast tests of the benchmark itself, at one or two ops per pass.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WORKLOADS)
EXACT_UNITS = {"calls/op", "n3/op", "B/op", "errors/op"}
_runs = {}


def bench(workload, trace, seed=3):
    """Result line and record line of a tiny run (cached: each run takes a few seconds)."""
    key = (workload, trace, seed)
    if key not in _runs:
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", "0.5", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        lines = out.stdout.splitlines()
        _runs[key] = json.loads(lines[-1]), json.loads(lines[-2])
    return _runs[key]


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    result, _ = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_dense_work_only_where_expected():
    for workload in ("analyze-batch", "roof"):
        assert bench(workload, 1)[0]["metrics"]["oracle.dense_bytes"]["value"] == 0
    assert bench("verify", 1)[0]["metrics"]["oracle.dense_bytes"]["value"] > 0
    assert bench("analyze-batch", 1)[0]["metrics"]["measures.roof_optimizer.calls"]["value"] == 0


@pytest.mark.parametrize("workload", ["verify", "roof"])
def test_traced_counts_repeat_at_same_seed(workload):
    first, _ = bench(workload, 1, seed=5)
    del _runs[(workload, 1, 5)]
    second, _ = bench(workload, 1, seed=5)
    exact = {
        name for name, m in first["metrics"].items()
        if m["unit"] in EXACT_UNITS or name in ("measures.roof_optimizer.converged_frac", "roof_gap_mean")
    }
    assert "roof_gap_mean" in exact and "oracle.hermitian_eigen.n3_sum" in exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_seed_changes_inputs_not_metric_names(tmp_path):
    for workload in WORKLOADS:
        a = workloads.make_ops(workload, 1, tmp_path / "a", tiny=True)
        b = workloads.make_ops(workload, 2, tmp_path / "b", tiny=True)
        inputs_a = [Path(x).read_text() if x.endswith(".json") else x for op in a for x in op.argv]
        inputs_b = [Path(x).read_text() if x.endswith(".json") else x for op in b for x in op.argv]
        assert inputs_a != inputs_b, workload
        for trace in (0, 1):
            assert sorted(bench(workload, trace, seed=4)[0]["metrics"]) == sorted(bench(workload, trace)[0]["metrics"])


def test_corrupted_report_is_counted_as_failure(tmp_path, monkeypatch):
    import io
    from contextlib import redirect_stdout

    import scstates.cli as cli

    original = cli.cmd_analyze

    def perturbed(args):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = original(args)
        report = json.loads(buf.getvalue())
        report["negativity"] += 1e-6
        sys.stdout.write(json.dumps(report))
        return rc

    monkeypatch.setattr(cli, "cmd_analyze", perturbed)
    ops = workloads.make_ops("analyze-batch", 1, tmp_path, tiny=True)
    loop = run.Loop().run(cli.build_parser(), ops, budget=0.0)
    assert loop.attempted == len(ops) and loop.failed == loop.attempted
    assert all("negativity" in e for e in loop.errors)


def test_directory_without_sources_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roof", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
