"""Run one scstates benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analyze-batch --seed 1 --seconds 50 --trace 0

Each op is one ``scstates`` CLI subcommand driven in-process, in a closed
loop: one caller on one thread, the next op sent only after the previous
one returns. The argparse parser is built once per process, as a real CLI
run builds it once, so its cost lands in ``setup_s`` rather than in every
op; an op is timed as ``args = parser.parse_args(argv); args.func(args)``
with stdout captured in memory, and its output is checked outside the
timed region. An op fails if it raises, exits non-zero or fails its check.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs the
same passes untraced for half the time, then installs the span wrappers
and runs the other half traced, and prints the per-layer metrics plus the
tracing overhead. The last stdout line is the result JSON; the line before
it records the machine, the sample counts and the percentile behind
``op_tail_ms``.
"""

import os

# Pin BLAS before numpy loads: the load is single-threaded and OpenBLAS
# would otherwise start a thread pool sized to the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
#: Fresh-process set-up samples taken before the timed loop and again after
#: it, so the median spans the run rather than one moment of a noisy machine.
SETUP_SAMPLES = 5


def setup_samples():
    """Seconds for ``import scstates`` + one ``build_parser()``, each in a fresh process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            check=True, capture_output=True, text=True, timeout=60,
        )
        samples.append(float(out.stdout))
    return samples


def machine_record():
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": _openblas_threads(np),
    }


def _openblas_threads(np):
    """Thread count numpy's bundled OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibration():
    """Seconds for a fixed pure-Python loop and a fixed small numpy loop (recorded, not compared)."""
    import numpy as np

    a = np.arange(64, dtype=complex).reshape(8, 8)
    a = a + a.conj().T
    python_s, numpy_s = [], []
    for _ in range(3):
        t0 = perf_counter()
        sum(i * i for i in range(300_000))
        python_s.append(perf_counter() - t0)
        t0 = perf_counter()
        for _ in range(2000):
            np.linalg.eigvalsh(a @ a)
        numpy_s.append(perf_counter() - t0)
    return {"python_loop_s": statistics.median(python_s), "numpy_loop_s": statistics.median(numpy_s)}


def call(parser, argv, tracer):
    if tracer is None:
        args = parser.parse_args(argv)
        return args.func(args)
    with tracer.span("bench.op"):
        with tracer.span("cli.parse_args"):
            args = parser.parse_args(argv)
        return args.func(args)


class Loop:
    """Latencies, failures and first-pass bound gaps of a run of whole passes."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.passes = 0
        self.first_pass_gaps = []
        self.errors = []

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def ops_per_s(self):
        return (self.attempted - self.failed) / sum(self.latencies)

    def _failure(self, argv, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")

    def run(self, parser, ops, budget, tracer=None):
        """Repeat whole passes over ``ops``; start another only if it should end within ``budget``."""
        start = perf_counter()
        while True:
            for op in ops:
                buf = io.StringIO()
                exc = None
                with redirect_stdout(buf):
                    t0 = perf_counter()
                    try:
                        rc = call(parser, list(op.argv), tracer)
                    except (Exception, SystemExit) as raised:
                        exc = raised
                    t1 = perf_counter()
                self.latencies.append(t1 - t0)
                if exc is not None:
                    self._failure(op.argv, exc)
                    continue
                try:
                    gap = op.check(rc, buf.getvalue())
                except (workloads.OutputError, ValueError, KeyError, TypeError) as bad:
                    self._failure(op.argv, bad)
                    continue
                if self.passes == 0 and gap is not None:
                    self.first_pass_gaps.append(gap)
            self.passes += 1
            elapsed = perf_counter() - start
            if elapsed * (self.passes + 1) / self.passes > budget:
                return self


def end_to_end(loop, setup_s):
    lat = sorted(loop.latencies)
    return {
        "ops_per_s": {"value": loop.ops_per_s, "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": lat[workloads.tail_index(len(lat))] * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="one or two ops per pass (the benchmark's own tests)")
    opts = p.parse_args(argv)

    if not (SRC / "scstates" / "__init__.py").is_file():
        print(f"error: no scstates sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scstates.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: scstates was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if opts.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {opts.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    ops = workloads.make_ops(opts.workload, opts.seed, WORK / opts.workload, tiny=opts.tiny)
    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "ops_per_pass": len(ops),
        "machine": machine_record(),
        "calibration": calibration(),
    }

    parser = cli.build_parser()
    if opts.trace == 0:
        setup = setup_samples()
        loop = Loop().run(parser, ops, opts.seconds)
        setup += setup_samples()
        metrics = end_to_end(loop, statistics.median(setup))
        n = loop.attempted
        tail = workloads.tail_index(n)
        record.update(
            passes=loop.passes,
            op_samples=n,
            op_tail_percentile=workloads.percentile_of(tail, n),
            op_tail_ops_beyond=n - 1 - tail,
            errors=loop.errors,
            setup_samples_s=setup,
        )
        attempted, failed = loop.attempted, loop.failed
    else:
        plain = Loop().run(parser, ops, opts.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Loop().run(cli.build_parser(), ops, opts.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{opts.workload}.csv")
        metrics = layer_metrics(tracer.spans, traced.attempted)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        gaps = traced.first_pass_gaps
        metrics["roof_gap_mean"] = {"value": statistics.fmean(gaps) if gaps else 0.0, "unit": "1"}
        metrics["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
        overhead = 1.0 - traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
        record.update(
            passes=[plain.passes, traced.passes],
            untraced_ops_per_s=plain.ops_per_s,
            traced_ops_per_s=traced.ops_per_s,
            spans=len(tracer.spans),
            errors=plain.errors + traced.errors,
        )
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
