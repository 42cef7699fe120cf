"""Span tracing of scstates from outside the package.

A traced run wraps the public functions the layers call on each other and
records one span per call: name, start, end, parent span, a computed size
(for the few functions whose work has a size) and whether it raised.
Nothing under ``src/`` is touched: each wrapper replaces the function under
every name a caller looks it up by, because several modules import
functions by name (``cli`` binds ``loads_state``, ``verify`` binds
``random_sc_state``), so patching only the defining module misses those
calls. Untraced runs install nothing.
"""

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "serialize", "states", "separability", "measures", "slocc", "oracle", "verify")

#: Functions wrapped in a traced run, by defining module. ``Class.method``
#: wraps a method on the class.
TARGETS = {
    "cli": ("cmd_analyze", "cmd_oracle_verify"),
    "serialize": ("loads_state", "state_from_dict", "canonical_dumps", "dumps_state"),
    "states": ("new_sc_state", "new_pure_sc_state", "random_sc_state", "random_pure_sc_state"),
    "separability": (
        "pt_spectrum",
        "is_fully_separable",
        "build_witness",
        "witness_expectation",
        "realignment_norm",
        "bloch_decomposition",
        "check_corollary2",
        "Witness.to_dense",
    ),
    "measures": ("negativity", "concurrence", "roof_optimizer", "relative_entropy", "optimal_separable"),
    "slocc": ("classify_pure", "build_filter", "apply_filter"),
    "oracle": (
        "dense_from_sc",
        "partial_transpose",
        "hermitian_eigen",
        "realign",
        "trace_norm",
        "relative_entropy_dense",
        "su_generators",
    ),
    "verify": (
        "run_suite",
        "pt_spectrum_residual",
        "realignment_residual",
        "negativity_residual",
        "relative_entropy_residual",
        "state_spectrum_residual",
        "witness_residuals",
        "random_product_mixture",
        "bloch_residuals",
        "slocc_residual",
    ),
}


def _result_nbytes(args, result):
    return int(result.nbytes)


#: Computed size recorded on a span, from the call's arguments and result.
SIZES = {
    "oracle.hermitian_eigen": lambda args, result: int(args[0].shape[0]) ** 3,
    "oracle.dense_from_sc": _result_nbytes,
    "oracle.su_generators": _result_nbytes,
    "separability.Witness.to_dense": _result_nbytes,
    "measures.roof_optimizer": lambda args, result: int(result.converged),
}

# span record fields
NAME, START, END, PARENT, VALUE, ERROR = range(6)


class Tracer:
    """In-memory span recorder; spans are lists [name, start, end, parent, value, error]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._undo = []

    @contextmanager
    def span(self, name):
        """Record one span around the body; yields the span record."""
        rec = [name, 0.0, 0.0, self._stack[-1], None, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield rec
        except BaseException:
            rec[ERROR] = True
            raise
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if size is not None:
                rec[VALUE] = size(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target under every scstates global that refers to it."""
        modules = [m for key, m in sys.modules.items() if key == "scstates" or key.startswith("scstates.")]
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(f"scstates.{module_name}")
            for attr in attrs:
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(name, original))
                    self._undo.append((cls, method, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def write(self, path):
        """Write the spans as CSV: index, name, start, end, parent, value, error."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,value,error\n")
            for i, (name, start, end, parent, value, error) in enumerate(self.spans):
                value = "" if value is None else value
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{value},{int(error)}\n")


def layer_metrics(spans, ops):
    """Per-op layer metrics derived from the spans of ``ops`` top-level ops.

    A span's self time is its duration minus the time its child spans
    cover; children run in the same thread inside their parent, so their
    intervals are disjoint and the subtraction is exact.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_ms = defaultdict(float)
    calls = Counter()
    values = Counter()
    errors = Counter()
    for i, rec in enumerate(spans):
        name = rec[NAME]
        module = name.split(".")[0]
        own = (rec[END] - rec[START] - child[i]) * 1e3
        self_ms[module] += own
        self_ms[name] += own
        calls[name] += 1
        if rec[VALUE] is not None:
            values[name] += rec[VALUE]
        if rec[ERROR]:
            errors[module] += 1

    def per_op(x):
        return x / ops

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in (
        "cli", "cli.cmd_analyze", "cli.cmd_oracle_verify",
        "serialize", "serialize.loads_state", "serialize.canonical_dumps",
        "states", "states.new_sc_state",
        "separability", "separability.witness_expectation", "separability.build_witness",
        "separability.pt_spectrum", "separability.bloch_decomposition",
        "verify.bloch_residuals",
        "measures", "measures.concurrence", "measures.roof_optimizer",
        "slocc",
        "oracle", "oracle.hermitian_eigen", "oracle.partial_transpose",
        "verify", "verify.witness_residuals", "verify.random_product_mixture",
    ):
        put(f"{name}.self_ms", per_op(self_ms[name]), "ms/op")
    for name in (
        "states.new_sc_state",
        "separability.bloch_decomposition",
        "measures.roof_optimizer",
        "slocc.classify_pure",
        "oracle.hermitian_eigen",
        "oracle.su_generators",
        "verify.random_product_mixture",
    ):
        put(f"{name}.calls", per_op(calls[name]), "calls/op")
    roof_calls = calls["measures.roof_optimizer"]
    converged = values["measures.roof_optimizer"] / roof_calls if roof_calls else 0.0
    put("measures.roof_optimizer.converged_frac", converged, "ratio")
    put("oracle.hermitian_eigen.n3_sum", per_op(values["oracle.hermitian_eigen"]), "n3/op")
    dense = values["oracle.dense_from_sc"] + values["separability.Witness.to_dense"]
    put("oracle.dense_bytes", per_op(dense), "B/op")
    put("oracle.su_generators.bytes", per_op(values["oracle.su_generators"]), "B/op")
    for module in MODULES:
        put(f"{module}.errors", per_op(errors[module]), "errors/op")
    return m
