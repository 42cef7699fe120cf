"""Canonical JSON serialization for states, witnesses, and reports.

Emission is deterministic: floats carry 17 significant digits (enough to
reproduce the double exactly), complex entries are always [re, im] pairs
even when the imaginary part is zero, and layout is a pure function of
the data.  Emit -> parse -> emit is therefore byte-identical, which the
CLI relies on for its round-trip guarantee.
"""

import json

import numpy as np

from .separability import Witness
from .states import SCState, new_sc_state

#: Inline a JSON array on one line when its rendering fits this width.
_INLINE_WIDTH = 100


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x) + 0.0  # -0.0 -> 0.0: JSON reads "-0" back as the integer 0
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x}")
    return format(x, ".17g")


def _render(obj, indent: int) -> str:
    pad = " " * indent
    child_pad = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _fmt_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{child_pad}{json.dumps(str(key))}: {_render(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        if not any(_contains_dict(item) for item in items):
            inline = "[" + ", ".join(_render(item, 0) for item in items) + "]"
            if "\n" not in inline and len(inline) <= _INLINE_WIDTH:
                return inline
        rows = [child_pad + _render(item, indent + 2) for item in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _contains_dict(obj) -> bool:
    if isinstance(obj, dict):
        return True
    if isinstance(obj, (list, tuple)):
        return any(_contains_dict(item) for item in obj)
    return False


def canonical_dumps(obj) -> str:
    """Render any JSON-able structure deterministically (trailing newline)."""
    return _render(obj, 0) + "\n"


def _complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def state_to_dict(state: SCState) -> dict:
    a = state.a
    rows = [[_complex_pair(a[m, j]) for j in range(state.dim)] for m in range(state.dim)]
    return {"k": state.parties, "N": state.dim, "a": rows}


def dumps_state(state: SCState) -> str:
    return canonical_dumps(state_to_dict(state))


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    if not np.isfinite(value):
        raise ValueError(f"{where}: non-finite value {value!r}")
    return float(value)


def state_from_dict(data) -> SCState:
    """Validate the {"k", "N", "a"} state layout and build the state.

    Rejects ragged rows, malformed complex pairs, and non-finite numbers
    with the offending JSON path in the message; coefficient-matrix
    validation (Hermiticity, trace, positivity) then applies as usual.
    """
    if not isinstance(data, dict):
        raise ValueError(f"state file must be a JSON object, got {type(data).__name__}")
    missing = {"k", "N", "a"} - set(data)
    if missing:
        raise ValueError(f"state file is missing keys: {sorted(missing)}")
    k, n, rows = data["k"], data["N"], data["a"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 2:
        raise ValueError(f'"k": expected an integer >= 2, got {k!r}')
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ValueError(f'"N": expected an integer >= 2, got {n!r}')
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f'"a": expected {n} rows, got {_shape_word(rows)}')
    a = np.zeros((n, n), dtype=complex)
    for m, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f'"a"[{m}]: expected {n} entries, got {_shape_word(row)}')
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(
                    f'"a"[{m}][{j}]: expected a [re, im] pair, got {entry!r}'
                )
            re = _require_number(entry[0], f'"a"[{m}][{j}][0]')
            im = _require_number(entry[1], f'"a"[{m}][{j}][1]')
            a[m, j] = complex(re, im)
    return new_sc_state(k, n, a)


def _shape_word(obj) -> str:
    return f"{len(obj)} items" if isinstance(obj, list) else type(obj).__name__


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token!r} is not allowed")


def loads_state(text: str) -> SCState:
    """Parse a canonical state JSON document (see :func:`state_from_dict`)."""
    data = json.loads(text, parse_constant=_reject_constant)
    return state_from_dict(data)


def witness_to_dict(w: Witness) -> dict:
    return {
        "dims": list(w.dims),
        "terms": [[int(r), int(c), _complex_pair(v)] for r, c, v in w.terms],
    }


def dumps_witness(w: Witness) -> str:
    return canonical_dumps(witness_to_dict(w))
