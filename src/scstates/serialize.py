"""Canonical JSON serialization for states, witnesses, and reports.

Emission is deterministic: floats carry 17 significant digits (enough to
reproduce the double exactly), complex entries are always [re, im] pairs
even when the imaginary part is zero, and layout is a pure function of
the data.  Emit -> parse -> emit is therefore byte-identical, which the
CLI relies on for its round-trip guarantee.
"""

import json
import math
from json.encoder import encode_basestring_ascii  # what json.dumps(str) calls

import numpy as np

from .separability import Witness
from .states import SCState, new_sc_state

#: Inline a JSON array on one line when its rendering fits this width.
_INLINE_WIDTH = 100


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {float(x)}")
    return format(x + 0.0, ".17g")  # -0.0 -> 0.0: JSON reads "-0" back as the integer 0


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt_float(float(x))


def _render(obj, indent: int) -> str:
    if isinstance(obj, float):  # also np.float64
        return _fmt_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, np.integer, np.floating)):
        return _fmt_number(obj)
    pad = " " * indent
    child_pad = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{child_pad}{encode_basestring_ascii(str(key))}: {_render(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        if all(isinstance(item, float) for item in items):
            # a float renders the same at any indent and on one line
            parts = [_fmt_float(item) for item in items]
            inline = "[" + ", ".join(parts) + "]"
            if len(inline) <= _INLINE_WIDTH:
                return inline
        else:
            if not any(_contains_dict(item) for item in items):
                inline = "[" + ", ".join(_render(item, 0) for item in items) + "]"
                if "\n" not in inline and len(inline) <= _INLINE_WIDTH:
                    return inline
            parts = [_render(item, indent + 2) for item in items]
        return "[\n" + ",\n".join(child_pad + part for part in parts) + "\n" + pad + "]"
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
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{where}: integer too large for a double") from None
    if not math.isfinite(x):
        raise ValueError(f"{where}: non-finite value {value!r}")
    return x


def _require_numbers(flat: list, n: int) -> np.ndarray:
    """The re, im parts of "a" in row-major order as doubles; else the first bad one's error.

    One type check and one finiteness check cover the usual input; only
    when they fail does :func:`_require_number` go entry by entry.
    """
    if set(map(type, flat)) <= {float, int}:
        try:
            values = np.array(flat, dtype=float)
        except OverflowError:  # an integer beyond the double range
            pass
        else:
            if np.isfinite(values).all():
                return values
    return np.array([_require_number(v, _entry_path(i, n)) for i, v in enumerate(flat)])


def _entry_path(i: int, n: int) -> str:
    m, rest = divmod(i, 2 * n)
    return f'"a"[{m}][{rest // 2}][{rest % 2}]'


def state_from_dict(data) -> SCState:
    """Validate the {"k", "N", "a"} state layout and build the state.

    Rejects ragged rows, malformed complex pairs, and non-finite numbers
    (and integers beyond the double range) with the offending JSON path in
    the message, the first in row-major order; coefficient-matrix
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
    flat = []
    for m, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            _require_numbers(flat, n)  # a bad number before this row is reported first
            raise ValueError(f'"a"[{m}]: expected {n} entries, got {_shape_word(row)}')
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                _require_numbers(flat, n)
                raise ValueError(
                    f'"a"[{m}][{j}]: expected a [re, im] pair, got {entry!r}'
                )
            flat += entry
    a = _require_numbers(flat, n).view(complex).reshape(n, n)  # exact: (re, im) stored as read
    return new_sc_state(k, n, a)


def _shape_word(obj) -> str:
    return f"{len(obj)} items" if isinstance(obj, list) else type(obj).__name__


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token!r} is not allowed")


#: One decoder for every call: ``json.loads`` with a keyword argument builds a new one each time.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def loads_state(text: str) -> SCState:
    """Parse a canonical state JSON document (see :func:`state_from_dict`)."""
    if isinstance(text, str) and not text.startswith("\ufeff"):
        data = _DECODER.decode(text)
    else:  # json.loads decodes bytes and words the byte-order-mark error
        data = json.loads(text, parse_constant=_reject_constant)
    return state_from_dict(data)


def witness_to_dict(w: Witness) -> dict:
    return {
        "dims": list(w.dims),
        "terms": [[int(r), int(c), _complex_pair(v)] for r, c, v in w.terms],
    }


def dumps_witness(w: Witness) -> str:
    return canonical_dumps(witness_to_dict(w))
