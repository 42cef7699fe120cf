"""Canonical JSON emission and strict state-file parsing."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scstates import (
    build_witness,
    canonical_dumps,
    dumps_state,
    dumps_witness,
    ghz,
    loads_state,
    new_sc_state,
    pure_to_mixed,
    random_sc_state,
    state_from_dict,
    state_to_dict,
    witness_to_dict,
)

THREE_QUBIT_MIXED = [[2 / 3, 1 / 3], [1 / 3, 1 / 3]]


def test_float_formatting_17_digits():
    assert canonical_dumps(0.1) == "0.10000000000000001\n"
    assert canonical_dumps(1 / 3) == "0.33333333333333331\n"
    assert canonical_dumps(0.5) == "0.5\n"
    assert canonical_dumps(1.0) == "1\n"
    assert canonical_dumps(3) == "3\n"
    assert canonical_dumps(True) == "true\n"
    assert canonical_dumps(None) == "null\n"
    assert canonical_dumps("x") == '"x"\n'


def test_seventeen_digits_reproduce_double():
    rng = np.random.default_rng(400)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 9))
        assert float(format(x, ".17g")) == x


def test_nonfinite_rejected_on_emit():
    with pytest.raises(ValueError):
        canonical_dumps(float("inf"))
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})


def test_layout_inline_vs_multiline():
    assert canonical_dumps([1, 2, 3]) == "[1, 2, 3]\n"
    long_row = list(range(100))
    text = canonical_dumps(long_row)
    assert text.startswith("[\n  0,\n")
    nested = canonical_dumps({"a": [{"b": 1}]})
    assert nested == '{\n  "a": [\n    {\n      "b": 1\n    }\n  ]\n}\n'


def test_state_dict_layout():
    d = state_to_dict(new_sc_state(3, 2, THREE_QUBIT_MIXED))
    assert d["k"] == 3 and d["N"] == 2
    assert d["a"][0][1] == [1 / 3, 0.0]
    # complex entries always [re, im], even when purely real
    text = dumps_state(new_sc_state(3, 2, THREE_QUBIT_MIXED))
    parsed = json.loads(text)
    assert parsed["a"][1][1] == [pytest.approx(1 / 3), 0.0]


def test_round_trip_byte_identical():
    rng = np.random.default_rng(401)
    for _ in range(30):
        parties = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 6))
        st = random_sc_state(parties, dim, rng)
        text = dumps_state(st)
        again = dumps_state(loads_state(text))
        assert again == text
    g = dumps_state(pure_to_mixed(ghz(4, 3)))
    assert dumps_state(loads_state(g)) == g


def test_round_trip_preserves_values_exactly():
    st = random_sc_state(3, 4, 402)
    back = loads_state(dumps_state(st))
    assert back.parties == st.parties and back.dim == st.dim
    assert np.array_equal(back.a, st.a)


def test_parse_rejects_missing_keys():
    with pytest.raises(ValueError, match="missing keys"):
        state_from_dict({"k": 2, "N": 2})
    with pytest.raises(ValueError, match="JSON object"):
        state_from_dict([1, 2])


def test_parse_rejects_bad_k_and_n():
    rows = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    for bad in (1, 0, -3, 2.0, "2", True, None):
        with pytest.raises(ValueError, match='"k"'):
            state_from_dict({"k": bad, "N": 2, "a": rows})
    with pytest.raises(ValueError, match='"N"'):
        state_from_dict({"k": 2, "N": False, "a": rows})


def test_parse_rejects_ragged_and_malformed_rows():
    with pytest.raises(ValueError, match='"a": expected 2 rows'):
        state_from_dict({"k": 2, "N": 2, "a": [[[0.5, 0.0], [0.0, 0.0]]]})
    with pytest.raises(ValueError, match=r'"a"\[0\]: expected 2 entries'):
        state_from_dict({"k": 2, "N": 2, "a": [[[0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]})
    with pytest.raises(ValueError, match=r'"a"\[1\]\[0\]: expected a \[re, im\] pair'):
        state_from_dict(
            {"k": 2, "N": 2, "a": [[[0.5, 0.0], [0.0, 0.0]], [0.0, [0.5, 0.0]]]}
        )
    with pytest.raises(ValueError, match=r'"a"\[0\]\[0\]\[1\]'):
        state_from_dict(
            {"k": 2, "N": 2, "a": [[[0.5, True], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        )


def test_parse_rejects_nonfinite_numbers():
    # the bare token form is refused by the JSON reader itself
    text = '{"k": 2, "N": 2, "a": [[[Infinity, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}'
    with pytest.raises(ValueError, match="non-finite"):
        loads_state(text)
    # an overflowing literal parses to inf and is refused by validation
    text = '{"k": 2, "N": 2, "a": [[[1e999, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}'
    with pytest.raises(ValueError, match="non-finite"):
        loads_state(text)


def test_parse_applies_state_validation():
    rows = [[[0.5, 0.0], [0.4, 0.0]], [[0.1, 0.0], [0.5, 0.0]]]
    with pytest.raises(Exception):
        state_from_dict({"k": 2, "N": 2, "a": rows})


def test_witness_dict_format():
    w = build_witness(pure_to_mixed(ghz(2, 2)))
    d = witness_to_dict(w)
    assert d["dims"] == [2, 2]
    assert sorted(term[:2] for term in d["terms"]) == [
        [0, 3],
        [1, 1],
        [2, 2],
        [3, 0],
    ]
    for _, _, pair in d["terms"]:
        assert isinstance(pair, list) and len(pair) == 2
    text = dumps_witness(w)
    assert json.loads(text)["dims"] == [2, 2]
    assert canonical_dumps(json.loads(text)) == text


def test_parse_rejects_integers_beyond_double_range():
    huge = "1" + "0" * 400
    text = '{"k": 2, "N": 2, "a": [[[%s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}' % huge
    with pytest.raises(ValueError, match=r'^"a"\[0\]\[0\]\[0\]: integer too large for a double$'):
        loads_state(text)
    rows = [[[0.5, 0.0], [0.0, -(10**400)]], [[0.0, 0.0], [0.5, 0.0]]]
    with pytest.raises(ValueError, match=r'^"a"\[0\]\[1\]\[1\]: integer too large'):
        state_from_dict({"k": 2, "N": 2, "a": rows})


# The emitter and the parser before their whole-array fast paths; the
# current ones must agree with them byte for byte and message for message.


def _reference_fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x) + 0.0
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x}")
    return format(x, ".17g")


def _reference_render(obj, indent: int) -> str:
    pad = " " * indent
    child_pad = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _reference_fmt_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{child_pad}{json.dumps(str(key))}: {_reference_render(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        if not any(_reference_contains_dict(item) for item in items):
            inline = "[" + ", ".join(_reference_render(item, 0) for item in items) + "]"
            if "\n" not in inline and len(inline) <= 100:
                return inline
        rows = [child_pad + _reference_render(item, indent + 2) for item in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _reference_contains_dict(obj) -> bool:
    if isinstance(obj, dict):
        return True
    if isinstance(obj, (list, tuple)):
        return any(_reference_contains_dict(item) for item in obj)
    return False


def _reference_dumps(obj) -> str:
    return _reference_render(obj, 0) + "\n"


def _reference_require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    if not np.isfinite(value):
        raise ValueError(f"{where}: non-finite value {value!r}")
    return float(value)


def _reference_state_from_dict(data):
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
    shape = lambda obj: f"{len(obj)} items" if isinstance(obj, list) else type(obj).__name__
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f'"a": expected {n} rows, got {shape(rows)}')
    a = np.zeros((n, n), dtype=complex)
    for m, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f'"a"[{m}]: expected {n} entries, got {shape(row)}')
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f'"a"[{m}][{j}]: expected a [re, im] pair, got {entry!r}')
            re = _reference_require_number(entry[0], f'"a"[{m}][{j}][0]')
            im = _reference_require_number(entry[1], f'"a"[{m}][{j}][1]')
            a[m, j] = complex(re, im)
    return new_sc_state(k, n, a)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


_floats = st.floats(allow_nan=False, allow_infinity=False)
_leaves = (
    _floats
    | _floats.map(np.float64)
    | st.just(-0.0)
    | st.integers()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans()
    | st.none()
    | st.text(alphabet=st.sampled_from('ab"\\/\n\té€\U0001f600\x00'), max_size=6)
)
_json_like = st.recursive(
    _leaves | st.lists(_floats, max_size=12).map(np.array),
    lambda inner: st.lists(inner, max_size=12)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)
_WIDTH_100 = [0.5] * 20  # "[0.5, ..., 0.5]" is 5 * 20 = 100 characters
_WIDTH_101 = [0.5] * 19 + [0.25]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=_json_like)
@example(value=_WIDTH_100)
@example(value=_WIDTH_101)
@example(value={"x": {"y": _WIDTH_100, "z": np.array(_WIDTH_101)}})
@example(value=[1] * 33 + [10])  # 100 characters, and 101 below
@example(value=[[1] * 33 + [100], (-0.0, np.float64(-0.0), np.int64(-3), True, None)])
@example(value=["é\"", {"\u00e9\\": [None, False]}, np.zeros((2, 3))])
def test_canonical_dumps_matches_reference(value):
    assert canonical_dumps(value) == _reference_dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        float("inf"),
        np.float64("nan"),
        [0.5, float("-inf")],
        {"x": [1, np.float32("inf")]},
        1j,
        [np.complex128(1.0)],
        {"x": object()},
        np.array([True]),
    ],
)
def test_canonical_dumps_errors_match_reference(value):
    assert _outcome(canonical_dumps, value) == _outcome(_reference_dumps, value)


def _state_dict(rows, k=2):
    return {"k": k, "N": len(rows), "a": rows}


_GOOD = [[[0.5, 0.0], [0.25, -0.125]], [[0.25, 0.125], [0.5, 0.0]]]
_MALFORMED = [
    _state_dict([[[0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
    _state_dict([[[0.5, 0.0], [0.0, 0.0]], [0.0, [0.5, 0.0]]]),
    _state_dict([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0, 0.0]]]),
    _state_dict([[[0.5, 0.0], [0.0, 0.0]], "row"]),
    _state_dict([[[0.5, True], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
    _state_dict([[[0.5, 0.0], [0.0, 0.0]], [[0.0, False], [0.5, 0.0]]]),
    _state_dict([[[0.5, 0.0], ["0", 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
    _state_dict([[[0.5, 0.0], [0.0, 0.0]], [[0.0, None], [0.5, 0.0]]]),
    _state_dict([[[[0.5, 0.0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
    _state_dict([[[[0.5, 0.0], [0.0, 0.0]]], [[0.0, 0.0], [0.5, 0.0]]]),
    _state_dict([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e999, 0.0]]]),
    _state_dict([[[0.5, 0.0], [0.0, float("nan")]], [[0.0, 0.0], [0.5, 0.0]]]),
    _state_dict([[[0.5, 0.0], [np.int64(0), 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
    # a bad number ahead of a structural fault is reported first, and after one
    _state_dict([[[0.5, "x"], [0.0, 0.0]], [[0.0, 0.0]]]),
    _state_dict([[[0.5, 0.0], [0.0, 0.0]], [[1e999, 0.0], [0.5]]]),
    _state_dict([[[0.5, 0.0], [0.0]], [[1e999, 0.0], [0.5, 0.0]]]),
    _state_dict([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], k=True),
    {"k": 2, "N": 2, "a": "rows"},
    {"k": 2, "N": 3, "a": _GOOD},
    [1, 2],
    # valid layout, invalid coefficients
    _state_dict([[[0.5, 0.0], [0.4, 0.0]], [[0.1, 0.0], [0.5, 0.0]]]),
    _state_dict([[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]),
]


@pytest.mark.parametrize("data", _MALFORMED)
def test_state_from_dict_errors_match_reference(data):
    got, want = _outcome(state_from_dict, data), _outcome(_reference_state_from_dict, data)
    assert isinstance(want, tuple) and got == want


@pytest.mark.parametrize(
    "rows",
    [
        _GOOD,
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],  # ints
        [[[np.float64(0.5), -0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],  # float subclass
    ],
)
def test_state_from_dict_values_match_reference(rows):
    got = state_from_dict(_state_dict(rows, k=3)).a
    want = _reference_state_from_dict(_state_dict(rows, k=3)).a
    assert got.tobytes() == want.tobytes()


def test_state_from_dict_matches_reference_on_random_states():
    rng = np.random.default_rng(403)
    for _ in range(20):
        st_ = random_sc_state(int(rng.integers(2, 6)), int(rng.integers(2, 9)), rng)
        data = json.loads(dumps_state(st_))
        assert state_from_dict(data).a.tobytes() == _reference_state_from_dict(data).a.tobytes()



def _reference_loads_state(text):
    def reject(token):
        raise ValueError(f"non-finite constant {token!r} is not allowed")

    return _reference_state_from_dict(json.loads(text, parse_constant=reject))


_STATE_TEXT = dumps_state(new_sc_state(2, 2, THREE_QUBIT_MIXED))


@pytest.mark.parametrize(
    "text",
    [
        _STATE_TEXT,
        _STATE_TEXT.encode(),
        "\ufeff" + _STATE_TEXT,  # a byte-order mark
        _STATE_TEXT[:-5],
        _STATE_TEXT + " x",
        '{"k": 2, "N": 2, "a": NaN}',
        "",
        5,
    ],
)
def test_loads_state_matches_reference(text):
    def outcome(fn):
        result = _outcome(fn, text)
        return result.a.tobytes() if hasattr(result, "a") else result

    assert outcome(loads_state) == outcome(_reference_loads_state)
