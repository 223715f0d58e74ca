"""The JSON pair codec against the per-component writer and per-entry reader it replaced.

``ref_format_complex_pairs`` formats every component and ``ref_parse_complex_pairs``
reads every pair in a loop; both are kept verbatim as oracles.  The writer
must give the same bytes or the same ``ValidationError`` text, and the reader
the same array or the same ``ParseError`` text, entry index included.  The
channel reader is checked against fixed outcomes: the message the reader that
decoded one operator at a time gave for each malformed document, and for a
valid one the stack read from the document with ``json`` and numpy alone.
"""

import cmath
import json

import numpy as np
import pytest

from weylkit import (
    ParseError,
    ValidationError,
    channel_from_dilation,
    channel_to_json,
    choi_matrix,
    json_to_channel,
    weyl_basis,
    weyl_channel,
)
from weylkit.numerics import format_complex_pairs, format_float, parse_complex_pairs
from weylkit.rand import random_gamma

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**60)


def ref_format_complex_pairs(values):
    pairs = ", ".join(f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in np.ravel(values))
    return f"[{pairs}]"


def ref_parse_complex_pairs(raw, count, what):
    if not isinstance(raw, list) or len(raw) != count:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ParseError(f"{what}: expected {count} [re, im] pairs, got {got}")
    out = np.empty(count, dtype=np.complex128)
    for idx, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ParseError(f"{what}: entry {idx} is not a [re, im] number pair")
        try:
            z = complex(pair[0], pair[1])
        except OverflowError:
            raise ParseError(f"{what}: entry {idx} is out of the float range") from None
        if not cmath.isfinite(z):
            raise ParseError(f"{what}: entry {idx} is not finite")
        out[idx] = z
    return out


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _sparse_array(rng, shape):
    """Mostly zero pairs; the rest mix random floats, signed zeros, subnormals and the float extremes."""
    n = int(np.prod(shape))
    parts = rng.standard_normal(2 * n) * 10.0 ** rng.integers(-300, 300, 2 * n)
    special = rng.random(2 * n) < 0.3
    parts[special] = rng.choice(EXTREMES, special.sum())
    parts[np.repeat(rng.random(n) < 0.7, 2)] = 0.0
    parts[rng.random(2 * n) < 0.05] = -0.0
    return parts.view(np.complex128).reshape(shape)


# ---------------------------------------------------------------------------
# writer


@pytest.mark.parametrize("seed", range(40))
def test_writer_matches_oracle_on_sparse_arrays(seed):
    rng = np.random.default_rng([1213, seed])
    a = _sparse_array(rng, (int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    assert format_complex_pairs(a) == ref_format_complex_pairs(a)


@pytest.mark.parametrize("a", [np.zeros(0, complex), np.zeros((0, 3)), np.zeros((2, 2)), np.eye(3), np.arange(6.0)])
def test_writer_matches_oracle_on_empty_zero_and_real_arrays(a):
    assert format_complex_pairs(a) == ref_format_complex_pairs(a)


def test_writer_matches_oracle_on_non_contiguous_views():
    rng = np.random.default_rng(1214)
    a = _sparse_array(rng, (6, 8))
    choi = choi_matrix(channel_from_dilation(random_gamma(3, rng)))
    for view in (a.T, a[:, ::2], a[::-1, 1::3], a.ravel()[::3], a.real, a.imag.T, choi.T):
        assert not view.flags.c_contiguous
        assert format_complex_pairs(view) == ref_format_complex_pairs(view)


@pytest.mark.parametrize("d", [2, 5])
def test_writer_matches_oracle_on_paper_objects(d):
    rng = np.random.default_rng([1215, d])
    ch = channel_from_dilation(random_gamma(d, rng))
    for a in (weyl_basis(d).elements, ch.stack, choi_matrix(ch)):
        assert format_complex_pairs(a) == ref_format_complex_pairs(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("half", ["re", "im"])
def test_writer_error_matches_oracle(bad, half):
    a = np.zeros(5, complex)
    a[1] = 2.0 + 1j
    a[3] = complex(bad, 1.0) if half == "re" else complex(1.0, bad)
    a[4] = complex(np.nan, np.inf)  # a later bad component must not be the one reported
    want = _outcome(ref_format_complex_pairs, a)
    assert want[0] == "ValidationError"
    assert _outcome(format_complex_pairs, a) == want


# ---------------------------------------------------------------------------
# reader

READER_CASES = {
    "floats": [[1.5, -0.0], [0, 0], [-2, 3.25]],
    "bool_re": [[0.5, 1], [True, 1.5]],
    "bool_im": [[0.5, 1], [1, False]],
    "string": [[1.0, 2.0], ["1", 2.0]],
    "null": [[1.0, 2.0], [None, 2.0]],
    "pair_is_null": [[1.0, 2.0], None],
    "pair_is_number": [[1.0, 2.0], 3.0],
    "pair_is_string": [[1.0, 2.0], "12"],
    "pair_is_object": [[1.0, 2.0], {"re": 1, "im": 2}],
    "ragged": [[1.0, 2.0], [3.0]],
    "nested": [[1.0, 2.0], [[3.0, 4.0], 5.0]],
    "nested_uniform": [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]],
    "three_elements": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
    "int_above_2_53": [[2**53 + 1, -(2**60) - 3], [2**63 - 1, 1]],
    "int_above_int64": [[2**64 + 1, 1], [-(2**70) - 1, 2**100 + 12345]],
    "int_past_float_range": [[1.0, 2.0], [10**400, 0]],
    "nan_literal": [[1.0, 2.0], [float("nan"), 0.0]],
    "infinity_literal": [[1.0, 2.0], [0.0, float("-inf")]],
    "wrong_count": [[1.0, 2.0]],
    "not_a_list": {"entries": []},
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_reader_matches_oracle(case):
    raw = READER_CASES[case]
    count = 2 if case == "wrong_count" else (len(raw) if isinstance(raw, list) else 3)
    want = _outcome(ref_parse_complex_pairs, raw, count, "input")
    got = _outcome(parse_complex_pairs, raw, count, "input")
    assert got[0] == want[0]
    if want[0] == "ok":
        assert got[1].dtype == np.complex128 and got[1].shape == (count,)
        assert got[1].tobytes() == want[1].tobytes()
    else:
        assert got[1] == want[1]


def test_reader_matches_oracle_on_written_documents():
    rng = np.random.default_rng(1216)
    for _ in range(20):
        a = _sparse_array(rng, (5, 4)).ravel()
        raw = json.loads(format_complex_pairs(a))
        got = parse_complex_pairs(raw, a.size, "input")
        assert got.tobytes() == ref_parse_complex_pairs(raw, a.size, "input").tobytes()
        np.testing.assert_array_equal(got, a)


def test_reader_result_is_writable():
    out = parse_complex_pairs([[1.0, 2.0], [3.0, 4.0]], 2, "input")
    out[0] = 0.0
    assert out.flags.writeable and out[0] == 0.0


# ---------------------------------------------------------------------------
# channel documents


def _stack_of(text):
    """The Kraus stack of a well-formed channel document, read with json and numpy alone."""
    doc = json.loads(text)
    pairs = np.array([op["entries"] for op in doc["kraus"]], dtype=np.float64)
    stack = np.empty(pairs.shape[:-1], dtype=np.complex128)
    stack.real, stack.imag = pairs[..., 0], pairs[..., 1]
    return stack.reshape(len(stack), doc["d"], doc["d"])


PAIR = "is not a [re, im] number pair"
CHANNEL_CASES = {  # case name: the ParseError message, or None for a valid document
    "valid": None,
    "ints": None,
    "entry_string": f"channel: kraus[4]: entry 5 {PAIR}",
    "entry_short": f"channel: kraus[4]: entry 5 {PAIR}",
    "entry_bool": f"channel: kraus[4]: entry 5 {PAIR}",
    "entry_nan": "channel: kraus[4]: entry 5 is not finite",
    "entry_huge_int": "channel: kraus[2]: entry 0 is out of the float range",
    "rows_3.0": "channel: kraus[1]: field 'rows' must be a positive integer, got 3.0",
    "rows_True": "channel: kraus[1]: field 'rows' must be a positive integer, got True",
    "cols_0": "channel: kraus[1]: field 'cols' must be a positive integer, got 0",
    "rows_'3'": "channel: kraus[1]: field 'rows' must be a positive integer, got '3'",
    "missing_entries": "channel: kraus[3]: expected 9 [re, im] pairs, got NoneType",
    "item_list": "channel: kraus[2]: expected a matrix object, got list",
    "other_shape": "channel: Kraus operators must be 3 x 3, got (2, 2)",
    "long_and_short": "channel: kraus[0]: expected 9 [re, im] pairs, got 10",
    "non_square": "channel: Kraus operators must be 3 x 3, got (1, 9)",
}


def _channel_cases():
    base = json.loads(channel_to_json(weyl_channel(np.full((3, 3), 1.0 / 9))))

    def edit(change):
        doc = json.loads(json.dumps(base))
        change(doc)
        return json.dumps(doc)

    yield "valid", json.dumps(base)
    yield "ints", edit(lambda doc: doc["kraus"][0].update(entries=[[1, 0], [0, 0], [0, 0]] * 3))
    for name, entry in (("string", "x"), ("short", [1.0]), ("bool", [True, 0]), ("nan", [float("nan"), 0])):
        yield f"entry_{name}", edit(lambda doc, entry=entry: doc["kraus"][4]["entries"].__setitem__(5, entry))
    yield "entry_huge_int", edit(lambda doc: doc["kraus"][2]["entries"].__setitem__(0, [10 ** 400, 0]))
    for key, value in (("rows", 3.0), ("rows", True), ("cols", 0), ("rows", "3")):
        yield f"{key}_{value!r}", edit(lambda doc, key=key, value=value: doc["kraus"][1].__setitem__(key, value))
    yield "missing_entries", edit(lambda doc: doc["kraus"][3].pop("entries"))
    yield "item_list", edit(lambda doc: doc["kraus"].__setitem__(2, [1, 2]))
    yield "other_shape", edit(lambda doc: doc["kraus"][7].update(rows=2, cols=2, entries=[[0.5, 0]] * 4))
    yield "long_and_short", edit(
        lambda doc: (doc["kraus"][0]["entries"].append([0, 0]), doc["kraus"][1]["entries"].pop())
    )
    yield "non_square", edit(lambda doc: doc["kraus"][5].update(rows=1, cols=9))


@pytest.mark.parametrize("name, text", list(_channel_cases()), ids=[name for name, _ in _channel_cases()])
def test_channel_reader_matches_the_per_operator_reader(name, text):
    want = CHANNEL_CASES[name]
    got = _outcome(json_to_channel, text)
    if want is None:
        assert got[0] == "ok" and got[1].d == 3
        assert got[1].stack.tobytes() == _stack_of(text).tobytes()
    else:
        assert got == ("ParseError", want)


def test_channel_reader_names_the_bad_operator():
    op = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}
    bad = {"rows": 2, "cols": 2, "entries": [[1], [0, 0], [0, 0], [1, 0]]}
    with pytest.raises(ParseError, match=r"^channel: kraus\[3\]: entry 0 is not a \[re, im\] number pair$"):
        json_to_channel(json.dumps({"d": 2, "kraus": [op, op, op, bad]}))
