"""The canonical JSON form of every value type a report may hold.

A byte of canonical JSON that changed would change a campaign's output, so
each type's encoding is pinned literally: floats as ``float.hex``, complex
numbers as ``[hex_re, hex_im]``, integers, strings, bools and None as
themselves, arrays and sequences as lists, dict keys as strings.  The
report writer is checked against the encoding it replaced
(``oracles.canonical_reference``), case by case and over nested values.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_bailey.report import (SCHEMA_TAG, VerificationReport, _encode, _residual_ratio, _text,
                                    relative_residual, worst)

from oracles import canonical_reference

_CANONICAL = [
    (1.5, '{"f":"0x1.8000000000000p+0"}'),
    (-0.0, '{"f":"-0x0.0p+0"}'),
    (math.nan, '{"f":"nan"}'),
    (-math.inf, '{"f":"-inf"}'),
    (5e-324, '{"f":"0x0.0000000000001p-1022"}'),
    (np.float64(2.5), '{"f":"0x1.4000000000000p+1"}'),
    (np.float32(0.1), '{"f":"0x1.99999a0000000p-4"}'),
    (complex(1, -2), '{"c":["0x1.0000000000000p+0","-0x1.0000000000000p+1"]}'),
    (np.complex128(3 - 4j), '{"c":["0x1.8000000000000p+1","-0x1.0000000000000p+2"]}'),
    (np.complex64(1 + 2j), '{"c":["0x1.0000000000000p+0","0x1.0000000000000p+1"]}'),
    (True, "true"),
    (None, "null"),
    (-2**70, "-1180591620717411303424"),
    (np.int64(-3), "-3"),
    (np.uint8(200), "200"),
    ("text", '"text"'),
    (np.array([[1, 2], [3, 4]]), "[[1,2],[3,4]]"),
    (np.array([1 + 2j, -0.0j]),
     '[{"c":["0x1.0000000000000p+0","0x1.0000000000000p+1"]},{"c":["-0x0.0p+0","-0x0.0p+0"]}]'),
    ([1.0, [2j, (3, None)]],
     '[{"f":"0x1.0000000000000p+0"},[{"c":["0x0.0p+0","0x1.0000000000000p+1"]},[3,null]]]'),
    ({"a": 1.0, 2: [3j], None: {"b": np.int64(1)}},
     '{"2":[{"c":["0x0.0p+0","0x1.8000000000000p+1"]}],"None":{"b":1},'
     '"a":{"f":"0x1.0000000000000p+0"}}'),
    ({1: "one", "1": "first", None: 0, "None": 1}, '{"1":"first","None":1}'),
]


_text_chars = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "😀", "\ud800"]))
_reals = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                                  2.5e-310, -1e-320]))
_complexes = st.builds(complex, _reals, _reals)
# every scalar type a report may hold
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-2**64), _reals, _complexes,
    _reals.map(np.float64), st.floats(width=32).map(np.float32),
    _complexes.map(np.complex128), st.complex_numbers(width=64).map(np.complex64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.text(_text_chars, max_size=8))
_arrays = st.one_of(
    st.lists(_complexes, max_size=6).map(lambda v: np.array(v, dtype=complex)),
    st.lists(_reals, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(2, 3)),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(np.array))
_keys = st.one_of(st.text(_text_chars, max_size=4), st.integers(-3, 3), st.none(), st.booleans(),
                  _reals)
_nested = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=16)


class TestEncode:
    @pytest.mark.parametrize("value, want", _CANONICAL, ids=[repr(v) for v, _ in _CANONICAL])
    def test_canonical_form(self, value, want):
        assert _text(value) == want
        assert canonical_reference(value) == want
        assert json.dumps(_encode(value), sort_keys=True, separators=(",", ":")) == want

    # A bare object's repr carries its address, so it gets a fixed id to keep the test name stable.
    @pytest.mark.parametrize("value", [np.bool_(True), object(), {1, 2}, b"bytes", np.array(4.5)],
                             ids=lambda v: "object()" if type(v) is object else repr(v))
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            _text(value)
        with pytest.raises(TypeError):
            _encode(value)
        with pytest.raises(TypeError):
            canonical_reference(value)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(value=_nested)
    def test_the_writer_is_the_reference_encoding(self, value):
        assert _text(value) == canonical_reference(value)


def _reference_line(rep, include_timing):
    """A report's line as ``to_json`` wrote it before the direct writer."""
    doc = {"schema": SCHEMA_TAG, "identity": rep.identity, "draw_index": rep.draw_index,
           "params": rep.params, "lhs": rep.lhs, "rhs": rep.rhs, "residual": float(rep.residual),
           "tolerance": float(rep.tolerance), "pass": rep.passed, "settings": rep.settings,
           "details": rep.details, "error": rep.error}
    if include_timing:
        doc["wall_time_s"] = float(rep.wall_time_s)
    return canonical_reference(doc)


class TestReportLine:
    @pytest.mark.parametrize("include_timing", [False, True])
    @pytest.mark.parametrize("rep", [
        VerificationReport("matrix-bailey", {"a": np.complex128(0.3 - 0.1j), "N": 4,
                                             "M": np.array([[1j, 2.0], [0, -0.0]])},
                           np.complex128(1 + 2j), 1 + 2.5j, 3e-17, 1e-9,
                           settings={"bc_mode": "y-split", "rejected": np.int64(2)},
                           details={"eps": [1e-2, np.float64(5e-3)]}, wall_time_s=0.25, draw_index=7),
        VerificationReport("star-triangle", {}, None, None, math.inf, 1e-8,
                           settings={"rejected": 100}, wall_time_s=1.5,
                           error='ConstraintViolationError: "x" \u2208 (1, 2)\n'),
        VerificationReport("special-functions", {"z": 0.5}, 0.5, 0.5, math.nan, 1e-11),
    ], ids=["numpy-fields", "error", "nan-residual"])
    def test_the_line_is_the_reference_encoding(self, rep, include_timing):
        assert rep.to_json(include_timing) == _reference_line(rep, include_timing)


class TestWorst:
    def test_max_of_numbers(self):
        assert worst(1e-12, 3e-9, 0.0) == 3e-9
        assert worst(0.25) == 0.25
        assert worst(1.0, math.inf) == math.inf

    def test_a_nan_in_any_position_is_returned(self):
        # Python's max returns 2.0 for max(1.0, nan, 2.0); the verdict must not
        for at in range(4):
            values = [1e-12, 2.0, 0.0, 5e-9]
            values[at] = math.nan
            assert math.isnan(worst(*values)), at

    def test_the_first_nan_keeps_its_bits(self):
        payload = np.frombuffer(np.uint64(0x7FF8_0000_0000_0123).tobytes(), dtype=np.float64)[0]
        got = worst(1.0, payload, -math.nan, 2.0)
        assert np.float64(got).tobytes() == payload.tobytes()


# moduli from 1e-300 to 1e300, exact zeros, infinities and NaN
_values = st.one_of(
    st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300, allow_infinity=False,
                       allow_nan=False),
    st.sampled_from([0j, -0.0 + 0j, complex(math.inf, 0), complex(math.nan, 1.0)]))


class TestResidualRatio:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(_values, _values), min_size=1, max_size=6))
    def test_each_entry_has_the_bits_of_its_own_call(self, pairs):
        # one call over several residuals replaces a relative_residual call
        # for each of them
        lhs, rhs = zip(*pairs)
        with np.errstate(invalid="ignore"):
            got = _residual_ratio(list(lhs), list(rhs)).tolist()
            want = [relative_residual(a, b) for a, b in pairs]
        assert [x.hex() for x in got] == [x.hex() for x in want]
