"""The canonical JSON form of every value type a report may hold.

A byte of canonical JSON that changed would change a campaign's output, so
each type's encoding is pinned literally: floats as ``float.hex``, complex
numbers as ``[hex_re, hex_im]``, integers, strings, bools and None as
themselves, arrays and sequences as lists, dict keys as strings.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_bailey.report import _encode, _residual_ratio, relative_residual, worst

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
]


class TestEncode:
    @pytest.mark.parametrize("value, want", _CANONICAL, ids=[repr(v) for v, _ in _CANONICAL])
    def test_canonical_form(self, value, want):
        assert json.dumps(_encode(value), sort_keys=True, separators=(",", ":")) == want

    # A bare object's repr carries its address, so it gets a fixed id to keep the test name stable.
    @pytest.mark.parametrize("value", [np.bool_(True), object(), {1, 2}, b"bytes", np.array(4.5)],
                             ids=lambda v: "object()" if type(v) is object else repr(v))
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            _encode(value)


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
