"""The polyline formatter against the per-value one it replaces."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multilink.svgplot import _fmt, _points

# values whose two decimals end in 0 or 00, signed zeros, values that round
# to them, pixel-range values and any float, large magnitudes included
VALUES = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 100),
    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 10),
    st.sampled_from([0.0, -0.0, 0.004, -0.004, 0.005, -0.005, 0.995, -0.995,
                     9.995, 99.996, 1e22, -1e22, 1e300, -1e300, 5e-324,
                     math.inf, -math.inf, math.nan]),
    st.floats(-1000.0, 1000.0),
    st.floats(),
)


def points_oracle(xs, ys):
    return " ".join([f"{_fmt(a)},{_fmt(b)}" for a, b
                     in zip(xs.tolist(), ys.tolist())])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(VALUES, VALUES), max_size=40))
def test_points_match_per_value_format(pairs):
    xs = np.array([a for a, _ in pairs], dtype=float)
    ys = np.array([b for _, b in pairs], dtype=float)
    assert _points(xs, ys) == points_oracle(xs, ys)


def test_points_examples():
    xs = np.array([1.0, -0.0, 2.5, 10.0, 0.996, 123.456])
    ys = np.array([-1.5, 0.004, 100.0, -0.005, 7.1, 1e20])
    assert _points(xs, ys) == ("1,-1.5 -0,0 2.5,100 10,-0.01 1,7.1 "
                               "123.46,100000000000000000000")
    assert _points(np.empty(0), np.empty(0)) == ""
    assert _points(np.array([-math.inf]), np.array([math.nan])) == "-inf,nan"
    assert _points(np.array([1e5, -math.inf]), np.array([0.5, 2.0])) == \
        "100000,0.5 -inf,2"
