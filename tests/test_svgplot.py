"""The polyline formatter against the per-value one it replaces, the
compiled formatter against the numpy one, the one rule by which a series is
thinned, and the equal-aspect frame of data with subnormal spans."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilink import _compiled
from multilink.dynamics import Trajectory
from multilink.model import random_vehicle
from multilink.scenarios import _attachment_plot, _series_plot
from multilink.svgplot import MAX_POINTS, LinePlot, _fmt, _points

# values whose two decimals end in 0 or 00, signed zeros, values that round
# to them, pixel-range values and any float, large magnitudes included;
# exact half-hundredth ties (multiples of 1/8) and multiples of 0.005, which
# lie within an ulp of a tie; tiny negatives, which print as -0; values at
# and beyond 1e12, and non-finite ones
VALUES = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 100),
    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 10),
    st.integers(-10 ** 9, 10 ** 9).map(lambda k: k / 8),
    st.integers(-10 ** 9, 10 ** 9).map(lambda k: k * 0.005),
    st.sampled_from([0.0, -0.0, 0.004, -0.004, 0.005, -0.005, 0.995, -0.995,
                     9.995, 99.996, 0.125, -0.375, 2.5e-3, 1e22, -1e22, 1e300,
                     -1e300, 5e-324, -5e-324, -1e-300, -0.00499999,
                     1e12, -1e12, math.nextafter(1e12, 0.0),
                     math.nextafter(1e12, math.inf), 999999999999.995,
                     math.inf, -math.inf, math.nan, -math.nan]),
    st.floats(-0.006, 0.0),
    st.floats(1e12, 1e16).map(lambda v: v * (-1) ** int(v)),
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


def test_points_match_per_value_format_bulk():
    rng = np.random.default_rng(412)
    n = 40_000
    halves = (rng.integers(0, 10 ** 13, n) + 0.5) / 100.0
    values = np.concatenate([
        halves, np.nextafter(halves, math.inf), -np.nextafter(halves, 0.0),
        rng.uniform(-800.0, 800.0, n),
        rng.integers(-10 ** 8, 10 ** 8, n) / 8,
        rng.integers(-10 ** 8, 10 ** 8, n) * 0.005,
        rng.integers(-10 ** 8, 10 ** 8, n) / 200,
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, 16.0, n),
        rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64).view(float),
    ])
    rng.shuffle(values)
    xs, ys = values[0::2], values[1::2]
    # pair by pair: a diff of the whole text would take pytest minutes
    got = _points(xs, ys).split(" ")
    want = points_oracle(xs, ys).split(" ")
    assert len(got) == len(want) == xs.size
    bad = [k for k, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not bad, [(xs[k], ys[k], got[k], want[k]) for k in bad[:5]]


@pytest.fixture(scope="module")
def both_points():
    """both(xs, ys) -> (compiled, numpy): _points with the compiled library
    loaded and with _compiled._lib False; skipped without a compiler."""
    lib = _compiled.load()
    if not lib:
        pytest.skip("no C compiler")

    def both(xs, ys):
        assert _compiled.points(xs, ys) is not None
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_compiled, "_lib", lib)
            fast = _points(xs, ys)
            m.setattr(_compiled, "_lib", False)
            slow = _points(xs, ys)
        return fast, slow

    return both


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(VALUES, VALUES), max_size=40))
def test_compiled_points_match_numpy(both_points, pairs):
    # half hundredths, signed zeros, values about 1e12, non-finite ones and
    # no points at all: the same bytes, value by value
    xs = np.array([a for a, _ in pairs], dtype=float)
    ys = np.array([b for _, b in pairs], dtype=float)
    fast, slow = both_points(xs, ys)
    assert fast == slow


def test_compiled_points_match_numpy_bulk(both_points):
    rng = np.random.default_rng(419)
    halves = (rng.integers(0, 10 ** 13, 20_000) + 0.5) / 100.0
    values = np.concatenate([halves, -np.nextafter(halves, 0.0),
                             rng.uniform(-800.0, 800.0, 20_000),
                             rng.integers(-2 ** 63, 2 ** 63, 20_000,
                                          dtype=np.int64).view(float)])
    rng.shuffle(values)
    fast, slow = both_points(values[0::2], values[1::2])
    assert fast.split(" ") == slow.split(" ")


def test_points_examples():
    xs = np.array([1.0, -0.0, 2.5, 10.0, 0.996, 123.456])
    ys = np.array([-1.5, 0.004, 100.0, -0.005, 7.1, 1e20])
    assert _points(xs, ys) == ("1,-1.5 -0,0 2.5,100 10,-0.01 1,7.1 "
                               "123.46,100000000000000000000")
    assert _points(np.empty(0), np.empty(0)) == ""
    assert _points(np.array([-math.inf]), np.array([math.nan])) == "-inf,nan"
    assert _points(np.array([1e5, -math.inf]), np.array([0.5, 2.0])) == \
        "100000,0.5 -inf,2"


# series lengths around one and two and three times MAX_POINTS, and the
# points each keeps
THINNED = {4000: 4000, 4001: 2001, 7689: 3845, 8000: 4001, 11999: 4001}


@pytest.mark.parametrize("n", sorted(THINNED))
def test_thinning_keeps_every_stride_and_the_last_point_once(n):
    plot = LinePlot()
    plot.add_series(np.arange(n, dtype=float), np.zeros(n))
    kept = plot._series[0][0]
    stride = math.ceil(n / MAX_POINTS)
    assert kept.size == THINNED[n]
    assert kept[0] == 0.0 and kept[-1] == n - 1
    assert np.all(np.diff(kept[:-1]) == stride)
    assert 0 < kept[-1] - kept[-2] <= stride


@pytest.mark.parametrize("n", [7689, 8000, 11999])
def test_attachment_paths_thin_as_a_series_does(n):
    # each path of wheel-pair positions is thinned by the same rule as a
    # direct series of as many samples
    rng = np.random.default_rng([422, n])
    p = random_vehicle(rng, 2)
    t = np.linspace(0.0, 10.0, n)
    zeros = np.zeros(n)
    traj = Trajectory(t, np.cos(t), np.sin(t), rng.uniform(-1.0, 1.0, (n, 2)),
                      t, np.sin(t), 0.1 * t, zeros, zeros, zeros)

    def counts(svg):
        return [len(pts.split(" "))
                for pts in re.findall(r'points="([^"]*)"', svg)]

    assert counts(_attachment_plot(traj, p)) == [THINNED[n]] * 3
    assert counts(_series_plot(traj)) == [THINNED[n]] * 2


@pytest.mark.parametrize("x, y", [
    ([0.0, 5e-324], [0.0, 1e-323]),
    ([-2.0 ** -972, -2.0 ** -972 + 2.0 ** -1022],
     [2.0 ** -970, 2.0 ** -970 + 2.0 ** -1021]),
], ids=["subnormal", "near-zero"])
def test_equal_aspect_subnormal_spans(x, y):
    # both spans below pw / DBL_MAX: the equal-aspect frame is that of the
    # data times 2^64, with finite pixels in the frame and exact tick labels
    plot = LinePlot(equal_aspect=True)
    plot.add_series(x, y)
    svg = plot.render()
    points = re.search(r'points="([^"]*)"', svg).group(1)
    pixels = [float(v) for pair in points.split(" ") for v in pair.split(",")]
    assert len(pixels) == 4 and all(64 <= p <= 744 for p in pixels[0::2])
    assert all(34 <= p <= 434 for p in pixels[1::2])
    assert pixels[0] < pixels[2] and pixels[1] > pixels[3]
    labels = re.findall(r'anchor="(?:middle|end)">([^<]*)<', svg)
    assert len(labels) == 10 and "-0" not in labels and "0" not in labels


@pytest.mark.parametrize("v", [3.0, 1.5, -0.75, 5e300, 1e-300, 1.0, 2.0, 0.5])
def test_equal_aspect_one_ulp_span(v):
    # a span of one ulp on both axes: the equal-aspect half-width on the
    # shorter axis is half an ulp, and both limits used to round back to the
    # centre; just above a power of two the centre rounds down and the upper
    # limit used to stay an ulp inside the data.  A limit inside the data
    # moves out an ulp at a time, with the series drawn inside the frame
    u = math.nextafter(v, math.inf)
    plot = LinePlot(equal_aspect=True)
    plot.add_series([v, u], [v, u])
    svg = plot.render()
    points = re.search(r'points="([^"]*)"', svg).group(1)
    pixels = [float(v) for pair in points.split(" ") for v in pair.split(",")]
    assert len(pixels) == 4 and all(64 <= p <= 744 for p in pixels[0::2])
    assert all(34 <= p <= 434 for p in pixels[1::2])
    assert pixels[0] < pixels[2] and pixels[1] > pixels[3]
    assert "nan" not in svg and "inf" not in svg
