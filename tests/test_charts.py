import math

import numpy as np
import pytest

from bmkit import (BmkitError, euclidean3, interval_axis, periodic_axis,
                   solid_torus, spacetime, torus3)
from bmkit.charts import AxisSpec


def test_axis_validation():
    with pytest.raises(BmkitError):
        periodic_axis("x", 0.0)
    with pytest.raises(BmkitError):
        interval_axis("r", 2.0, 1.0)
    with pytest.raises(BmkitError):
        AxisSpec("x", "weird")


def test_torus_wrap_and_distance():
    chart = torus3()
    p = np.array([[2 * math.pi + 0.25, -0.5, 1.0]])
    w = chart.wrap(p)
    assert np.allclose(w, [[0.25, 2 * math.pi - 0.5, 1.0]])
    # minimal image: 0.1 and 2pi - 0.1 are 0.2 apart
    a = np.array([0.1, 0.0, 0.0])
    b = np.array([2 * math.pi - 0.1, 0.0, 0.0])
    assert math.isclose(float(chart.distance(a, b)), 0.2, abs_tol=1e-12)


def test_winding_counts():
    chart = torus3()
    start = np.array([0.0, 0.0, 0.0])
    end = np.array([4 * math.pi + 1e-9, -2 * math.pi, 0.3])
    assert chart.winding(end, start).tolist() == [2, -1, 0]


def test_interval_containment():
    chart = solid_torus(a=1.0)
    inside = np.array([[0.5, 0.1, 0.2]])
    outside = np.array([[1.5, 0.1, 0.2]])
    assert chart.contains(inside).all()
    assert not chart.contains(outside).any()


def test_solid_torus_rmin_floor():
    chart = solid_torus(a=2.0)
    assert math.isclose(chart.axes[0].lo, 2e-3)
    with pytest.raises(BmkitError):
        solid_torus(a=1.0, r_min=2.0)


def test_spacetime_round_trip():
    for c3 in (torus3(), euclidean3(), solid_torus(a=1.0)):
        c4 = spacetime(c3)
        assert c4.dim == 4
        assert c4.time_axis == 0
        assert c4.spatial_axes == (1, 2, 3)
        assert c4.axes[1:] == c3.axes


def _wrap_per_axis(chart, pts):
    """Reference: each periodic axis reduced on its own by the float remainder."""
    out = np.array(pts, dtype=float, copy=True)
    for i, ax in enumerate(chart.axes):
        if ax.is_periodic:
            out[..., i] %= ax.period
    return out


@pytest.mark.parametrize("chart", [torus3(), solid_torus(), euclidean3(), spacetime(torus3())],
                         ids=lambda c: c.name)
def test_wrap_is_bitwise_the_per_axis_remainder(chart):
    rng = np.random.default_rng(7)
    dim = chart.dim
    multiples = 2 * math.pi * np.arange(-3.0, 4.0)
    special = np.concatenate([multiples, [-0.0, 0.0, -1e-17, 1e-17, -math.pi, math.pi]])
    batches = [
        rng.normal(0.0, 20.0, (50, dim)),                       # negative and far values
        np.resize(special, (len(special), dim)),               # exact period multiples, -0.0
        np.roll(np.resize(special, (len(special), dim)), 1, axis=1),
        np.full((3, dim), -0.0),
        rng.normal(0.0, 20.0, dim),                            # one point, shape (dim,)
        rng.normal(0.0, 20.0, (2, 4, dim)),                    # a stack of batches
    ]
    for pts in batches:
        got, want = chart.wrap(pts), _wrap_per_axis(chart, pts)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()   # bitwise: the sign of -0.0 included
        assert got is not pts


def test_r3_chart_unbounded():
    chart = euclidean3()
    far = np.array([[1e6, -1e6, 0.0]])
    assert chart.contains(far).all()
    assert np.allclose(chart.wrap(far), far)


def test_point_dim_mismatch():
    with pytest.raises(BmkitError):
        torus3().as_points([1.0, 2.0])
