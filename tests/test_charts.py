import math

import numpy as np
import pytest

from bmkit import (BmkitError, euclidean3, interval_axis, periodic_axis,
                   solid_torus, spacetime, spatial_chart, torus3)
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
        assert spatial_chart(c4) == c3


def test_r3_chart_unbounded():
    chart = euclidean3()
    far = np.array([[1e6, -1e6, 0.0]])
    assert chart.contains(far).all()
    assert np.allclose(chart.wrap(far), far)


def test_point_dim_mismatch():
    with pytest.raises(BmkitError):
        torus3().as_points([1.0, 2.0])
