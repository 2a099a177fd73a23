"""Hodge duals, sharps, and norms against the closed-form tables."""

import math
from itertools import combinations

import numpy as np
import pytest

from bmkit import (DegreeError, dx, euclidean_metric,
                   hodge_star, lorentzian_product,
                   make_form, metric_sharp, norm_sq_field, scalar_form, solid_torus,
                   solid_torus_metric, spacetime, spatial_hodge, t3_mode,
                   torus3, wedge)
from bmkit.scalars import constant, monomial

RNG = np.random.default_rng(3)
T3 = torus3()
G3 = euclidean_metric(T3)
PTS = RNG.uniform(0, 2 * math.pi, (25, 3))

ST = solid_torus(a=1.0)
GST = solid_torus_metric(ST)
PTS_ST = np.stack([RNG.uniform(0.05, 1.0, 25),
                   RNG.uniform(0, 2 * math.pi, 25),
                   RNG.uniform(0, 2 * math.pi, 25)], axis=-1)

C4 = spacetime(T3)
G4 = lorentzian_product(G3, C4)
PTS4 = RNG.uniform(0, 2 * math.pi, (25, 4))


def coeff_map(form, pts):
    return {idx: form.coefficient(idx)(pts) for idx in form.indices}


# -- Euclidean tables -----------------------------------------------------------


def test_euclidean_hodge_table():
    # *dx1 = dx2^dx3, *dx2 = dx3^dx1, *dx3 = dx1^dx2 and the 2-form inverses
    expect = {0: {(1, 2): 1.0}, 1: {(0, 2): -1.0}, 2: {(0, 1): 1.0}}
    for axis, want in expect.items():
        got = hodge_star(G3, dx(T3, axis))
        for idx, val in want.items():
            assert np.allclose(got.coefficient(idx)(PTS), val)
        assert sum(1 for c in got.coeffs.values() if not c.is_zero) == 1


def test_hodge_involution_all_degrees_euclidean():
    for k in range(4):
        for idx in combinations(range(3), k):
            a = make_form(T3, k, {idx: constant(1.0)})
            twice = hodge_star(G3, hodge_star(G3, a))
            diff = (twice - a).max_abs(PTS)
            assert diff < 1e-15, (k, idx)


def test_hodge_zero_form_volume():
    vol = hodge_star(G3, scalar_form(T3, 1.0))
    assert np.allclose(vol.coefficient((0, 1, 2))(PTS), 1.0)


# -- solid torus ------------------------------------------------------------------


def test_solid_torus_hodge_table():
    # *dr = r dphi^dx3, *(r dphi) = dx3^dr, *dx3 = r dr^dphi
    r = PTS_ST[:, 0]
    s_dr = hodge_star(GST, dx(ST, 0))
    assert np.allclose(s_dr.coefficient((1, 2))(PTS_ST), r)
    s_rdphi = hodge_star(GST, make_form(ST, 1, {(1,): monomial(0, 1)}))
    assert np.allclose(s_rdphi.coefficient((0, 2))(PTS_ST), -1.0)  # dx3^dr = -dr^dx3
    s_dx3 = hodge_star(GST, dx(ST, 2))
    assert np.allclose(s_dx3.coefficient((0, 1))(PTS_ST), r)


def test_solid_torus_volume_normalization():
    vol = hodge_star(GST, scalar_form(ST, 1.0))
    assert np.allclose(vol.coefficient((0, 1, 2))(PTS_ST), PTS_ST[:, 0])


def test_solid_torus_involution():
    for k in range(4):
        for idx in combinations(range(3), k):
            a = make_form(ST, k, {idx: constant(1.0)})
            twice = hodge_star(GST, hodge_star(GST, a))
            diff = (twice - a).max_abs(PTS_ST)
            assert diff < 1e-12, (k, idx)


# -- Lorentzian -------------------------------------------------------------------


def test_lorentzian_double_star_sign():
    # ** = (-1)^{k+1} on the 4-d Lorentzian chart
    for k in range(5):
        for idx in combinations(range(4), k):
            a = make_form(C4, k, {idx: constant(1.0)})
            twice = hodge_star(G4, hodge_star(G4, a))
            want = (-1.0) ** (k + 1)
            diff = (twice - want * a).max_abs(PTS4)
            assert diff < 1e-15, (k, idx)


def test_star_of_spatial_wedge_dx0_is_star3():
    # *(e ^ dx0) = *3 e for spatial 1-forms e
    for axis in (1, 2, 3):
        e = dx(C4, axis)
        lhs = hodge_star(G4, wedge(e, dx(C4, 0)))
        rhs = spatial_hodge(G3, e)
        diff = (lhs - rhs).max_abs(PTS4)
        assert diff < 1e-15


def test_sharp_dx0_time_sign():
    # sharp(dx0) = -d/dx0 under the (-,+,+,+) block metric
    v = metric_sharp(G4, dx(C4, 0))
    assert np.allclose(v.evaluate(PTS4)[:, 0], -1.0)
    assert np.allclose(v.evaluate(PTS4)[:, 1:], 0.0)


# -- sharps and norms ----------------------------------------------------------------


def test_sharp_euclidean_basis():
    v = metric_sharp(G3, dx(T3, 0))
    vals = v.evaluate(PTS)
    assert np.allclose(vals[:, 0], 1.0) and np.allclose(vals[:, 1:], 0.0)


def test_sharp_solid_torus_r2_dphi():
    # sharp of r^2 dphi on diag(1, r^2, 1) is d/dphi
    a = make_form(ST, 1, {(1,): monomial(0, 2)})
    v = metric_sharp(GST, a)
    vals = v.evaluate(PTS_ST)
    assert np.allclose(vals[:, 1], 1.0)
    assert np.allclose(vals[:, [0, 2]], 0.0)


def test_sharp_torus_mode_gives_reeb_direction():
    v = t3_mode(1, 1.0)
    Z = metric_sharp(G3, v.form)
    vals = Z.evaluate(PTS)
    x3 = PTS[:, 2]
    assert np.allclose(vals[:, 0], np.cos(x3))
    assert np.allclose(vals[:, 1], np.sin(x3))
    assert np.allclose(vals[:, 2], 0.0)


def test_norm_sq_values():
    v = t3_mode(1, 1.0)
    assert np.allclose(norm_sq_field(G3, v.form)(PTS), 1.0)
    from bmkit import abc_flow
    w = abc_flow(1, 1, 1)
    origin = np.zeros((1, 3))
    assert np.allclose(norm_sq_field(G3, w.form)(origin), 3.0)
    zero = make_form(T3, 1, {})
    assert np.allclose(norm_sq_field(G3, zero)(PTS), 0.0)


def test_norm_sq_field_partials_via_quotient():
    # 1 / norm^2 keeps analytic partials: compare against finite differences
    from bmkit import abc_flow
    w = abc_flow(2, 1, 0.5)
    n2 = norm_sq_field(G3, w.form)
    inv = constant(1.0) / n2
    p = PTS[:6]
    h = 1e-6
    for ax in range(3):
        dp = np.zeros(3)
        dp[ax] = h
        fd = (inv(p + dp) - inv(p - dp)) / (2 * h)
        an = inv.partial(ax)(p)
        assert np.max(np.abs(fd - an)) < 1e-7


def test_spatial_hodge_rejects_dx0_components():
    bad = dx(C4, 0)
    with pytest.raises(DegreeError):
        spatial_hodge(G3, bad)


def test_lorentzian_product_needs_the_spacetime_of_the_spatial_chart():
    from bmkit import ChartMismatchError, euclidean3
    assert lorentzian_product(G3, spacetime(torus3())).chart == C4
    for chart4 in (spacetime(solid_torus()), spacetime(euclidean3()), T3):
        with pytest.raises(ChartMismatchError):
            lorentzian_product(G3, chart4)
    # spatial_hodge decides through lorentzian_product
    with pytest.raises(ChartMismatchError):
        spatial_hodge(G3, make_form(spacetime(ST), 1, {(1,): constant(1.0)}))
