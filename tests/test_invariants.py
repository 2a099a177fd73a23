"""Cross-module invariants: sampled property checks tying the pieces together."""

import math

import numpy as np

from bmkit import (SampleGrid, VectorField, from_function, abc_flow, beltrami_maxwell, contact_margin,
                   euclidean_metric, exterior_derivative, field_line_generator,
                   hodge_star, integrate, lie_derivative, make_form,
                   norm_sq_field, one_form_norm_sq, reeb_for_maxwell,
                   sin_wave, solid_torus_mode, t3_mode, torus3, wave)

T3 = torus3()
G3 = euclidean_metric(T3)


def fn_form(form):
    """form with each coefficient behind a plain function: no partials, so d takes FD."""
    return make_form(form.chart, form.degree,
                     {idx: from_function(c) for idx, c in form.coeffs.items()})


def fn_vector(Y):
    """Y with each nonzero component behind a plain function (FD partials)."""
    return VectorField(Y.chart, tuple(c if c.is_zero else from_function(c)
                                      for c in Y.components))


def test_nilpotency_on_cube_grid():
    # d(d a) on a 10^3 lattice: < 1e-12 analytic, < 1e-5 finite differences
    grid = SampleGrid.regular(T3, 10)
    a = make_form(T3, 1, {(0,): sin_wave({1: 1}) * wave({2: 2}),
                          (2,): wave({0: 1}, 0.3)})
    dd = exterior_derivative(exterior_derivative(a))
    assert dd.max_abs(grid.points) < 1e-12
    dd_fd = exterior_derivative(exterior_derivative(fn_form(a)))
    assert dd_fd.max_abs(grid.points) < 1e-5


def test_beltrami_implies_contact_margin_bound():
    # for constant k != 0 the contact margin is |k| (min norm^2) (min sqrt det g)
    grid = SampleGrid.regular(T3, 9)
    for v in (t3_mode(1, 1.0), t3_mode(2, 0.5), abc_flow(2, 1, 0.5)):
        r = contact_margin(v.form, grid)
        norms = one_form_norm_sq(v.metric, v.form, grid.points)
        bound = abs(v.k_expected) * float(np.min(norms)) * 1.0
        assert r.passed
        assert r.min_margin >= bound - 1e-9, v.name
    st = solid_torus_mode(2.0, 1.0, "minus")
    grid_st = SampleGrid.regular(st.chart, 10)
    r = contact_margin(st.form, grid_st)
    norms = one_form_norm_sq(st.metric, st.form, grid_st.points)
    sqrt_det = grid_st.points[:, 0]  # = r on the solid torus
    bound = abs(st.k_expected) * float(np.min(norms * sqrt_det))
    assert r.min_margin >= bound - 1e-9


def test_shs_f_spread_constant_over_grid():
    grid = SampleGrid.regular(T3, 8)
    from bmkit import shs_check
    for v in (t3_mode(1, 1.0), t3_mode(3, 2.0), abc_flow(2, 1, 0.5)):
        omega = hodge_star(v.metric, v.form)
        r = shs_check(omega, v.form, grid)
        assert r.details["f_spread"] < 1e-8
        assert abs(r.details["f_mean"] - v.k_expected) < 1e-8


def test_reeb_speed_consistency_constant_norm():
    # t3-based field: g^{-1}(e, e) is constant along Y0 orbits (and x3 frozen)
    M = beltrami_maxwell(t3_mode(1, 1.0))
    x0 = math.pi / 4
    rb = reeb_for_maxwell(M, "Y0", x0)
    sl = M.at_time(x0)
    n2 = norm_sq_field(sl.metric, sl.e)
    trace = integrate(rb.Y, [0.3, 1.0, 2.2], 1e-3, 3000)
    vals = n2(trace.samples)
    assert np.max(np.abs(vals - vals[0])) < 1e-8
    assert np.max(np.abs(trace.samples[:, 2] - 2.2)) < 1e-10


def test_reeb_speed_consistency_abc_lie_residual():
    # ABC-based field: the norm varies in space, so the statement is the Lie
    # residual of e and B along Y0, not orbit constancy of the norm
    M = beltrami_maxwell(abc_flow(2, 1, 0.5))
    x0 = math.pi / 4
    rb = reeb_for_maxwell(M, "Y0", x0)
    sl = M.at_time(x0)
    grid = SampleGrid.regular(T3, 7)
    Y = fn_vector(rb.Y)
    assert lie_derivative(Y, fn_form(sl.e)).max_abs(grid.points) < 1e-6
    assert lie_derivative(Y, fn_form(sl.B)).max_abs(grid.points) < 1e-6


def test_field_line_closure_reparameterization_invariant():
    # tracing sharp(e) vs the normalized Reeb field finds the same closed
    # orbit with periods related by the constant speed ratio
    from bmkit import detect_closure
    M = beltrami_maxwell(t3_mode(1, 1.0), e0=2.0)
    x0 = 0.0
    Z = field_line_generator(M, "e", x0)          # |Z| = e0
    seed = [0.0, 0.0, 0.0]
    tr_z = integrate(Z, seed, 0.005, 1000)
    res_z = detect_closure(tr_z, 1e-6, Z)
    assert res_z.closed
    assert abs(res_z.period_estimate - 2 * math.pi / 2.0) < 1e-6
    rb = reeb_for_maxwell(M, "Y0", x0)            # |Y0| = 1 / e0
    tr_y = integrate(rb.Y, seed, 0.01, 1500)
    res_y = detect_closure(tr_y, 1e-6, rb.Y)
    assert res_y.closed
    assert abs(res_y.period_estimate - 2 * math.pi * 2.0) < 1e-6
    assert res_z.winding == res_y.winding == (1, 0, 0)
