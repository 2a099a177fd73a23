"""Catalog constructors against hand-computed and closed-form oracle values."""

import math

import numpy as np
import pytest

from bmkit import (CATALOG, BmkitError, ConfigError,
                   SingularFieldError, abc_flow, amplitude_closed_form,
                   amplitude_ode, beltrami_maxwell, beltrami_nonparallel,
                   build_catalog_field, constant_field, euclidean_metric,
                   exterior_derivative, hodge_star, parallel_nonbeltrami,
                   solid_torus_mode, t3_mode, torus3, traveling_wave, wedge)
from bmkit import SampleGrid, maxwell_residuals, norm_sq_field
from bmkit.reeb import reeb_closed_form_beltrami

RNG = np.random.default_rng(11)
T3 = torus3()
G3 = euclidean_metric(T3)
PTS = RNG.uniform(0, 2 * math.pi, (50, 3))


def beltrami_resid(v):
    resid = hodge_star(v.metric, exterior_derivative(v.form)) - v.k_expected * v.form
    return resid


def divergence_resid(v):
    return hodge_star(v.metric, exterior_derivative(hodge_star(v.metric, v.form)))


# -- t3_mode ---------------------------------------------------------------------


def test_t3_mode_identity_and_norm():
    v = t3_mode(1, 1.0)
    assert beltrami_resid(v).max_abs(PTS) < 1e-12
    assert np.allclose(norm_sq_field(G3, v.form)(PTS), 1.0)
    assert divergence_resid(v).max_abs(PTS) < 1e-12


def test_t3_mode_point_value():
    v = t3_mode(2, 3.0)
    p = np.array([[0.0, 0.0, math.pi / 4]])
    assert abs(float(v.form.coefficient((0,))(p)[0])) < 1e-15   # 3 cos(pi/2)
    assert np.allclose(v.form.coefficient((1,))(p), 3.0)      # 3 sin(pi/2)


def test_t3_mode_validation():
    with pytest.raises(BmkitError):
        t3_mode(0, 1.0)
    with pytest.raises(BmkitError):
        t3_mode(1, -1.0)


# -- abc_flow --------------------------------------------------------------------


def test_abc_identity_several_triples():
    for A, B, C in [(1, 1, 1), (1, 1, 0), (2, 1, 0.5)]:
        v = abc_flow(A, B, C)
        assert v.k_expected == 1.0
        assert beltrami_resid(v).max_abs(PTS) < 1e-12, (A, B, C)


def test_abc_point_values():
    v = abc_flow(1, 1, 1)
    origin = np.zeros((1, 3))
    vals = [float(v.form.coefficient((i,))(origin)[0]) for i in range(3)]
    assert np.allclose(vals, [1.0, 1.0, 1.0])
    w = abc_flow(1, 1, 0)
    vals = [float(w.form.coefficient((i,))(origin)[0]) for i in range(3)]
    assert np.allclose(vals, [0.0, 1.0, 1.0])


def test_abc_111_flagged_singular():
    # A = B = C has stagnation points (e.g. (3pi/4, 3pi/4, 3pi/4)); the scan
    # lattice contains one exactly, so the constructor flags the form
    v = abc_flow(1, 1, 1)
    assert not v.nonsingular
    with pytest.raises(SingularFieldError):
        reeb_closed_form_beltrami(v)


def test_abc_210_5_nonsingular():
    v = abc_flow(2, 1, 0.5)
    assert v.nonsingular and v.norm_margin > 0.5


@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_singularity_decision_does_not_change_with_amplitude(scale):
    # t3_mode{c=1e-5} has constant |v|^2 = 1e-10: small, but nowhere zero
    for v in (t3_mode(1, scale), abc_flow(2 * scale, scale, 0.5 * scale)):
        assert v.nonsingular
        beltrami_maxwell(v)
    assert not abc_flow(scale, scale, scale).nonsingular


def test_abc_all_zero_rejected():
    with pytest.raises(BmkitError):
        abc_flow(0, 0, 0)


# -- solid torus -------------------------------------------------------------------


@pytest.mark.parametrize("sign,expected_sign", [("minus", -1.0), ("plus", 1.0)])
def test_solid_torus_identity(sign, expected_sign):
    v = solid_torus_mode(2.0, 1.0, sign)
    k = math.sqrt(1.0 + 4.0)
    assert math.isclose(v.k_expected, expected_sign * k)
    grid = SampleGrid.regular(v.chart, 20)
    assert beltrami_resid(v).max_abs(grid.points) < 1e-7
    assert divergence_resid(v).max_abs(grid.points) < 1e-8


def test_solid_torus_rejects_bad_params():
    with pytest.raises(BmkitError):
        solid_torus_mode(-1.0, 1.0)
    with pytest.raises(BmkitError):
        solid_torus_mode(2.0, 1.0, sign="sideways")


# -- beltrami_maxwell ----------------------------------------------------------------


def test_beltrami_maxwell_amplitudes():
    M = beltrami_maxwell(t3_mode(1, 1.0), e0=2.0)
    assert M.k == 1.0
    sl0 = M.at_time(0.0)
    # at x0 = 0: h = 0 and e = e0 v
    assert sl0.h.max_abs(PTS) < 1e-15
    x3 = PTS[:, 2]
    assert np.allclose(sl0.e.coefficient((0,))(PTS), 2.0 * np.cos(x3))


def test_beltrami_maxwell_f0_wedge_f0_coefficient():
    # F0 ^ F0 = 2 e0^2 sin(kx0) cos(kx0) v ^ *3 v ^ dx0; on the canonical
    # (0,1,2,3) ordering that is -e0^2 c^2 at k x0 = pi/4
    M = beltrami_maxwell(t3_mode(1, 1.0), e0=1.0)
    ff = wedge(M.F0, M.F0)
    pts4 = np.concatenate([np.full((10, 1), math.pi / 4),
                           RNG.uniform(0, 2 * math.pi, (10, 3))], axis=1)
    assert np.allclose(ff.coefficient((0, 1, 2, 3))(pts4), -1.0, atol=1e-12)


def test_beltrami_maxwell_accepts_positive_k_forms():
    # abc_flow has *3 dv = +v, i.e. k = -1 in this parameterization
    M = beltrami_maxwell(abc_flow(2, 1, 0.5))
    assert M.k == -1.0
    grid4 = SampleGrid.regular(M.chart3, 6).with_time(M.chart4, [0.2, 1.4])
    assert maxwell_residuals(M, grid4).passed


def test_beltrami_maxwell_rejects_singular_base():
    with pytest.raises(SingularFieldError):
        beltrami_maxwell(abc_flow(1, 1, 1))


def test_beltrami_maxwell_parallel():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    pts4 = RNG.uniform(0, 2 * math.pi, (40, 4))
    assert M.poynting().max_abs(pts4) < 1e-15


# -- traveling wave -------------------------------------------------------------------


def test_traveling_wave_not_symplectic_exactly():
    M = traveling_wave()
    ff0 = wedge(M.F0, M.F0)
    ff1 = wedge(M.F1, M.F1)
    assert not ff0.coeffs and not ff1.coeffs  # structurally zero


def test_traveling_wave_poynting_value():
    # e ^ h = f^2 / (c0 mu0) dx1^dx2; at x3 - x0 = pi/2 with f = sin that is 1
    M = traveling_wave()
    p = np.array([[0.0, 0.3, 0.7, math.pi / 2]])
    assert np.allclose(M.poynting().coefficient((1, 2))(p), 1.0)


# -- constant field -------------------------------------------------------------------


def test_constant_field_exact_maxwell_and_no_contact():
    M = constant_field(1.0, 1.0)
    grid4 = SampleGrid.regular(M.chart3, 4).with_time(M.chart4, [0.0, 1.0])
    r = maxwell_residuals(M, grid4)
    assert r.max_residual == 0.0
    # e ^ de is structurally zero
    sl = M.at_time(0.0)
    de = exterior_derivative(sl.e)
    assert not de.coeffs
    assert not wedge(sl.e, de).coeffs


def test_constant_field_symplectic_margin_positive():
    # F0 ^ F0 = 2 c0 mu0 e0 h0 (up to sign) for the uniform field
    M = constant_field(1.0, 1.0)
    ff = wedge(M.F0, M.F0)
    p = np.zeros((1, 4))
    assert np.allclose(np.abs(ff.coefficient((0, 1, 2, 3))(p)), 2.0)


# -- parallel non-Beltrami ------------------------------------------------------------


def test_parallel_nonbeltrami_is_parallel_and_maxwell():
    M = parallel_nonbeltrami(e0=1.0, k=1.0)
    pts4 = RNG.uniform(0, 2 * math.pi, (60, 4))
    assert M.poynting().max_abs(pts4) < 1e-15
    grid4 = SampleGrid.regular(M.chart3, 6).with_time(M.chart4, [0.0, 0.7, 2.1])
    assert maxwell_residuals(M, grid4).max_residual < 1e-8


def test_parallel_nonbeltrami_beltrami_witness():
    # no constant f makes *3 d(e) - f e small: least-squares f leaves a
    # residual bounded away from zero
    M = parallel_nonbeltrami(e0=1.0, k=1.0)
    sl = M.at_time(0.0)
    lam = sl.e
    star_d = hodge_star(sl.metric, exterior_derivative(lam))
    pts = SampleGrid.regular(sl.chart, 9).points
    a = star_d.coefficient_table(pts).ravel()
    b = lam.coefficient_table(pts).ravel()
    f_best = float(a @ b / (b @ b))
    resid = np.max(np.abs(a - f_best * b))
    assert resid > 0.5


# -- Beltrami non-parallel ------------------------------------------------------------


def test_beltrami_nonparallel_profiles_are_beltrami():
    M = beltrami_nonparallel()
    sl = M.at_time(0.4)
    for lam, k in ((sl.e, 1.0), (sl.h, 1.0)):
        resid = hodge_star(sl.metric, exterior_derivative(lam)) - k * lam
        assert resid.max_abs(PTS) < 1e-10


def test_beltrami_nonparallel_poynting_never_zero():
    # e ^ h = -(f^2 + f'^2) dx1^dx2 / (c0 mu0) = -1 for f = sin
    M = beltrami_nonparallel()
    pts4 = RNG.uniform(0, 2 * math.pi, (60, 4))
    vals = M.poynting().coefficient((1, 2))(pts4)
    assert np.allclose(vals, -1.0, atol=1e-12)
    origin = np.zeros((1, 4))
    assert np.allclose(M.poynting().coefficient((1, 2))(origin), -1.0)


def test_beltrami_nonparallel_is_maxwell():
    M = beltrami_nonparallel()
    grid4 = SampleGrid.regular(M.chart3, 6).with_time(M.chart4, [0.0, 0.9, 1.7])
    assert maxwell_residuals(M, grid4).max_residual < 1e-8


# -- constitutive invariants -----------------------------------------------------------


def test_catalog_constitutive_by_construction():
    from bmkit import constitutive_residuals
    for M in (beltrami_maxwell(t3_mode(1, 1.0)), traveling_wave(),
              constant_field(), parallel_nonbeltrami(), beltrami_nonparallel()):
        grid4 = SampleGrid.regular(M.chart3, 5).with_time(M.chart4, [0.3, 1.1])
        r = constitutive_residuals(M, grid4)
        assert r.max_residual < 1e-12, M.name
        assert r.details["F1_plus_eps0_star_F0"] < 1e-10, M.name


def test_energy_forms_vacuo_identity():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    ee, eh = M.energy_forms()
    ee_k, eh_k = M.energy_forms_kappa()
    pts4 = RNG.uniform(0, 2 * math.pi, (40, 4))
    assert (ee - ee_k).max_abs(pts4) < 1e-12
    assert (eh - eh_k).max_abs(pts4) < 1e-12
    # coefficient value: (eps0/2) e0^2 cos^2(k x0) c^2
    p = np.concatenate([np.full((5, 1), math.pi / 4),
                        RNG.uniform(0, 2 * math.pi, (5, 3))], axis=1)
    assert np.allclose(ee.coefficient((1, 2, 3))(p), 0.25, atol=1e-12)
    sl0 = M.at_time(0.0)
    _, eh0 = sl0.energy_forms()
    assert eh0.max_abs(PTS) < 1e-30


# -- amplitude dynamics -----------------------------------------------------------------


def test_amplitude_ode_matches_closed_form():
    k, eps0, mu0 = 1.0, 1.0, 1.0
    grid = np.linspace(0.0, 2 * math.pi, 41)
    pairs = amplitude_ode(k, eps0, mu0, 1.0, 0.0, grid)
    sol = amplitude_closed_form(k, eps0, mu0, 1.0, 0.0)
    for p in pairs:
        q = sol(p.x0)
        assert abs(p.f_e - q.f_e) < 1e-10
        assert abs(p.f_h - q.f_h) < 1e-10
        # with eps0 = mu0 = 1 and f_h0 = 0: f_e = cos(k x0), f_h = -sin(k x0)
        assert abs(q.f_e - math.cos(k * p.x0)) < 1e-14
        assert abs(q.f_h + math.sin(k * p.x0)) < 1e-14


def test_amplitude_invariant_drift():
    pairs = amplitude_ode(2.0, 3.0, 0.5, 1.0, 0.7, np.linspace(0, math.pi, 64))
    e0 = pairs[0].energy(3.0, 0.5)
    drift = max(abs(p.energy(3.0, 0.5) - e0) for p in pairs)
    assert drift < 1e-10


def test_amplitude_sign_flip_symmetry():
    grid = np.linspace(0.0, 3.0, 20)
    plus = amplitude_ode(1.5, 2.0, 1.0, 0.8, 0.3, grid)
    minus = amplitude_ode(-1.5, 2.0, 1.0, 0.8, -0.3, grid)
    for p, m in zip(plus, minus):
        assert abs(p.f_e - m.f_e) < 1e-12
        assert abs(p.f_h + m.f_h) < 1e-12


def _amplitude_ode_reference(k, eps0, mu0, f_e0, f_h0, grid):
    """(f_e, f_h) at each x0 of grid: RK4 in ceil(|span| / h_max) equal sub-steps per span."""
    from bmkit.forms import _rk4_step

    def rhs(y):
        return np.array([(k / eps0) * y[1], -(k / mu0) * y[0]])

    h_max = (2.0 * math.pi / (abs(k) / math.sqrt(eps0 * mu0))) / 1024.0
    y = np.array([f_e0, f_h0], dtype=float)
    out = [(y[0], y[1], grid[0])]
    for x, target in zip(grid, grid[1:]):
        span = target - x
        n = max(1, int(math.ceil(abs(span) / h_max)))
        for _ in range(n):
            y = _rk4_step(rhs, y, span / n)
        out.append((float(y[0]), float(y[1]), target))
    return out


@pytest.mark.parametrize("k, eps0, mu0, f_e0, f_h0, x_unit", [
    (1.0, 1.0, 1.0, 1.0, 0.0, 1.0),
    (-1.5, 2.0, 1.0, 0.8, -0.3, 1.0),
    (3.0, 8.8541878128e-12, 1.25663706212e-6, 0.2, 1e-4, 1e-9),   # SI: period ~2e-9
])
def test_amplitude_ode_matches_sub_step_reference_bitwise(k, eps0, mu0, f_e0, f_h0, x_unit):
    grid = [x * x_unit for x in (0.0, 1e-3, 0.1, 0.35, 1.0, 2.5, 2.5001, 7.0)]
    got = [(p.f_e, p.f_h, p.x0) for p in amplitude_ode(k, eps0, mu0, f_e0, f_h0, grid)]
    assert got == _amplitude_ode_reference(k, eps0, mu0, f_e0, f_h0, grid)


def test_amplitude_ode_validation():
    with pytest.raises(BmkitError):
        amplitude_ode(0.0, 1.0, 1.0, 1.0, 0.0, [0.0, 1.0])
    with pytest.raises(BmkitError):
        amplitude_ode(1.0, 1.0, 1.0, 1.0, 0.0, [])


# -- registry -----------------------------------------------------------------------------


def test_catalog_has_all_entries():
    assert len(CATALOG) >= 8
    for name in ("t3_mode", "abc_flow", "solid_torus_mode", "beltrami_maxwell",
                 "traveling_wave", "constant_field", "parallel_nonbeltrami",
                 "beltrami_nonparallel"):
        assert name in CATALOG
        assert CATALOG[name].identity


def test_build_catalog_field_nested():
    M = build_catalog_field("beltrami_maxwell",
                            {"v": ("t3_mode", {"n": 2, "c": 1.0}), "e0": 1.5})
    assert M.k == 2.0
    assert M.params["v.n"] == 2


def test_build_catalog_field_errors():
    with pytest.raises(ConfigError):
        build_catalog_field("nonexistent_field")
    with pytest.raises(ConfigError):
        build_catalog_field("t3_mode", {"bogus": 1})
    with pytest.raises(ConfigError):
        build_catalog_field("t3_mode", {"n": "many"})
    with pytest.raises(ConfigError):
        build_catalog_field("solid_torus_mode", {"sign": "up"})
