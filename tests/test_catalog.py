"""Catalog constructors against hand-computed and closed-form oracle values."""

import math
import re

import numpy as np
import pytest

from bmkit import (CATALOG, BmkitError, ConfigError,
                   SingularFieldError, abc_flow, beltrami_maxwell, beltrami_nonparallel,
                   build_catalog_field, constant_field, euclidean_metric,
                   exterior_derivative, hodge_star, parallel_nonbeltrami,
                   solid_torus_mode, t3_mode, torus3, traveling_wave, wedge)
from bmkit import SampleGrid, maxwell_residuals, norm_sq_field, spatial_hodge
from bmkit.reeb import reeb_closed_form_beltrami
from bmkit.scalars import sin_wave, wave

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


@pytest.mark.parametrize("v", [t3_mode(1, 1.0), abc_flow(2, 1, 0.5), abc_flow(1, 1, 1),
                               solid_torus_mode(), solid_torus_mode(10.0, 1.0, "plus")],
                         ids=["t3", "abc", "abc_singular", "solid_torus", "solid_torus_k_c_10"])
def test_singularity_scan_is_the_whole_lattice_min_and_max(v):
    # the scan is one plan run over the whole lattice: its min and max, exactly
    norm_sq = norm_sq_field(v.metric, v.form)(SampleGrid.regular(v.chart, v.scan_n).points)
    assert v._norm_sq_range == (float(np.min(norm_sq)), float(np.max(norm_sq)))


@pytest.mark.parametrize("build", [lambda: t3_mode(1, 1.0), lambda: abc_flow(2, 1, 0.5),
                                   lambda: solid_torus_mode()], ids=["t3", "abc", "solid_torus"])
def test_singularity_scan_is_one_plan_run_over_the_lattice(build, monkeypatch):
    # one run on the lattice's axes: a column per axis, of scan_n coordinates along its own
    # array dimension, which broadcast to the scan_n^3 lattice (the values it computed were
    # one per lattice point when the run took the lattice's points)
    import bmkit.catalog

    runs = []

    class RecordingPlan(bmkit.catalog.Plan):
        __slots__ = ()

        def __call__(self, cols):
            runs.append([c.shape for c in cols])
            return super().__call__(cols)

    v = build()   # a fresh form: the scan runs on the first read of nonsingular
    monkeypatch.setattr(bmkit.catalog, "Plan", RecordingPlan)
    assert v.nonsingular and v.norm_margin > 0
    n = v.scan_n
    assert runs == [[(n, 1, 1), (1, n, 1), (1, 1, n)]]


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


@pytest.mark.parametrize("profile", ["sin", "cos"])
def test_profiles_build_the_nodes_of_explicit_waves(profile):
    # both builders read one sin/cos table; their coefficients are the interned nodes of
    # the explicit wave/sin_wave constructions, so the plans they compile are unchanged
    k, e0 = 2.0, 1.5
    if profile == "sin":
        prof, dprof = sin_wave({3: k}), wave({3: k}, 0.0, k)
        f, fp = sin_wave({0: 1.0, 3: 1.0}), wave({0: 1.0, 3: 1.0})
    else:
        prof, dprof = wave({3: k}), sin_wave({3: k}, 0.0, -k)
        f, fp = wave({0: 1.0, 3: 1.0}), sin_wave({0: 1.0, 3: 1.0}, 0.0, -1.0)
    f01, f02 = wave({0: k}), wave({0: k}, 0.5 * math.pi)
    M = parallel_nonbeltrami(e0=e0, k=k, f3=profile)
    amp_h = e0 / k
    assert M.e.coeffs[(1,)] is e0 * prof * f01 and M.e.coeffs[(2,)] is e0 * prof * f02
    assert M.h.coeffs[(1,)] is amp_h * dprof * f01 and M.h.coeffs[(2,)] is amp_h * dprof * f02
    N = beltrami_nonparallel(profile)
    assert N.e.coeffs[(1,)] is f and N.e.coeffs[(2,)] is fp
    assert N.h.coeffs[(1,)] is 1.0 * fp and N.h.coeffs[(2,)] is -1.0 * f


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
    # the vacuum energies (eps0/2) e ^ *3 e, (mu0/2) h ^ *3 h on spacetime, fibrewise, against
    # the media-form ones (1/2) e ^ D, (1/2) h ^ B
    M = beltrami_maxwell(t3_mode(1, 1.0))
    ee = (0.5 * M.eps0) * wedge(M.e, spatial_hodge(M.metric3, M.e))
    eh = (0.5 * M.mu0) * wedge(M.h, spatial_hodge(M.metric3, M.h))
    ee_k, eh_k = 0.5 * wedge(M.e, M.D), 0.5 * wedge(M.h, M.B)
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
    # v may be a form already built, as the docstring promises, and None is its default
    M = build_catalog_field("beltrami_maxwell", {"v": t3_mode(2)})
    assert M.k == 2.0 and M.params["v.n"] == 2
    assert beltrami_maxwell(None).params == beltrami_maxwell().params


def test_build_catalog_field_errors():
    with pytest.raises(ConfigError):
        build_catalog_field("nonexistent_field")
    with pytest.raises(ConfigError):
        build_catalog_field("t3_mode", {"bogus": 1})
    with pytest.raises(ConfigError):
        build_catalog_field("t3_mode", {"n": "many"})
    with pytest.raises(ConfigError):
        build_catalog_field("solid_torus_mode", {"sign": "up"})
    # constants comes from its own argument only, and v must build a Beltrami form
    for params, message in (
            ({"constants": "si"}, ": unknown parameter 'constants'"),
            ({"v": ("constant_field", {})}, ".v: constant_field is not a Beltrami form"),
            ({"v": 5}, ".v: expected a Beltrami form spec")):
        with pytest.raises(ConfigError, match=re.escape("beltrami_maxwell" + message)):
            build_catalog_field("beltrami_maxwell", params)


@pytest.mark.parametrize("builder,pname,bad", [
    (constant_field, "chart", "t3x"), (traveling_wave, "chart", "bogus"),
    (traveling_wave, "profile", "tan"), (solid_torus_mode, "sign", "up"),
    (parallel_nonbeltrami, "f3", "exp"), (beltrami_nonparallel, "profile", "exp"),
    (constant_field, "chart", ["t3"]),
    (t3_mode, "n", 2.5), (t3_mode, "n", "x"), (abc_flow, "A", math.nan), (abc_flow, "A", "x"),
    (solid_torus_mode, "beta", math.inf), (parallel_nonbeltrami, "k", math.nan),
], ids=lambda x: getattr(x, "__name__", x))
def test_builders_reject_unknown_choices(builder, pname, bad):
    # a library call converts its arguments as a spec does, so both raise one ConfigError
    ptype = CATALOG[builder.__name__].params[pname][0]
    expected = {"int": "an integer", "float": "a finite number"}.get(ptype, "one of")
    message = re.escape(f"{builder.__name__}.{pname}: expected {expected}")
    with pytest.raises(ConfigError, match=message) as call:
        builder(**{pname: bad})
    with pytest.raises(ConfigError) as spec:
        build_catalog_field(builder.__name__, {pname: bad})
    assert str(call.value) == str(spec.value)


def test_library_calls_convert_integral_values_exactly():
    # 2.0 is the integer 2, as in a spec; an integer above 2^53 keeps every digit
    assert type(t3_mode(n=2.0).params["n"]) is int and t3_mode(n=2.0).params["n"] == 2
    assert t3_mode(n=9007199254740993).params["n"] == 9007199254740993


def test_chart_choices_build_their_chart():
    for chart, name in (("t3", "T3"), ("r3", "R3")):
        assert constant_field(chart=chart).chart3.name == name
        assert traveling_wave(chart=chart).chart3.name == name
