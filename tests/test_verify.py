"""Structure verifiers: residuals, margins, degenerate instants, reports."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bmkit import (SampleGrid, abc_flow, beltrami_maxwell, beltrami_nonparallel,
                   beltrami_residual, constant_field, conservation_along,
                   constitutive_residuals, contact_margin, dx, euclidean_metric,
                   maxwell_from_eh, maxwell_residuals, parallel_check,
                   parallel_nonbeltrami, shs_check, solid_torus_mode,
                   symplectic_margin, t3_mode, torus3, traveling_wave, vector_field, wedge)
from bmkit import (NONDIMENSIONAL, SI, DegenerateInstantError, DegeneratePointError,
                   hodge_star, make_form)
from bmkit.reeb import reeb_for_maxwell
from bmkit.scalars import columns, constant, wave

T3 = torus3()
G3 = euclidean_metric(T3)
GRID3 = SampleGrid.regular(T3, 8)


def grid4_for(M, x0_values):
    return SampleGrid.regular(M.chart3, 7).with_time(M.chart4, x0_values)


# -- beltrami_residual ------------------------------------------------------------


def test_beltrami_residual_passes_catalog():
    v = t3_mode(1, 1.0)
    r = beltrami_residual(v.form, -1.0, G3, GRID3)
    assert r.passed and r.max_residual < 1e-12
    assert r.details["divergence_residual"] < 1e-12


def test_beltrami_residual_wrong_sign_fails():
    # with the wrong sign the residual is |(-1 - (+1))| * |v| = 2 max|v| = 2
    v = t3_mode(1, 1.0)
    r = beltrami_residual(v.form, +1.0, G3, GRID3)
    assert not r.passed
    assert abs(r.max_residual - 2.0) < 1e-12


def test_beltrami_residual_tiny_wrong_sign_fails():
    # the residual 2 max|v| is measured against tol * |k| max|v|, so shrinking v
    # to round-off size does not turn the wrong sign into a PASS
    v = t3_mode(1, 1.0)
    for scale in (1.0, 1e-12):
        r = beltrami_residual(scale * v.form, +1.0, G3, GRID3)
        assert not r.passed
        assert r.details["scale"] == pytest.approx(scale)
        assert r.max_residual > r.tolerance["residual"] * r.details["scale"]
    assert beltrami_residual(1e-12 * v.form, -1.0, G3, GRID3).passed


# -- maxwell_residuals ------------------------------------------------------------


def test_maxwell_residuals_catalog_pass():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    r = maxwell_residuals(M, grid4_for(M, np.linspace(0, 2 * math.pi, 8)))
    assert r.passed
    assert r.max_residual < 1e-12
    assert r.details["decomposed_vs_4d"] < 1e-12
    assert set(r.details["parts"]) == {"faraday", "gauss_magnetic",
                                       "gauss_electric", "ampere", "dF0", "dF1"}


def test_maxwell_residuals_detect_broken_field():
    # doubling D breaks Ampere and electric Gauss but the decomposed and 4-d
    # views must still agree with each other
    M = beltrami_maxwell(t3_mode(1, 1.0))
    broken = doubled_d(M)
    r = maxwell_residuals(broken, grid4_for(M, [0.4, 1.1]))
    assert not r.passed
    assert r.max_residual > 0.1
    assert r.details["decomposed_vs_4d"] < 1e-12


def doubled_d(M):
    """M with D doubled, and F1 rebuilt from it so that dF1 still splits into the pieces."""
    return replace(M, D=2.0 * M.D, F1=2.0 * M.D - (1.0 / M.c0) * wedge(M.h, dx(M.chart4, 0)))


def test_tiny_doubled_d_fails_maxwell_and_constitutive():
    # doubling D breaks Ampere, electric Gauss and D = eps0 *3 e at any amplitude;
    # at e0 = 1e-12 every residual is below the tolerance in absolute terms
    for e0 in (1.0, 1e-12):
        broken = doubled_d(beltrami_maxwell(t3_mode(1, 1.0), e0=e0))
        grid = grid4_for(broken, [0.4, 1.1])
        r = maxwell_residuals(broken, grid)
        assert not r.passed
        assert r.details["parts"]["ampere"] > 0.1 * e0
        assert (r.details["parts"]["ampere"]
                > r.tolerance["residual"] * r.details["scales"]["ampere"])
        c = constitutive_residuals(broken, grid)
        assert not c.passed
        assert (c.details["D_vs_star_e"]
                > c.tolerance["residual"] * c.details["scales"]["D_vs_star_e"])


def test_maxwell_and_constitutive_scales_from_amplitudes():
    M = beltrami_maxwell(t3_mode(1, 1.0), e0=3.0, constants=SI)
    grid = grid4_for(M, [0.4, 1.1])
    amp = {n: getattr(M, n).max_abs(grid.points) for n in "ehBD"}
    r = maxwell_residuals(M, grid)
    assert r.passed
    # max|F0| and max|F1| from the four amplitudes, with no second pass
    assert r.details["scales"]["dF0"] == M.F0.max_abs(grid.points)
    assert r.details["scales"]["dF1"] == M.F1.max_abs(grid.points)
    assert r.details["scales"]["gauss_electric"] == amp["D"]
    c = constitutive_residuals(M, grid)
    assert c.passed
    assert c.details["scales"] == {"D_vs_star_e": amp["D"], "B_vs_star_h": amp["B"],
                                   "F1_plus_eps0_star_F0": r.details["scales"]["dF1"]}


def window_decisions(M, grid4):
    """Decisions of the checks that `bmk verify` runs on the whole spacetime window."""
    reports = [maxwell_residuals(M, grid4), constitutive_residuals(M, grid4),
               parallel_check(M, grid4),
               symplectic_margin(M.F0, grid4, companion=(M.B, M.e), label="F0"),
               symplectic_margin(M.F1, grid4, companion=(M.D, M.h), label="F1")]
    return {r.check: r.passed for r in reports}


@settings(max_examples=25, deadline=None)
@given(log_e0=st.floats(min_value=-8.0, max_value=8.0),
       constants=st.sampled_from([NONDIMENSIONAL, SI]))
def test_window_decisions_do_not_change_with_amplitude_or_units(log_e0, constants):
    # the identities hold and F0, F1 are symplectic on a window clear of
    # sin(2 k x0) = 0, whatever the amplitude and the units
    for base in (t3_mode(1, 1.0), solid_torus_mode()):
        M = beltrami_maxwell(base, e0=10.0 ** log_e0, constants=constants)
        grid = SampleGrid.regular(M.chart3, 5).with_time(
            M.chart4, [theta / M.k for theta in (0.35, 0.6, 0.85)])
        assert window_decisions(M, grid) == {
            "maxwell": True, "constitutive": True, "parallel": True,
            "symplectic_F0": True, "symplectic_F1": True}


def eh_decisions(M, thetas, counts=5):
    """Decisions of `bmk verify`'s constitutive, parallel, contact, shs and conservation
    checks at the instants x0 = theta / k, with the window amplitudes as zero scales."""
    grid3 = SampleGrid.regular(M.chart3, counts)
    x0s = [theta / M.k for theta in thetas]
    grid4 = grid3.with_time(M.chart4, x0s)
    amp = {n: getattr(M, n).max_abs(grid4.points) for n in "ehBD"}
    out = {"constitutive": constitutive_residuals(M, grid4).passed,
           "parallel": parallel_check(M, grid4).passed}
    for theta, x0 in zip(thetas, x0s):
        sl = M.at_time(x0)
        out[f"contact_e@{theta}"] = contact_margin(sl.e, grid3, zero_scale=amp["e"]).passed
        out[f"contact_h@{theta}"] = contact_margin(sl.h, grid3, zero_scale=amp["h"]).passed
        out[f"shs_be@{theta}"] = shs_check(sl.B, sl.e, grid3,
                                           zero_scales=(amp["B"], amp["e"])).passed
        out[f"shs_dh@{theta}"] = shs_check(sl.D, sl.h, grid3,
                                           zero_scales=(amp["D"], amp["h"])).passed
        for which, decision in conservation_decisions(M, x0, grid3, grid4).items():
            out[f"conservation_{which.lower()}@{theta}"] = decision
    return out


EH_BASES = {"t3_mode": t3_mode(1, 1.0), "abc_flow": abc_flow(2, 1, 0.5),
            "solid_torus_mode": solid_torus_mode()}
EH_THETAS = (0.25 * math.pi, 0.0, 0.5 * math.pi, 0.375 * math.pi)


@settings(max_examples=20, deadline=None)
@example(base="t3_mode", log_a=8.0, log_b=-8.0, constants=NONDIMENSIONAL)
@given(base=st.sampled_from(sorted(EH_BASES)),
       log_a=st.floats(min_value=-8.0, max_value=8.0),
       log_b=st.floats(min_value=-8.0, max_value=8.0),
       constants=st.sampled_from([NONDIMENSIONAL, SI]))
def test_eh_decisions_do_not_change_when_e_and_h_scale_independently(base, log_a, log_b,
                                                                     constants):
    # each of these checks compares a residual with a scale built from the same
    # fields, so a e and b h decide as e and h do: h = 0 at k x0 = 0 and e = 0
    # at k x0 = pi/2 fail the slice checks that read them, and skip conservation along
    # the Reeb field they define, whatever a and b
    M = beltrami_maxwell(EH_BASES[base], constants=constants)
    want = eh_decisions(M, EH_THETAS)
    zero, half_pi = EH_THETAS[1], EH_THETAS[2]
    assert {name for name, d in want.items() if d in (False, "SKIP")} == {
        f"contact_h@{zero}", f"shs_be@{zero}", f"shs_dh@{zero}", f"conservation_y1@{zero}",
        f"contact_e@{half_pi}", f"shs_be@{half_pi}", f"shs_dh@{half_pi}",
        f"conservation_y0@{half_pi}"}
    assert {name for name, d in want.items() if d == "SKIP"} == {
        f"conservation_y1@{zero}", f"conservation_y0@{half_pi}"}
    scaled = maxwell_from_eh(M.name, M.params, M.metric3, 10.0 ** log_a * M.e,
                             10.0 ** log_b * M.h, M.constants, k=M.k)
    assert (scaled.chart3, scaled.chart4) == (M.chart3, M.chart4)
    assert eh_decisions(scaled, EH_THETAS) == want


def test_constitutive_scaled_d_fails():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    broken = replace(M, D=2.0 * M.D)
    r = constitutive_residuals(broken, grid4_for(M, [0.4]))
    assert not r.passed
    # residual equals eps0 * max|star3 e| = max|cos(k x0)| at x0 = 0.4
    assert abs(r.max_residual - math.cos(0.4)) < 1e-12


# -- contact and shs ---------------------------------------------------------------


def test_contact_margin_beltrami_slice():
    M = beltrami_maxwell(t3_mode(1, 1.0), e0=2.0)
    sl = M.at_time(0.0)
    r = contact_margin(sl.e, GRID3)
    assert r.passed
    # margin = e0^2 |k| c^2 = 4
    assert abs(r.min_margin - 4.0) < 1e-12


def test_contact_margin_scaling_covariance():
    v = t3_mode(1, 1.0)
    base = contact_margin(v.form, GRID3)
    scaled = contact_margin(3.0 * v.form, GRID3)
    assert math.isclose(scaled.min_margin, 9.0 * base.min_margin, rel_tol=1e-12)
    assert base.passed == scaled.passed
    tiny = contact_margin(1e-20 * v.form, GRID3)
    assert tiny.passed  # scale-invariant without a zero_scale reference


def test_contact_margin_zero_scale_guard():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    sl = M.at_time(0.5 * math.pi)  # e = cos(pi/2) v: numerically zero
    scale = M.e.max_abs(grid4_for(M, np.linspace(0, 6, 7)).points)
    r = contact_margin(sl.e, GRID3, zero_scale=scale)
    assert not r.passed
    assert r.min_margin == 0.0
    assert r.details["degenerate_zero_form"] is True


def test_constant_field_contact_fails_exactly():
    sl = constant_field().at_time(0.0)
    grid = SampleGrid.regular(sl.chart, 5)
    r = contact_margin(sl.e, grid)
    assert not r.passed
    assert r.min_margin == 0.0


def test_shs_beltrami_pair_f_equals_k():
    # d lambda = f Omega with f = k for the pair (star3 v, v)
    for v, k in ((t3_mode(1, 1.0), -1.0), (t3_mode(2, 1.5), -2.0)):
        omega = hodge_star(v.metric, v.form)
        r = shs_check(omega, v.form, GRID3)
        assert r.passed
        assert abs(r.details["f_mean"] - k) < 1e-10
        assert r.details["f_spread"] < 1e-8


def test_shs_maxwell_proportionality_factors():
    # f_B = -c0 k / tan(k x0) and f_D = -c0 k tan(k x0)
    M = beltrami_maxwell(t3_mode(1, 1.0))
    for x0 in (math.pi / 4, 0.6, 1.1):
        sl = M.at_time(x0)
        r_be = shs_check(sl.B, sl.e, GRID3)
        r_dh = shs_check(sl.D, sl.h, GRID3)
        assert r_be.passed and r_dh.passed
        assert abs(r_be.details["f_mean"] + 1.0 / math.tan(x0)) < 1e-6
        assert abs(r_dh.details["f_mean"] + math.tan(x0)) < 1e-6


def test_shs_degenerate_instants_fail():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    scales = {n: f.max_abs(grid4_for(M, np.linspace(0, 6, 7)).points)
              for n, f in (("e", M.e), ("h", M.h), ("B", M.B), ("D", M.D))}
    for x0 in (0.0, 0.5 * math.pi):
        sl = M.at_time(x0)
        r_be = shs_check(sl.B, sl.e, GRID3, zero_scales=(scales["B"], scales["e"]))
        r_dh = shs_check(sl.D, sl.h, GRID3, zero_scales=(scales["D"], scales["h"]))
        assert not r_be.passed
        assert not r_dh.passed
        assert r_be.min_margin == 0.0


def test_shs_flags_illposed_points():
    # Omega vanishing somewhere makes the f estimate ill-posed there
    from bmkit import sin_wave
    omega = make_form(T3, 2, {(0, 1): sin_wave({2: 1})})
    lam = make_form(T3, 1, {(2,): constant(1.0)})
    r = shs_check(omega, lam, GRID3)
    assert r.details["n_illposed"] > 0
    assert not r.passed


def test_shs_tiny_pair_without_proportionality_fails():
    # d lambda is not proportional to Omega; with no floor on the scale,
    # shrinking lambda does not turn that into a PASS
    v = t3_mode(1, 1.0)
    omega = hodge_star(v.metric, v.form)
    lam = v.form + make_form(T3, 1, {(2,): wave({0: 1}, amplitude=0.3)})
    for scale in (1.0, 1e-6, 1e-12):
        r = shs_check(omega, scale * lam, GRID3)
        assert not r.passed
        assert (r.details["proportionality_residual"]
                > r.tolerance["residual"] * r.details["proportionality_scale"])


@pytest.mark.parametrize("e0", [1e-8, 1.0, 5e6, 1e8])
def test_shs_bessel_maxwell_any_amplitude(e0):
    # the pairs (B, e) and (D, h) of a Bessel mode are stable Hamiltonian at every
    # amplitude; both residuals are measured against the pair's own scales
    M = beltrami_maxwell(solid_torus_mode(), e0=e0)
    grid3 = SampleGrid.regular(M.chart3, 10)
    x0 = 0.3512407365520363
    sl = M.at_time(x0)
    for omega, lam in ((sl.B, sl.e), (sl.D, sl.h)):
        r = shs_check(omega, lam, grid3)
        assert r.passed
        assert (r.details["closure_residual"]
                <= r.tolerance["residual"] * r.details["closure_scale"])
        assert r.details["closure_scale"] == omega.max_abs(grid3.points)
        assert r.details["proportionality_scale"] > 0.0


# -- symplectic ----------------------------------------------------------------------


def test_symplectic_traveling_wave_margin_zero():
    M = traveling_wave()
    r = symplectic_margin(M.F0, grid4_for(M, [0.3, 1.2]), label="F0")
    assert not r.passed
    assert r.min_margin == 0.0


def test_symplectic_beltrami_maxwell_positive():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    # window strictly inside (0, pi/2): sin cos never vanishes
    grid = grid4_for(M, np.linspace(0.3, 1.2, 5))
    r0 = symplectic_margin(M.F0, grid, companion=(M.B, M.e), label="F0")
    r1 = symplectic_margin(M.F1, grid, companion=(M.D, M.h), label="F1")
    assert r0.passed and r1.passed
    assert r0.details["companion_margin"] > 0
    # margin drops to ~0 when the grid contains sin(k x0) cos(k x0) = 0
    bad = symplectic_margin(M.F0, grid4_for(M, [0.0, 0.4]), label="F0")
    assert not bad.passed


def test_symplectic_constant_field():
    M = constant_field(1.0, 1.0)
    r = symplectic_margin(M.F0, grid4_for(M, [0.0, 1.0]), companion=(M.B, M.e))
    assert r.passed
    assert abs(r.min_margin - 2.0) < 1e-12


def test_symplectic_tiny_nonclosed_form_fails():
    # F = F0 of the constant field plus 0.3 cos(x1) dx2 ^ dx3 is nondegenerate but
    # not closed; its closure residual is measured against tol * max|F|
    M = constant_field(1.0, 1.0)
    F = M.F0 + make_form(M.chart4, 2, {(2, 3): wave({1: 1}, amplitude=0.3)})
    grid = grid4_for(M, [0.0, 1.0])
    for scale in (1.0, 1e-12):
        r = symplectic_margin(scale * F, grid)
        assert not r.passed
        assert r.details["normalized_margin"] > 0.1
        assert r.details["closure_scale"] == pytest.approx(1.3 * scale)
        assert r.max_residual > r.tolerance["residual"] * r.details["closure_scale"]


# -- parallel / energies ----------------------------------------------------------------


def test_parallel_check_results():
    grid = grid4_for(beltrami_maxwell(t3_mode(1, 1.0)), [0.2, 0.9])
    assert parallel_check(beltrami_maxwell(t3_mode(1, 1.0)), grid).passed
    assert parallel_check(parallel_nonbeltrami(), grid).passed
    assert parallel_check(constant_field(),
                          grid4_for(constant_field(), [0.0])).passed
    from bmkit import beltrami_nonparallel
    r = parallel_check(beltrami_nonparallel(), grid)
    assert not r.passed
    assert abs(r.max_residual - 1.0) < 1e-12


def test_parallel_check_tiny_nonparallel_fails():
    # the Poynting residual is measured against max|e| * max|h| with no floor,
    # so scaling e and h down does not turn a non-parallel pair into a PASS
    M = beltrami_nonparallel()
    tiny = maxwell_from_eh(M.name, M.params, M.metric3, 1e-6 * M.e, 1e-6 * M.h,
                           M.constants)
    assert (tiny.chart3, tiny.chart4) == (M.chart3, M.chart4)
    grid = grid4_for(M, [0.2, 0.9])
    for field_set in (M, tiny):
        r = parallel_check(field_set, grid)
        assert not r.passed
        assert r.max_residual > r.tolerance["residual"] * r.details["scale"]


@pytest.mark.parametrize("e0", [1e-8, 1.0, 1e8])
def test_parallel_check_beltrami_maxwell_any_amplitude(e0):
    M = beltrami_maxwell(t3_mode(1, 1.0), e0=e0)
    r = parallel_check(M, grid4_for(M, [0.2, 0.9]))
    assert r.passed
    assert 0.5 * e0 * e0 < r.details["scale"] <= e0 * e0   # max|e| * max|h|, no floor


# -- conservation -------------------------------------------------------------------------


def test_conservation_along_reeb_fields():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    x0 = math.pi / 4
    sl = M.at_time(x0)
    ee, eh = sl.energy_forms()
    y0 = reeb_for_maxwell(M, "Y0", x0)
    r0 = conservation_along(y0.Y, [sl.e, sl.B, ee, eh], GRID3,
                            ["e", "B", "E_e", "E_h"])
    assert r0.passed and r0.max_residual < 1e-6
    y1 = reeb_for_maxwell(M, "Y1", x0)
    r1 = conservation_along(y1.Y, [sl.h, sl.D, ee, eh], GRID3,
                            ["h", "D", "E_e", "E_h"])
    assert r1.passed and r1.max_residual < 1e-6


def conservation_decisions(M, x0, grid, window=None):
    """PASS / FAIL / SKIP of conservation along Y0 and Y1, as `bmk verify` decides them
    with the time window `window` (by default the verify default around x0)."""
    sl = M.at_time(x0)
    ee, eh = sl.energy_forms()
    out = {}
    for which, forms in (("Y0", [sl.e, sl.B, ee, eh]), ("Y1", [sl.h, sl.D, ee, eh])):
        try:
            rb = reeb_for_maxwell(M, which, x0, grid, window)
        except DegenerateInstantError:
            out[which] = "SKIP"
            continue
        except DegeneratePointError:   # the pair has no Reeb field
            out[which] = "FAIL"
            continue
        r = conservation_along(rb.Y, forms, grid)
        tol, scales = r.tolerance["residual"], r.details["scales"]
        assert r.details["mode"] == "analytic" and tol == 1e-10
        assert r.passed == all(res <= tol * scales[name]
                               for name, res in r.details["per_form"].items())
        out[which] = "PASS" if r.passed else "FAIL"
    return out


@pytest.mark.parametrize("constants", [NONDIMENSIONAL, SI], ids=["nondim", "si"])
@pytest.mark.parametrize("e0", [1e-8, 1.0, 1e8])
def test_conservation_decisions_any_amplitude_and_units(e0, constants):
    # Beltrami-Maxwell fields conserve e, B (h, D) and both energies along Y0 (Y1)
    # at every amplitude and in both unit systems
    bm = beltrami_maxwell(t3_mode(1, 1.0), e0=e0, constants=constants)
    assert conservation_decisions(bm, 0.25 * math.pi, GRID3) == {"Y0": "PASS", "Y1": "PASS"}
    st = beltrami_maxwell(solid_torus_mode(), e0=e0, constants=constants)
    x0 = 0.3512407365520363
    assert conservation_decisions(st, x0, SampleGrid.regular(st.chart3, 6)) == \
        {"Y0": "PASS", "Y1": "PASS"}
    # at cos(k x0) = 0 the field e vanishes: Y0 is undefined and skipped
    assert conservation_decisions(bm, 0.5 * math.pi, GRID3) == {"Y0": "SKIP", "Y1": "PASS"}
    # the non-Beltrami parallel field decides as it does at e0 = 1 in nondimensional
    # units: e = e0 sin(x3) w vanishes on the plane x3 = 0 (at points, not at the
    # instant), and neither e nor h is conserved
    grid = SampleGrid.regular(T3, 10)
    for x0 in (0.0, 0.25 * math.pi, 1.0):
        reference = conservation_decisions(parallel_nonbeltrami(), x0, grid)
        assert reference == {"Y0": "FAIL", "Y1": "FAIL"}
        assert conservation_decisions(parallel_nonbeltrami(e0, constants=constants), x0,
                                      grid) == reference


@pytest.mark.parametrize("constants", [NONDIMENSIONAL, SI], ids=["nondim", "si"])
@pytest.mark.parametrize("e0", [1e-8, 1.0, 1e8])
def test_conservation_fails_where_the_pair_has_no_reeb_field(e0, constants):
    # e and B (h and D) of the circularly polarized wave are orthogonal at every point:
    # lambda . Omega# = 0, so neither pair has a Reeb field, at any amplitude and in
    # both unit systems (sharp(lambda) / |lambda|^2, no Reeb field here, conserves both)
    M = beltrami_nonparallel(constants=constants)
    M = maxwell_from_eh(M.name, M.params, M.metric3, e0 * M.e, e0 * M.h, constants)
    for x0 in (0.0, 0.3, 0.25 * math.pi):
        assert conservation_decisions(M, x0, GRID3) == {"Y0": "FAIL", "Y1": "FAIL"}


def test_conservation_zero_field_exact():
    from bmkit import vector_field
    M = beltrami_maxwell(t3_mode(1, 1.0))
    sl = M.at_time(0.3)
    zero = vector_field(T3, {})
    r = conservation_along(zero, [sl.e, sl.B], GRID3, ["e", "B"])
    assert r.max_residual == 0.0


# -- report schema --------------------------------------------------------------------------


def test_check_report_json_schema():
    v = t3_mode(1, 1.0)
    r = beltrami_residual(v.form, -1.0, G3, GRID3)
    d = r.to_json_dict()
    assert set(d) == {"check", "pass", "max_residual", "min_margin",
                      "tolerance", "witness", "grid", "details"}
    text = json.dumps(d, sort_keys=True)
    assert json.loads(text)["pass"] is True
    assert d["grid"]["kind"] == "regular"
    assert isinstance(d["witness"][0], list) and len(d["witness"][0]) == 3


def test_sample_grid_validation():
    from bmkit import BmkitError
    # one count for every axis, as an int or a 1-sequence, or one count per axis
    assert SampleGrid.regular(T3, 5).spec["counts"] == [5, 5, 5]
    assert SampleGrid.regular(T3, (5,)).spec["counts"] == [5, 5, 5]
    assert SampleGrid.regular(T3, (5, 4, 3)).n == 60
    for counts in (1, (1,), (5, 4), (4, 4, 4, 4), ()):
        with pytest.raises(BmkitError):
            SampleGrid.regular(T3, counts)
    # lattices over 2^63 bytes, rejected before anything is allocated
    for counts in (10 ** 20, (3_000_000,) * 3, (2, 2, 2 ** 62)):
        with pytest.raises(BmkitError, match="cannot be stored"):
            SampleGrid.regular(T3, counts)


def test_with_time_needs_the_spacetime_of_the_grid_chart():
    from bmkit import ChartMismatchError, euclidean3, spacetime
    grid = SampleGrid.regular(T3, 3)
    assert grid.with_time(spacetime(torus3()), [0.0, 1.0]).n == 54
    for chart4 in (spacetime(euclidean3()), T3):
        with pytest.raises(ChartMismatchError):
            grid.with_time(chart4, [0.0])
    M = beltrami_maxwell()
    with pytest.raises(ChartMismatchError):   # maxwell_residuals makes the same test
        maxwell_residuals(M, SampleGrid.regular(spacetime(euclidean3()), 3))


def _one_axis(grid):
    """The grid as the one-axis point set of its materialized points."""
    return SampleGrid(grid.chart, tuple(columns(grid.points)), grid.spec)


def _every_check(target, grid3, grid4, x0=0.3):
    """Every check bmk verify runs on target, from its runner tables, and the Reeb field of
    a Beltrami form with its residuals: each report as JSON text (floats to the bit), or
    the error raised with its witness and margin."""
    import bmkit.cli as cli
    from bmkit.catalog import BeltramiForm
    from bmkit.reeb import normalization_residuals, reeb_closed_form_beltrami
    from bmkit.verify import Batch, _amplitude_needs

    def reeb_residuals(v):
        rb = yield from reeb_closed_form_beltrami(v, "normalized", grid3, deferred=True)
        return (yield from normalization_residuals(rb.Y, rb.pair, grid3, deferred=True))

    if isinstance(target, BeltramiForm):
        checks = [run(target, grid3) for run in cli.BELTRAMI_CHECKS.values()]
        checks.append(reeb_residuals(target))
    else:
        checks = [run(target, grid4) for run in cli.WINDOW_CHECKS.values()]
        if target.base is not None:
            checks.append(cli.BELTRAMI_CHECKS["beltrami"](target.base, grid3))
        sl, amp = target.at_time(x0), _amplitude_needs(target, grid4)
        checks += [run(target, sl, grid3, grid4, amp) for run in cli.SLICE_CHECKS.values()]
    return [json.dumps(r.to_json_dict() if hasattr(r, "to_json_dict") else
                       [repr(r), getattr(r, "witness", None), getattr(r, "margin", None)],
                       sort_keys=True) for r in Batch().run(checks)]


@pytest.mark.parametrize("spec", [
    "t3_mode{n=2}", "abc_flow{A=2,B=1,C=0.5}", "abc_flow", "solid_torus_mode",
    "solid_torus_mode{k_c=10,sign=plus}", "beltrami_maxwell",
    "beltrami_maxwell{v=abc_flow{A=2,B=1,C=0.5}}", "beltrami_maxwell{v=solid_torus_mode}",
    "beltrami_maxwell{v=solid_torus_mode{k_c=10}}", "traveling_wave",
    "traveling_wave{profile=cos,chart=r3}", "constant_field", "constant_field{chart=t3}",
    "parallel_nonbeltrami", "parallel_nonbeltrami{f3=cos}", "beltrami_nonparallel",
    "beltrami_nonparallel{profile=cos}"])
def test_reports_on_a_product_grid_equal_those_on_its_points(spec, monkeypatch):
    """Every check's report on a product grid, whose values keep the shape of the axes
    they read, is bitwise its report on the grid's materialized points (the one-axis
    point set), with blocks of the default size and of 7 points; on unequal counts and
    with a repeated instant."""
    import bmkit.verify
    from bmkit.cli import build_field

    target = build_field(spec, NONDIMENSIONAL)
    maxwell = hasattr(target, "chart4")
    grid3 = SampleGrid.regular(target.chart3 if maxwell else target.chart, (5, 7, 3))
    grid4 = grid3.with_time(target.chart4, [0.3, 0.3]) if maxwell else None
    axes4 = grid4 and _one_axis(grid4)
    want = _every_check(target, grid3, grid4)
    assert _every_check(target, _one_axis(grid3), axes4) == want
    monkeypatch.setattr(bmkit.verify, "BLOCK_ROWS", 7)
    assert _every_check(target, grid3, grid4) == want
    assert _every_check(target, _one_axis(grid3), axes4) == want


# k_c = 10 takes k_c r past 8, where J0 and J1 switch to the quadrature sum
@pytest.mark.parametrize("base", [t3_mode(1, 1.0), solid_torus_mode(), solid_torus_mode(k_c=10.0)])
def test_reports_do_not_depend_on_the_block_size(base, monkeypatch):
    """Statistics folded over blocks of 7 points equal those of one block: each witness
    is the first point attaining the extreme, also when equal values fall in two blocks,
    and shs's f statistics are those of its whole tables."""
    import bmkit.verify

    M = beltrami_maxwell(base)
    grid4 = SampleGrid.regular(M.chart3, 5).with_time(M.chart4, [0.3, 1.2])
    grid3 = SampleGrid.regular(M.chart3, 5)
    sl = M.at_time(0.3)

    def reports():
        return [r.to_json_dict() for r in (
            maxwell_residuals(M, grid4), constitutive_residuals(M, grid4),
            parallel_check(M, grid4),
            symplectic_margin(M.F0, grid4, companion=(M.B, M.e), label="F0"),
            contact_margin(sl.h, grid3), shs_check(sl.B, sl.e, grid3), conservation_along(
                reeb_for_maxwell(M, "Y0", 0.3, grid3).Y, [sl.e, sl.B], grid3))]

    whole = reports()
    monkeypatch.setattr(bmkit.verify, "BLOCK_ROWS", 7)
    assert reports() == whole
    # every value twice, 125 rows apart: the witness is in the first copy, on the product
    # grid (one block per instant) and on its points
    twice = SampleGrid.regular(M.chart3, 5).with_time(M.chart4, [0.3, 0.3])
    table = np.abs(M.e.coefficient_table(twice.points))
    first = int(np.argmax(table.max(axis=1)))
    for block_rows in (7, 125, 2048, 2 ** 14):
        monkeypatch.setattr(bmkit.verify, "BLOCK_ROWS", block_rows)
        for grid in (twice, _one_axis(twice)):
            need = bmkit.verify._max_abs(grid, M.e)
            bmkit.verify.Batch().evaluate([need])
            value, row = need.result
            assert first < 125 and (value, grid.point(row)) == (float(table.max()),
                                                                twice.points[first].tolist())


@pytest.mark.parametrize("spec", ["beltrami_maxwell{v=solid_torus_mode{k_c=10}}",
                                  "beltrami_maxwell{v=abc_flow{A=2,B=1,C=0.5}}"])
def test_reports_on_grids_of_several_blocks_equal_those_on_blocks_of_2048(spec, monkeypatch):
    """A 26^3 grid spans 2 blocks of the default size, its window of two instants 4 (one
    instant is more than a block): every check's report equals its report on blocks of
    2048 points, witnesses, tables and errors included."""
    import bmkit.verify
    from bmkit.cli import build_field

    M = build_field(spec, NONDIMENSIONAL)
    grid3 = SampleGrid.regular(M.chart3, 26)
    grid4 = grid3.with_time(M.chart4, [0.3, 1.2])
    assert [len(list(bmkit.verify._blocks(g))) for g in (grid3, grid4)] == [2, 4]
    want = _every_check(M, grid3, grid4)
    monkeypatch.setattr(bmkit.verify, "BLOCK_ROWS", 2048)
    assert _every_check(M, grid3, grid4) == want


def test_sample_grids_equal_only_themselves():
    """A grid equals only itself and hashes by identity, as a batch groups needs by grid;
    so a ReebField, which holds its grid, compares too."""
    a, b = SampleGrid.regular(T3, 3), SampleGrid.regular(T3, 3)
    assert a == a and a != b and len({a, b, a}) == 2
    M = beltrami_maxwell(t3_mode(1, 1.0))
    y0 = reeb_for_maxwell(M, "Y0", 0.3, a)
    assert y0 == reeb_for_maxwell(M, "Y0", 0.3, a) and y0 != reeb_for_maxwell(M, "Y0", 0.3, b)
