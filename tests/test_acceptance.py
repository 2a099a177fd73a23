"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the runtime budgets are asserted too.
"""

import math
import time
from itertools import combinations

import numpy as np

import bmkit as bk

RNG = np.random.default_rng(2024)

T3 = bk.torus3()
G3 = bk.euclidean_metric(T3)
ST = bk.solid_torus(a=1.0)
GST = bk.solid_torus_metric(ST)
C4 = bk.spacetime(T3)
G4 = bk.lorentzian_product(G3, C4)


class Criterion:
    """Times a criterion body and prints the required PASS/FAIL line."""

    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE {self.number}] {status} {self.description} "
              f"({elapsed:.2f}s < {self.budget_s}s)")
        assert elapsed < self.budget_s, f"criterion {self.number} over budget"
        return False


def random_form(chart, degree, seed):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for idx in combinations(range(chart.dim), degree):
        freqs = {a: int(rng.integers(1, 3)) for a in range(chart.dim)}
        coeffs[idx] = bk.wave(freqs, float(rng.uniform(0, 6.28)),
                              float(rng.uniform(0.5, 2.0)))
    return bk.make_form(chart, degree, coeffs)


def random_points(chart, n, seed):
    rng = np.random.default_rng(seed)
    cols = []
    for ax in chart.axes:
        if ax.is_periodic:
            cols.append(rng.uniform(0, 2 * math.pi, n))
        elif math.isfinite(ax.lo):
            cols.append(rng.uniform(ax.lo, ax.hi, n))
        else:
            cols.append(rng.uniform(0, 2 * math.pi, n))
    return np.stack(cols, axis=-1)


def test_criterion_1_hodge_identity_suite():
    with Criterion(1, "Hodge identities: *3*3 = id, ** = (-1)^(k+1), "
                      "*(e^dx0) = *3 e, all to 1e-12", 5.0):
        pts_t3 = random_points(T3, 1000, 1)
        pts_st = random_points(ST, 1000, 2)
        pts_4 = random_points(C4, 1000, 3)
        for degree in range(4):
            for chart, metric, pts, seed in ((T3, G3, pts_t3, 10),
                                             (ST, GST, pts_st, 20)):
                a = random_form(chart, degree, seed + degree)
                twice = bk.hodge_star(metric, bk.hodge_star(metric, a))
                assert (twice - a).max_abs(pts) < 1e-12, (chart.name, degree)
        for degree in range(5):
            a = random_form(C4, degree, 30 + degree)
            twice = bk.hodge_star(G4, bk.hodge_star(G4, a))
            sign = (-1.0) ** (degree + 1)
            assert (twice - sign * a).max_abs(pts_4) < 1e-12, degree
        e = bk.make_form(C4, 1, {(i,): bk.wave({j: 1}) for i, j in
                                 ((1, 2), (2, 3), (3, 1))})
        lhs = bk.hodge_star(G4, bk.wedge(e, bk.dx(C4, 0)))
        rhs = bk.spatial_hodge(G3, e)
        assert (lhs - rhs).max_abs(pts_4) < 1e-12


def test_criterion_2_beltrami_identities():
    with Criterion(2, "Beltrami residuals: t3 n=1..3, ABC x3, solid torus "
                      "both signs (20^3 grid, 1e-7)", 30.0):
        grid_t3 = bk.SampleGrid.regular(T3, 12)
        for n in (1, 2, 3):
            v = bk.t3_mode(n, 1.0)
            r = bk.beltrami_residual(v.form, -float(n), G3, grid_t3)
            assert r.passed, f"t3 n={n}: {r.max_residual}"
            assert r.max_residual <= 1e-10, f"t3 n={n}: {r.max_residual}"
        for A, B, C in ((1, 1, 1), (1, 1, 0), (2, 1, 0.5)):
            v = bk.abc_flow(A, B, C)
            r = bk.beltrami_residual(v.form, 1.0, G3, grid_t3)
            assert r.passed, f"abc {A},{B},{C}: {r.max_residual}"
            assert r.max_residual <= 1e-10, f"abc {A},{B},{C}: {r.max_residual}"
        grid_st = bk.SampleGrid.regular(ST, 20)
        for k_c, beta in ((2.0, 1.0), (3.0, 0.5)):
            for sign, s in (("minus", -1.0), ("plus", 1.0)):
                v = bk.solid_torus_mode(k_c, beta, sign)
                k = s * math.sqrt(beta ** 2 + k_c ** 2)
                r = bk.beltrami_residual(v.form, k, v.metric, grid_st)
                assert r.passed, f"solid torus {k_c},{beta},{sign}: {r.max_residual}"
                assert r.max_residual <= 1e-7, f"solid torus {k_c},{beta},{sign}"


def test_criterion_3_maxwell_suite():
    with Criterion(3, "Maxwell residuals + 4d cross-check < 1e-8 on 10^4-point "
                      "spacetime grids, 5 field sets", 60.0):
        field_sets = [
            bk.beltrami_maxwell(bk.t3_mode(1, 1.0)),
            bk.traveling_wave(),
            bk.constant_field(),
            bk.parallel_nonbeltrami(),
            bk.beltrami_nonparallel(),
        ]
        for M in field_sets:
            grid3 = bk.SampleGrid.regular(M.chart3, 10)
            grid4 = grid3.with_time(M.chart4, np.linspace(0, 2 * math.pi, 10,
                                                          endpoint=False))
            assert grid4.n == 10_000
            r = bk.maxwell_residuals(M, grid4)
            assert r.passed, (M.name, r.max_residual)
            assert r.max_residual < 1e-8, M.name
            assert r.details["decomposed_vs_4d"] < 1e-8, M.name


def test_criterion_4_structure_table():
    with Criterion(4, "structure table at k x0 = pi/4 (f_B, f_D to 1e-6) and "
                      "failures at k x0 in {0, pi/2}", 30.0):
        M = bk.beltrami_maxwell(bk.t3_mode(1, 1.0))
        c0, k = M.c0, M.k
        grid3 = bk.SampleGrid.regular(M.chart3, 8)
        window = grid3.with_time(M.chart4, np.linspace(0.2, 1.2, 6))
        scales = {n: f.max_abs(window.points)
                  for n, f in (("e", M.e), ("h", M.h), ("B", M.B), ("D", M.D))}

        x0 = math.pi / 4
        sl = M.at_time(x0)
        assert bk.contact_margin(sl.e, grid3, zero_scale=scales["e"]).passed
        assert bk.contact_margin(sl.h, grid3, zero_scale=scales["h"]).passed
        r_be = bk.shs_check(sl.B, sl.e, grid3, zero_scales=(scales["B"], scales["e"]))
        r_dh = bk.shs_check(sl.D, sl.h, grid3, zero_scales=(scales["D"], scales["h"]))
        assert r_be.passed and r_dh.passed
        assert abs(r_be.details["f_mean"] - (-c0 * k / math.tan(k * x0))) < 1e-6
        assert abs(r_dh.details["f_mean"] - (-c0 * k * math.tan(k * x0))) < 1e-6
        assert bk.symplectic_margin(M.F0, window, companion=(M.B, M.e),
                                    label="F0").passed
        assert bk.symplectic_margin(M.F1, window, companion=(M.D, M.h),
                                    label="F1").passed

        # k x0 = 0: h and B vanish; e stays contact
        sl0 = M.at_time(0.0)
        assert bk.contact_margin(sl0.e, grid3, zero_scale=scales["e"]).passed
        assert not bk.contact_margin(sl0.h, grid3, zero_scale=scales["h"]).passed
        assert not bk.shs_check(sl0.B, sl0.e, grid3,
                                zero_scales=(scales["B"], scales["e"])).passed
        assert not bk.shs_check(sl0.D, sl0.h, grid3,
                                zero_scales=(scales["D"], scales["h"])).passed
        # k x0 = pi/2: e and D vanish; h stays contact
        sl1 = M.at_time(0.5 * math.pi)
        assert not bk.contact_margin(sl1.e, grid3, zero_scale=scales["e"]).passed
        assert bk.contact_margin(sl1.h, grid3, zero_scale=scales["h"]).passed
        assert not bk.shs_check(sl1.B, sl1.e, grid3,
                                zero_scales=(scales["B"], scales["e"])).passed
        assert not bk.shs_check(sl1.D, sl1.h, grid3,
                                zero_scales=(scales["D"], scales["h"])).passed
        # symplectic margin collapses on a grid containing a degenerate instant
        degenerate = grid3.with_time(M.chart4, [0.0, 0.6])
        assert not bk.symplectic_margin(M.F0, degenerate, label="F0").passed


def test_criterion_5_reeb_oracle_equivalence():
    with Criterion(5, "uniform Reeb formula vs closed forms < 1e-8 on 10^3 "
                      "random points; contracts; Y1 = (f_e/f_h) Y0", 30.0):
        pts_t3 = random_points(T3, 1000, 5)

        def check(rb, pts, metric, lam, normalized):
            # the closed forms sharp(lam) / |lam|^2 and sharp(lam)
            want = bk.metric_sharp(metric, lam).evaluate(pts)
            if normalized:
                want = want / bk.norm_sq_field(metric, lam)(pts)[:, None]
            assert np.max(np.abs(rb.Y.evaluate(pts) - want)) < 1e-8
            r_omega, r_lam = rb.normalization_residuals
            assert r_omega < 1e-8 and r_lam < 1e-8

        for v in (bk.t3_mode(1, 1.0), bk.t3_mode(2, 1.5)):
            for variant in ("normalized", "unnormalized"):   # Y_n, Z_n
                check(bk.reeb_closed_form_beltrami(v, variant), pts_t3, v.metric, v.form,
                      variant == "normalized")
        v = bk.abc_flow(2, 1, 0.5)
        check(bk.reeb_closed_form_beltrami(v, "normalized"), pts_t3, v.metric, v.form, True)
        grid_st = bk.SampleGrid.regular(ST, 8)
        pts_st = random_points(ST, 1000, 6)
        for sign in ("minus", "plus"):
            v = bk.solid_torus_mode(2.0, 1.0, sign)
            check(bk.reeb_closed_form_beltrami(v, "unnormalized", grid_st), pts_st,
                  v.metric, v.form, False)
        M = bk.beltrami_maxwell(bk.t3_mode(1, 1.0))
        for which, x0 in (("Y0", 0.7), ("Y1", 0.7)):
            sl = M.at_time(x0)
            check(bk.reeb_for_maxwell(M, which, x0), pts_t3, sl.metric,
                  sl.e if which == "Y0" else sl.h, True)
        assert bk.reeb_parallel_ratio(M, 0.7) < 1e-8
        assert bk.reeb_parallel_ratio(M, math.pi / 4) < 1e-8


def test_criterion_6_conservation():
    with Criterion(6, "L_Y0 {e, B, E_e, E_h} and L_Y1 {h, D, E_e, E_h} < 1e-6 "
                      "(finite-difference Cartan) at k x0 = pi/4", 30.0):
        M = bk.beltrami_maxwell(bk.t3_mode(1, 1.0))
        x0 = math.pi / 4
        grid3 = bk.SampleGrid.regular(M.chart3, 8)
        sl = M.at_time(x0)
        ee, eh = sl.energy_forms()

        def fn_form(form):   # coefficients without partials: d takes finite differences
            return bk.make_form(form.chart, form.degree,
                                {idx: bk.from_function(c) for idx, c in form.coeffs.items()})

        for which, names, forms in (("Y0", ["e", "B", "E_e", "E_h"], [sl.e, sl.B, ee, eh]),
                                    ("Y1", ["h", "D", "E_e", "E_h"], [sl.h, sl.D, ee, eh])):
            Y = bk.reeb_for_maxwell(M, which, x0).Y
            Y_fn = bk.VectorField(Y.chart, tuple(c if c.is_zero else bk.from_function(c)
                                                 for c in Y.components))
            for mode, report in (
                    ("analytic", bk.conservation_along(Y, forms, grid3, names)),
                    ("fd", bk.conservation_along(Y_fn, [fn_form(f) for f in forms],
                                                 grid3, names))):
                assert report.passed and report.details["mode"] == mode, report.details
                assert all(r < 1e-6 for r in report.details["per_form"].values()), \
                    report.details


def test_criterion_7_closed_field_line_witnesses():
    with Criterion(7, "5x5x5 seed survey of sharp(e) field lines: closures at "
                      "rational-tan seeds, 'none found' at the irrational one",
                   120.0):
        M = bk.beltrami_maxwell(bk.t3_mode(1, 1.0))
        Z = bk.field_line_generator(M, "e", 0.0)
        xy = np.linspace(0, 2 * math.pi, 5, endpoint=False)
        x3_values = [0.0, 0.5 * math.pi, math.atan(0.5), math.atan(2.0),
                     math.atan(math.sqrt(2.0))]
        seeds = np.array([[a, b, c] for a in xy for b in xy for c in x3_values])
        survey = bk.closed_orbit_survey(Z, seeds, step=0.01, s_max=120.0,
                                        tol=1e-4)
        for seed, res in zip(survey.seeds, survey.results):
            x3 = seed[2]
            if math.isclose(x3, math.atan(math.sqrt(2.0))):
                assert not res.closed, seed
                assert res.note == "none found within budget"
            else:
                assert res.closed, seed
                if x3 in (0.0, 0.5 * math.pi):
                    assert abs(res.period_estimate - 2 * math.pi) < 1e-4
                elif math.isclose(x3, math.atan(0.5)):
                    assert res.winding == (2, 1, 0)
                else:
                    assert res.winding == (1, 2, 0)
        assert survey.n_closed == 100
        assert len(survey.unique_orbits) == 20


def test_criterion_8_integrator_order():
    with Criterion(8, "step-halving error ratio in [12, 20]; forward-backward "
                      "reversibility < 1e-8", 10.0):
        chart = bk.euclidean3()
        Y = bk.vector_field(chart, {0: -bk.coordinate(1), 1: bk.coordinate(0)})

        def final_error(h):
            n = int(round(2 * math.pi / h))
            tr = bk.integrate(Y, [1.0, 0.0, 0.0], h, n)
            s = n * h
            exact = np.array([math.cos(s), math.sin(s), 0.0])
            return np.linalg.norm(tr.samples[-1] - exact)

        ratio = final_error(2e-2) / final_error(1e-2)
        assert 12.0 <= ratio <= 20.0, ratio

        v = bk.t3_mode(1, 1.0)
        Z = bk.metric_sharp(G3, v.form)
        fwd = bk.integrate(Z, [0.3, 0.7, 1.9], 1e-3, 2000)
        back = bk.integrate(-Z, fwd.samples[-1], 1e-3, 2000)
        assert np.linalg.norm(back.samples[-1] - fwd.samples[0]) < 1e-8


def test_criterion_9_negative_controls():
    with Criterion(9, "traveling wave not symplectic (margin 0), constant field "
                      "not contact (margin 0), wrong-sign Beltrami fails", 10.0):
        tw = bk.traveling_wave()
        grid4 = bk.SampleGrid.regular(tw.chart3, 6).with_time(
            tw.chart4, [0.3, 1.1])
        r = bk.symplectic_margin(tw.F0, grid4, label="F0")
        assert not r.passed
        assert r.min_margin == 0.0

        cf = bk.constant_field()
        slc = cf.at_time(0.0)
        r = bk.contact_margin(slc.e, bk.SampleGrid.regular(cf.chart3, 6))
        assert not r.passed
        assert r.min_margin == 0.0

        v = bk.t3_mode(1, 1.0)
        grid3 = bk.SampleGrid.regular(T3, 8)
        r = bk.beltrami_residual(v.form, +1.0, G3, grid3)
        assert not r.passed
        assert abs(r.max_residual - 2.0) < 1e-12
