"""Reeb extraction: uniform formula vs closed forms, contracts, conservation."""

import math
import re

import numpy as np
import pytest

from bmkit import (BmkitError, DegenerateInstantError, DegeneratePointError,
                   SampleGrid, SHSPair, abc_flow, beltrami_maxwell, beltrami_nonparallel, dx,
                   euclidean_metric, hodge_star, lie_derivative, make_form,
                   metric_sharp, norm_sq_field, reeb_closed_form_beltrami,
                   reeb_field, reeb_for_maxwell, reeb_parallel_ratio, solid_torus,
                   solid_torus_mode, t3_mode, torus3, traveling_wave)
from bmkit.reeb import NO_REEB_FIELD
from bmkit.scalars import constant

T3 = torus3()
G3 = euclidean_metric(T3)
RNG = np.random.default_rng(123)
PTS = RNG.uniform(0, 2 * math.pi, (1000, 3))


def shs_pair_of(v):
    return SHSPair(hodge_star(v.metric, v.form), v.form)


def sharp_over_norm_sq(metric, lam, pts):
    """The closed form sharp(lambda) / |lambda|^2 at pts, the Reeb field of (star3 lambda,
    lambda) and of (B, e), (D, h) on a Beltrami-Maxwell slice."""
    return metric_sharp(metric, lam).evaluate(pts) / norm_sq_field(metric, lam)(pts)[:, None]


# -- uniform formula ---------------------------------------------------------------


def test_canonical_pair():
    # lambda = dx3, Omega = dx1 ^ dx2 -> Y = d/dx3
    pair = SHSPair(make_form(T3, 2, {(0, 1): constant(1.0)}), dx(T3, 2))
    y = reeb_field(pair).evaluate(np.array([0.3, 0.4, 0.5]))
    assert np.allclose(y, [[0.0, 0.0, 1.0]])


def test_uniform_formula_covers_omega3_zero_branch():
    # t3 mode: Omega = star3 v has no dx1^dx2 component (Omega_3 = 0);
    # the formula must still produce Y with Y^3 = 0
    v = t3_mode(1, 1.0)
    p = np.array([0.0, 0.0, 0.5 * math.pi])
    Y = reeb_field(shs_pair_of(v))
    y = Y.evaluate(p)[0]
    assert np.allclose(y, [math.cos(p[2]), math.sin(p[2]), 0.0], atol=1e-15)
    assert y[2] == 0.0 and Y.components[2].is_zero


def test_uniform_formula_omega3_nonzero_branch():
    # ABC flow at a point with all components nonzero exercises the generic
    # branch: Y^a = Omega_a / sum(lambda Omega)
    v = abc_flow(1, 1, 1)
    origin = np.zeros(3)
    y = reeb_field(shs_pair_of(v)).evaluate(origin)
    assert np.allclose(y, [[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])


def test_degenerate_point_error():
    # lambda orthogonal to Omega's kernel direction: lambda . Omega# = 0 identically
    pair = SHSPair(make_form(T3, 2, {(0, 1): constant(1.0)}), dx(T3, 0))
    with pytest.raises(DegeneratePointError, match=re.escape(NO_REEB_FIELD)):
        reeb_field(pair)
    # e and B (h and D) are orthogonal: lambda . Omega# = 0 at every point, so neither
    # pair has a Reeb field, at any instant
    for M in (beltrami_nonparallel(), traveling_wave()):
        for which in ("Y0", "Y1"):
            for x0 in (0.0, 0.3, math.pi):
                with pytest.raises(DegeneratePointError, match=re.escape(NO_REEB_FIELD)) as info:
                    reeb_for_maxwell(M, which, x0)
                assert info.value.margin == 0.0 and info.value.witness == [0.0, 0.0, 0.0]


def test_shs_pair_rejects_forms_on_different_charts():
    # the pair's chart is lambda's; an Omega on another chart is refused
    omega = make_form(T3, 2, {(0, 1): constant(1.0)})
    with pytest.raises(BmkitError):
        SHSPair(omega, dx(solid_torus(a=1.0), 2))
    assert SHSPair(omega, dx(T3, 2)).chart == T3


# -- closed-form oracles -------------------------------------------------------------


def test_t3_closed_forms():
    v = t3_mode(2, 1.5)
    x3 = PTS[:, 2]
    yn = reeb_closed_form_beltrami(v, "normalized")
    vals = yn.Y.evaluate(PTS)
    assert np.allclose(vals[:, 0], np.cos(2 * x3) / 1.5, atol=1e-12)
    assert np.allclose(vals[:, 1], np.sin(2 * x3) / 1.5, atol=1e-12)
    zn = reeb_closed_form_beltrami(v, "unnormalized")
    vals_z = zn.Y.evaluate(PTS)
    assert np.allclose(vals_z[:, 0], 1.5 * np.cos(2 * x3), atol=1e-12)
    assert np.allclose(vals_z[:, 1], 1.5 * np.sin(2 * x3), atol=1e-12)


@pytest.mark.parametrize("variant", ["normalized", "unnormalized"])
def test_reeb_defining_contracts(variant):
    for v in (t3_mode(1, 1.0), abc_flow(2, 1, 0.5)):
        rb = reeb_closed_form_beltrami(v, variant)
        r_omega, r_lam = rb.normalization_residuals
        assert r_omega < 1e-8
        assert r_lam < 1e-8


def test_oracle_equivalence_uniform_vs_closed_form():
    cases = [t3_mode(1, 1.0), t3_mode(3, 2.0), abc_flow(2, 1, 0.5)]
    for v in cases:
        rb = reeb_closed_form_beltrami(v, "normalized")
        got = rb.Y.evaluate(PTS)
        want = sharp_over_norm_sq(v.metric, v.form, PTS)
        assert np.max(np.abs(got - want)) < 1e-8, v.name


def test_oracle_equivalence_solid_torus_both_signs():
    rng = np.random.default_rng(7)
    pts = np.stack([rng.uniform(0.1, 1.0, 1000),
                    rng.uniform(0, 2 * math.pi, 1000),
                    rng.uniform(0, 2 * math.pi, 1000)], axis=-1)
    for sign in ("minus", "plus"):
        v = solid_torus_mode(2.0, 1.0, sign)
        rb = reeb_closed_form_beltrami(v, "unnormalized",
                                       SampleGrid.regular(v.chart, 8))
        want = rb.Y.evaluate(pts)
        assert np.max(np.abs(metric_sharp(v.metric, v.form).evaluate(pts) - want)) < 1e-8
        # the displayed closed form: Z^phi = sign * (k/k_c) J1(k_c r) cos(b x3) / r
        from bmkit import bessel_j
        k = math.sqrt(5.0)
        s = -1.0 if sign == "minus" else 1.0
        want_phi = (s * k / 2.0) * bessel_j(1, 2.0 * pts[:, 0]) \
            * np.cos(pts[:, 2]) / pts[:, 0]
        assert np.max(np.abs(want[:, 1] - want_phi)) < 1e-10


def test_solid_torus_z_components_match_display_formula():
    v = solid_torus_mode(2.0, 1.0, "minus")
    rb = reeb_closed_form_beltrami(v, "unnormalized",
                                   SampleGrid.regular(v.chart, 6))
    from bmkit import bessel_j
    rng = np.random.default_rng(9)
    pts = np.stack([rng.uniform(0.1, 1.0, 200),
                    rng.uniform(0, 2 * math.pi, 200),
                    rng.uniform(0, 2 * math.pi, 200)], axis=-1)
    r, x3 = pts[:, 0], pts[:, 2]
    k = math.sqrt(5.0)
    vals = rb.Y.evaluate(pts)
    assert np.allclose(vals[:, 0], (1.0 / 2.0) * bessel_j(1, 2 * r) * np.sin(x3),
                       atol=1e-10)
    assert np.allclose(vals[:, 1], -(k / 2.0) * bessel_j(1, 2 * r) * np.cos(x3) / r,
                       atol=1e-10)
    assert np.allclose(vals[:, 2], bessel_j(0, 2 * r) * np.cos(x3), atol=1e-10)


# -- Maxwell Reeb fields ---------------------------------------------------------------


def test_maxwell_reeb_closed_form_at_zero():
    M = beltrami_maxwell(t3_mode(1, 1.0), e0=2.0)
    rb = reeb_for_maxwell(M, "Y0", 0.0)
    vals = rb.Y.evaluate(PTS)
    x3 = PTS[:, 2]
    assert np.allclose(vals[:, 0], np.cos(x3) / 2.0, atol=1e-12)
    assert np.allclose(vals[:, 1], np.sin(x3) / 2.0, atol=1e-12)
    r_omega, r_lam = rb.normalization_residuals
    assert r_omega < 1e-8 and r_lam < 1e-8


def test_maxwell_reeb_uniform_formula_agreement():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    for which, x0 in (("Y0", 0.7), ("Y1", 0.7), ("Y0", 2.5)):
        rb = reeb_for_maxwell(M, which, x0)
        got = rb.Y.evaluate(PTS[:200])
        want = sharp_over_norm_sq(M.metric3, rb.pair.lam, PTS[:200])
        assert np.max(np.abs(got - want)) < 1e-8


def test_unnormalized_pair_recovers_sharp_e():
    # reeb of (B, e / g^{-1}(e,e)) equals sharp(e)
    M = beltrami_maxwell(t3_mode(1, 1.0), e0=1.5)
    sl = M.at_time(0.9)
    n2 = norm_sq_field(sl.metric, sl.e)
    lam = sl.e * (constant(1.0) / n2)
    pair = SHSPair(sl.B, lam)
    got = reeb_field(pair).evaluate(PTS[:300])
    want = metric_sharp(sl.metric, sl.e).evaluate(PTS[:300])
    assert np.max(np.abs(got - want)) < 1e-8


def test_parallel_reeb_ratio():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    assert reeb_parallel_ratio(M, math.pi / 4) < 1e-8
    assert reeb_parallel_ratio(M, 1.1) < 1e-8


def test_parallel_reeb_ratio_needs_profiles_before_extraction(monkeypatch):
    import bmkit.reeb
    from bmkit import BmkitError, constant_field, parallel_nonbeltrami

    # Y0 of parallel_nonbeltrami is degenerate at x0 = 0.3; the missing profiles come first
    with pytest.raises(BmkitError, match="does not expose amplitude profiles"):
        reeb_parallel_ratio(parallel_nonbeltrami(), 0.3)
    extractions = []
    monkeypatch.setattr(bmkit.reeb, "reeb_for_maxwell",
                        lambda *args: extractions.append(args))
    with pytest.raises(BmkitError, match="does not expose amplitude profiles"):
        reeb_parallel_ratio(constant_field(), 0.3)
    assert extractions == []


def test_degenerate_instants_hard_error():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    with pytest.raises(DegenerateInstantError):
        reeb_for_maxwell(M, "Y0", 0.5 * math.pi)
    with pytest.raises(DegenerateInstantError):
        reeb_for_maxwell(M, "Y1", 0.0)
    with pytest.raises(DegenerateInstantError):
        reeb_for_maxwell(M, "Y1", math.pi)


# -- Reeb invariance and Reeb-like checks --------------------------------------------------


def test_reeb_preserves_structure():
    grid = SampleGrid.regular(T3, 7)
    for v in (t3_mode(1, 1.0), abc_flow(2, 1, 0.5)):
        rb = reeb_closed_form_beltrami(v, "normalized")
        assert lie_derivative(rb.Y, rb.pair.lam).max_abs(grid.points) < 1e-6
        assert lie_derivative(rb.Y, rb.pair.Omega).max_abs(grid.points) < 1e-6


def test_reeb_fields_hash_as_they_compare():
    """A ReebField hashes (its pair's forms hold dicts), and equal fields hash alike: the same
    extraction on one grid twice is one set member, on another grid a second."""
    M = beltrami_maxwell(t3_mode(1, 1.0))
    a, b = SampleGrid.regular(T3, 3), SampleGrid.regular(T3, 3)
    y0, again, other = (reeb_for_maxwell(M, "Y0", 0.3, g) for g in (a, a, b))
    assert y0 == again and hash(y0) == hash(again)
    assert len({y0, again, other}) == 2 and {y0: 1}[again] == 1
