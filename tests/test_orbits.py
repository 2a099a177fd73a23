"""Field-line integration, closure detection, surveys, Poincare sections."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmkit import (BmkitError, SampleGrid, abc_flow, beltrami_maxwell,
                   closed_orbit_survey, detect_closure, euclidean3,
                   euclidean_metric, field_line_generator, integrate,
                   metric_sharp, poincare_section, solid_torus, solid_torus_mode,
                   t3_mode, torus3, vector_field, write_orbit_csv)
from bmkit.forms import _rk4_step
from bmkit.orbits import NONE_FOUND, SurveyResult, _covers, integrate_batch
from bmkit.scalars import constant, coordinate, sin_wave, wave

T3 = torus3()
R3 = euclidean3()


def const_field(chart, comps):
    return vector_field(chart, {i: constant(c) for i, c in comps.items()})


def circle_field():
    return vector_field(R3, {0: -coordinate(1), 1: coordinate(0)})


# -- integrate -------------------------------------------------------------------


def test_linear_field_exact():
    Y = const_field(R3, {0: 2.5})
    tr = integrate(Y, [0.0, 1.0, -1.0], 0.01, 400)
    # RK4 is exact on constant fields: x1(s) = e0 s
    assert np.allclose(tr.samples[:, 0], 2.5 * tr.s)
    assert np.allclose(tr.samples[:, 1], 1.0)
    assert tr.status == "completed"
    assert tr.speed_max == 2.5


def test_frozen_direction_torus_winding():
    # Z = cos(x3) d1 + sin(x3) d2 freezes x3; from x3 = 0 the orbit is the
    # x1 circle with winding (1, 0, 0) after s = 2pi
    Z = vector_field(T3, {0: wave({2: 1}), 1: sin_wave({2: 1})})
    n = int(round(2 * math.pi / 1e-3))
    tr = integrate(Z, [0.0, 0.0, 0.0], 1e-3, n)
    assert np.allclose(tr.samples[:, 2], 0.0)
    assert tr.winding().tolist() == [1, 0, 0]
    # frozen direction makes the flow linear, so RK4 is exact: x1 = s
    assert abs(tr.samples[-1, 0] - n * 1e-3) < 1e-12


def test_rk4_circle_drift():
    tr = integrate(circle_field(), [1.0, 0.0, 0.0], 1e-3,
                   int(round(2 * math.pi / 1e-3)))
    radii = np.linalg.norm(tr.samples[:, :2], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-8


def test_reversibility():
    v = t3_mode(1, 1.0)
    Y = metric_sharp(euclidean_metric(T3), v.form)
    fwd = integrate(Y, [0.2, 0.4, 1.0], 1e-3, 1000)
    back = integrate(-Y, fwd.samples[-1], 1e-3, 1000)
    assert np.linalg.norm(back.samples[-1] - fwd.samples[0]) < 1e-8


def test_step_halving_fourth_order():
    def final_error(h):
        n = int(round(2 * math.pi / h))
        tr = integrate(circle_field(), [1.0, 0.0, 0.0], h, n)
        s = n * h
        exact = np.array([math.cos(s), math.sin(s), 0.0])
        return np.linalg.norm(tr.samples[-1] - exact)

    ratio = final_error(2e-2) / final_error(1e-2)
    assert 12.0 <= ratio <= 20.0


def test_sample_spacing_bound():
    v = abc_flow(2, 1, 0.5)
    Y = metric_sharp(euclidean_metric(T3), v.form)
    tr = integrate(Y, [0.1, 0.2, 0.3], 5e-3, 500)
    gaps = np.linalg.norm(np.diff(tr.samples, axis=0), axis=1)
    assert np.max(gaps) <= 5e-3 * tr.speed_max * (1 + 1e-9)


def test_interval_axis_exit():
    chart = solid_torus(a=1.0, r_min=0.1)
    Y = const_field(chart, {0: 1.0})  # radially outward
    tr = integrate(Y, [0.5, 0.0, 0.0], 0.01, 200)
    assert tr.status == "exited_domain"
    assert tr.n_samples < 201
    assert np.all(tr.samples[:, 0] <= 1.0 + 1e-12)


def _integrate_batch_reference(Y, seeds, step, n_steps):
    """The lockstep loop before the flow read the plan directly: the field is
    evaluated through VectorField.evaluate and the domain tested on every step."""
    chart = Y.chart
    seeds = chart.as_points(seeds)
    n = seeds.shape[0]
    samples = np.full((n_steps + 1, n, chart.dim), np.nan)
    samples[0] = seeds
    lengths = np.full(n, n_steps + 1, dtype=int)
    active = np.arange(n)
    state = seeds.copy()

    def f(p):
        return Y.evaluate(chart.wrap(p))

    for i in range(1, n_steps + 1):
        if active.size == 0:
            break
        new_state = _rk4_step(f, state, step)
        inside = chart.contains(new_state)
        if not np.all(inside):
            lengths[active[~inside]] = i
            active = active[inside]
            state = new_state[inside]
        else:
            state = new_state
        samples[i, active] = state
    statuses = ["completed" if lengths[j] == n_steps + 1 else "exited_domain"
                for j in range(n)]
    return samples, lengths, statuses


def test_integrate_batch_matches_reference_loop_on_t3():
    Y = metric_sharp(euclidean_metric(T3), abc_flow(1.0, 0.7, 0.4).form)
    seeds = np.random.default_rng(3).uniform(-2.0, 8.0, (20, 3))
    samples, lengths, statuses = integrate_batch(Y, seeds, 0.02, 300)
    want = _integrate_batch_reference(Y, seeds, 0.02, 300)
    assert samples.tobytes() == want[0].tobytes()
    assert lengths.tolist() == want[1].tolist() == [301] * 20
    assert statuses == want[2]


def test_integrate_batch_matches_reference_loop_with_an_exit():
    # on the solid torus the third seed leaves the r interval at its 9th step
    Y = field_line_generator(solid_torus_mode(), "e")
    seeds = np.array([[0.3, 0.1, 0.2], [0.6, 1.0, 2.0], [0.9, 2.0, 1.0], [0.5, 4.0, 5.0]])
    samples, lengths, statuses = integrate_batch(Y, seeds, 0.05, 20)
    want = _integrate_batch_reference(Y, seeds, 0.05, 20)
    assert lengths.tolist() == want[1].tolist() == [21, 21, 9, 21]
    assert statuses == want[2] == ["completed", "completed", "exited_domain", "completed"]
    assert samples.tobytes() == want[0].tobytes()


def test_step_must_be_positive():
    with pytest.raises(BmkitError):
        integrate(const_field(R3, {0: 1.0}), [0, 0, 0], -0.1, 100)


# -- detect_closure -----------------------------------------------------------------


def closure_of(Y, seed, step, s_max, tol):
    tr = integrate(Y, seed, step, int(math.ceil(s_max / step)))
    return detect_closure(tr, tol, Y)


def test_torus_axis_aligned_closure():
    Y = const_field(T3, {0: 1.0})
    res = closure_of(Y, [0.0, 0.0, 0.0], 0.01, 10.0, 1e-5)
    assert res.closed
    assert abs(res.period_estimate - 2 * math.pi) < 1e-6
    assert res.winding == (1, 0, 0)


def test_torus_incommensurate_not_closed():
    Y = const_field(T3, {0: 1.0, 1: math.sqrt(2.0)})
    res = closure_of(Y, [0.0, 0.0, 0.0], 0.01, 200.0, 1e-4)
    assert not res.closed
    assert res.note == NONE_FOUND
    assert res.return_distance > 1e-4


def test_r3_constant_never_closed():
    Y = const_field(R3, {0: 1.0})
    res = closure_of(Y, [0.0, 0.0, 0.0], 0.01, 50.0, 1e-4)
    assert not res.closed
    assert res.note == NONE_FOUND


def test_closure_period_from_speed():
    # period scales inversely with speed: 2pi / 2.0
    Y = const_field(T3, {1: 2.0})
    res = closure_of(Y, [1.0, 2.0, 3.0], 0.005, 5.0, 1e-6)
    assert res.closed
    assert abs(res.period_estimate - math.pi) < 1e-6
    assert res.winding == (0, 1, 0)


def test_closure_needs_enough_samples():
    Y = const_field(T3, {0: 1.0})
    tr = integrate(Y, [0, 0, 0], 0.01, 50)
    with pytest.raises(BmkitError):
        detect_closure(tr, 1e-5)


def test_min_period_rejects_trivial_self_match():
    # an equilibrium (zero field) never reports closure
    Y = vector_field(T3, {})
    tr = integrate(Y, [1.0, 1.0, 1.0], 0.01, 200)
    res = detect_closure(tr, 1e-3, Y)
    assert not res.closed
    assert res.note == "stationary point"


def _loop_candidates(trace, d, tol):
    """Reference for the vectorized candidate scan of detect_closure."""
    coarse = max(tol, 1.5 * trace.step * trace.speed_max)
    return [j for j in range(1, trace.n_samples - 1)
            if trace.s[j] > 10 * trace.step and d[j] <= coarse
            and d[j] <= d[j - 1] and d[j] <= d[j + 1]]


@pytest.mark.parametrize("tol", [1e-2, 1e-5])
def test_unrefined_closure_matches_loop_scan(tol):
    # the (2, 1, 0) line has two sampled returns; they close only at tol = 1e-2
    Z = field_line_generator(beltrami_maxwell(t3_mode(1, 1.0)), "e", 0.0)
    tr = integrate(Z, [0.0, 0.0, math.atan(0.5)], 0.01, 3000)
    d = T3.distance(tr.samples, tr.samples[0])
    cands = _loop_candidates(tr, d, tol)
    assert len(cands) == 2
    res = detect_closure(tr, tol)
    closing = [j for j in cands if d[j] < tol]
    if closing:
        assert res.closed and res.period_estimate == tr.s[closing[0]]
        assert res.return_distance == d[closing[0]]
    else:
        assert not res.closed and res.return_distance == min(d[j] for j in cands)


def test_newton_refinement_reaches_round_off():
    # field constant along the line, so RK4 is exact and so is the period 2 pi sqrt 5
    Z = field_line_generator(beltrami_maxwell(t3_mode(1, 1.0)), "e", 0.0)
    res = closure_of(Z, [0.0, 0.0, math.atan(0.5)], 0.01, 15.0, 1e-5)
    assert res.closed and res.winding == (2, 1, 0)
    assert abs(res.period_estimate - 2 * math.pi * math.sqrt(5.0)) < 1e-10
    assert res.return_distance < 1e-10
    # speed 1 + sin(x1) / 2 along x1: g' = |Y|^2 is inexact, so one step is not enough
    Y = vector_field(T3, {0: constant(1.0) + 0.5 * sin_wave({0: 1})})
    res = closure_of(Y, [0.0, 0.0, 0.0], 0.01, 10.0, 1e-5)
    assert res.closed and res.winding == (1, 0, 0)
    assert abs(res.period_estimate - 2 * math.pi / math.sqrt(0.75)) < 1e-9
    assert res.return_distance < 1e-9


# -- survey -------------------------------------------------------------------------


def test_survey_rational_and_irrational_slopes():
    M = beltrami_maxwell(t3_mode(1, 1.0))
    Z = field_line_generator(M, "e", 0.0)
    x3s = [0.0, 0.5 * math.pi, math.atan(0.5), math.atan(math.sqrt(2.0))]
    seeds = np.array([[0.0, 0.0, x3] for x3 in x3s])
    sv = closed_orbit_survey(Z, seeds, 0.01, 120.0, 1e-4)
    r_axis, r_axis2, r_slope, r_irrational = sv.results
    assert r_axis.closed and r_axis.winding == (1, 0, 0)
    assert abs(r_axis.period_estimate - 2 * math.pi) < 1e-4
    assert r_axis2.closed and r_axis2.winding == (0, 1, 0)
    assert r_slope.closed and r_slope.winding == (2, 1, 0)
    assert abs(r_slope.period_estimate - 2 * math.pi * math.sqrt(5.0)) < 1e-4
    assert not r_irrational.closed
    assert r_irrational.note == NONE_FOUND
    d = sv.to_json_dict()
    assert d["closed_count"] == 3
    assert d["results"][3]["note"] == NONE_FOUND


def test_survey_deduplicates_same_orbit():
    # seeds on one circle: all closed, one unique orbit
    Y = const_field(T3, {0: 1.0})
    seeds = np.array([[s, 1.0, 2.0] for s in (0.0, 1.0, 2.0, 3.0)])
    sv = closed_orbit_survey(Y, seeds, 0.01, 10.0, 1e-5)
    assert sv.n_closed == 4
    assert len(sv.unique_orbits) == 1
    # distinct parallel circles stay distinct
    seeds2 = np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 2.0]])
    sv2 = closed_orbit_survey(Y, seeds2, 0.01, 10.0, 1e-5)
    assert len(sv2.unique_orbits) == 2


def test_doubled_period_closure_merges_with_its_one_loop_orbit():
    # a closure caught at its second return has twice the period and twice the
    # winding; its two-loop samples are not matched by the segment window
    Z = field_line_generator(beltrami_maxwell(t3_mode(1, 1.0)), "e", 0.0)
    x3 = math.atan(0.5)   # direction (2, 1, 0) / sqrt(5)
    seeds = np.array([[0.0, 0.0, x3], [1.0, 0.5, x3]])
    sv = closed_orbit_survey(Z, seeds, 0.01, 30.0, 1e-4)
    one, two = sv.results
    assert one.closed and two.closed and one.winding == two.winding == (2, 1, 0)
    doubled = dataclasses.replace(two, period_estimate=2.0 * two.period_estimate,
                                  winding=(4, 2, 0))
    merged = SurveyResult(sv.seeds, [one, doubled], sv.traces, sv.params)
    assert merged.unique_orbits == [0]
    counts = merged.dedup_counts
    assert counts["pairs_compared"] == 1 and counts["first_point_rejects"] == 0
    assert counts["fallback_points"] > 0


def _points_to_polyline(chart, pts, line):
    """The full point x segment sweep that `_covers` must agree with."""
    seg_a = line[:-1]
    seg_v = line[1:] - seg_a
    delta = chart.delta(pts[:, None, :], seg_a[None, :, :])
    vv = np.einsum("sd,sd->s", seg_v, seg_v)
    vv = np.where(vv > 0, vv, 1.0)
    t = np.clip(np.einsum("psd,sd->ps", delta, seg_v) / vv, 0.0, 1.0)
    closest = delta - t[..., None] * seg_v[None, :, :]
    d = np.linalg.norm(closest, axis=-1)
    return float(d.min(axis=1).max())


@st.composite
def cover_cases(draw):
    """A closed loop sampled as a polyline, and points along it.

    The points start at a cyclic offset along the loop, sit in a random
    periodic image, run over one or two loops at their own density, and may
    have one point (the last included) moved by more than tol.
    """
    chart = draw(st.sampled_from([T3, solid_torus()]))
    periodic = np.array([ax.is_periodic for ax in chart.axes])
    winding = np.where(periodic, draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3)), 0)
    base = np.array([draw(st.floats(0.0, 2.0 * math.pi)) if p else 0.5 for p in periodic])
    wiggle = draw(st.floats(0.0, 0.3))
    harmonic = draw(st.integers(1, 3))
    phases = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3)))

    def loop(theta):   # theta in units of the period
        return (base + np.outer(theta, 2.0 * math.pi * winding)
                + wiggle * np.sin(2.0 * math.pi * harmonic * theta[:, None] + phases))

    n_line = draw(st.integers(8, 120))
    line = loop(np.linspace(0.0, 1.0, n_line + 1))
    loops = draw(st.sampled_from([1, 1, 2]))
    n_pts = draw(st.integers(2, 120))
    pts = loop(draw(st.floats(0.0, 1.0)) + np.linspace(0.0, loops, n_pts, endpoint=False))
    pts += np.where(periodic, 2.0 * math.pi * np.array(
        draw(st.lists(st.integers(-1, 1), min_size=3, max_size=3))), 0.0)
    tol = 10.0 ** draw(st.floats(-4.0, -0.5))
    moved = draw(st.one_of(st.none(), st.just(n_pts - 1), st.integers(0, n_pts - 1)))
    if moved is not None:
        direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        norm = np.linalg.norm(direction)
        if norm > 1e-3:
            pts[moved] += draw(st.floats(1.01, 3.0)) * tol * direction / norm
    return chart, pts, line, tol


@settings(max_examples=300, deadline=None)
@given(cover_cases())
def test_covers_decides_as_the_full_sweep(case):
    chart, pts, line, tol = case
    assert _covers(chart, pts, line, tol) == (_points_to_polyline(chart, pts, line) < tol)
    assert _covers(chart, line, pts, tol) == (_points_to_polyline(chart, line, pts) < tol)


def test_survey_batch_independence():
    # lockstep integration of a batch gives each seed the same result as alone
    Y = field_line_generator(beltrami_maxwell(t3_mode(1, 1.0)), "e", 0.0)
    seeds = SampleGrid.regular(T3, (2, 2, 2)).points
    batch = closed_orbit_survey(Y, seeds, 0.01, 10.0, 1e-5)
    alone = [closed_orbit_survey(Y, seed[None, :], 0.01, 10.0, 1e-5).results[0]
             for seed in seeds]
    assert batch.n_closed == 8
    assert [r.closed for r in batch.results] == [r.closed for r in alone]
    assert ([r.period_estimate for r in batch.results if r.closed]
            == [r.period_estimate for r in alone if r.closed])


def test_field_line_generator_of_beltrami_form_is_sharp():
    v = t3_mode(1, 1.0)
    Z = field_line_generator(v)
    want = metric_sharp(v.metric, v.form)
    pts = SampleGrid.regular(v.chart, 5).points
    assert Z.chart == v.chart
    assert np.array_equal(Z.evaluate(pts), want.evaluate(pts))


# -- Poincare sections -----------------------------------------------------------------


def test_poincare_constant_vertical_field():
    Y = const_field(T3, {2: 1.0})
    seed = np.array([[1.0, 2.0, 0.5]])
    out = poincare_section(Y, 2, 0.0, seed, s_max=14.0, step=0.01)[0]
    # crossings whenever x3 passes 0 (mod 2pi): s = 2pi - 0.5 + 2pi k
    want = [2 * math.pi - 0.5, 4 * math.pi - 0.5]
    assert len(out.s_values) == 2
    assert np.allclose(out.s_values, want, atol=1e-8)
    assert np.allclose(out.points[:, :2], [[1.0, 2.0], [1.0, 2.0]])
    assert np.all(out.directions == 1.0)
    assert np.all(out.transversality == 1.0)


def test_poincare_no_crossing_when_frozen():
    # the torus-mode flow freezes x3, so it never meets another x3 plane
    Z = vector_field(T3, {0: wave({2: 1}), 1: sin_wave({2: 1})})
    out = poincare_section(Z, 2, math.pi / 4, np.array([[0.0, 0.0, 0.0]]),
                           s_max=20.0, step=0.01)[0]
    assert len(out.s_values) == 0


@pytest.mark.parametrize("sign, seed_x1", [(1.0, 0.25), (-1.0, 0.75)])
def test_poincare_sample_on_the_plane_is_one_crossing(sign, seed_x1):
    # step 0.125 puts the sample at s = 0.25 exactly on x1 = 0.5; it counts
    # with the x1 >= 0.5 side, so the crossing is found once, at that sample
    Y = const_field(T3, {0: sign})
    out = poincare_section(Y, 0, 0.5, np.array([[seed_x1, 1.0, 2.0]]),
                           s_max=0.5, step=0.125)[0]
    assert out.s_values.tolist() == [0.25]
    assert out.directions.tolist() == [sign]
    assert out.points[:, 0].tolist() == [0.5]
    off = poincare_section(Y, 0, 0.5, np.array([[seed_x1 - 0.01 * sign, 1.0, 2.0]]),
                           s_max=0.5, step=0.125)[0]
    assert np.allclose(off.s_values, [0.26])


def test_poincare_tangential_crossing_kept_and_flagged():
    Y = const_field(T3, {0: 1e-9, 1: 1.0})
    out = poincare_section(Y, 0, 0.5, np.array([[0.5 - 5.05e-10, 0.0, 0.0]]),
                           s_max=1.0)[0]
    assert len(out.s_values) == 1
    assert abs(out.s_values[0] - 0.505) < 1e-6
    assert out.transversality.tolist() == [1e-9]
    assert out.warnings == [f"tangential crossing at s = {out.s_values[0]:.6g}"]


def test_poincare_abc_level_set_and_golden_run():
    # A = B = 1, C = 0 flow conserves I = cos x3 + sin x1; every crossing of
    # x3 = pi/2 must satisfy sin(x1) = I(seed).  The first crossings of a
    # verified run are frozen as a regression fixture.
    v = abc_flow(1, 1, 0)
    Z = metric_sharp(euclidean_metric(T3), v.form)
    seed = np.array([0.3, 0.0, 1.3])
    out = poincare_section(Z, 2, math.pi / 2, seed[None, :],
                           s_max=40.0, step=5e-3)[0]
    i0 = math.cos(seed[2]) + math.sin(seed[0])
    levels = np.cos(out.points[:, 2]) + np.sin(out.points[:, 0])
    assert len(out.s_values) >= 4
    assert np.max(np.abs(levels - i0)) < 1e-10
    golden_s = [0.3015795772, 2.3560215552, 11.0537267669, 13.1081687455]
    golden_x1 = [0.5980343179, 2.5435583372, 0.5980343189, 2.5435583389]
    assert np.allclose(out.s_values[:4], golden_s, atol=1e-6)
    assert np.allclose(out.points[:4, 0], golden_x1, atol=1e-6)
    assert out.directions[:4].tolist() == [1.0, -1.0, 1.0, -1.0]


# -- CSV export --------------------------------------------------------------------------


def test_orbit_csv_round_trip(tmp_path):
    Y = const_field(T3, {0: 1.0})
    tr = integrate(Y, [0.0, 0.5, 1.0], 0.05, 200)
    path = tmp_path / "orbit.csv"
    write_orbit_csv(tr, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "x1", "x2", "x3", "wind_x1", "wind_x2", "wind_x3"]
    assert len(rows) == 202
    last = rows[-1]
    assert float(last[0]) == pytest.approx(10.0)
    # x1 wrapped into [0, 2pi); 10.0 / 2pi means one completed wrap
    assert 0.0 <= float(last[1]) < 2 * math.pi
    assert last[4] == "1"
    raw = path.read_bytes()
    assert b"\r" not in raw
