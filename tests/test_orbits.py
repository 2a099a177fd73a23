"""Field-line integration, closure detection, surveys and CSV export."""

import csv
import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmkit import (BmkitError, DomainError, SampleGrid, VectorField, abc_flow,
                   beltrami_maxwell, closed_orbit_survey, detect_closure, euclidean3,
                   euclidean_metric, field_line_generator, integrate, j0_field,
                   metric_sharp, solid_torus, solid_torus_mode,
                   t3_mode, torus3, vector_field, write_orbit_csv)
from bmkit.catalog import CATALOG, build_catalog_field
from bmkit.forms import _TWO, _rk4_advance, _rk4_step, fd_partial
from bmkit.orbits import NONE_FOUND, SurveyResult, _covers, _refine_return, integrate_batch
from bmkit.scalars import (constant, coordinate, from_function, leaf, monomial, power_kernel,
                           sin_wave, wave)

T3 = torus3()
R3 = euclidean3()
TWO_PI = 2 * math.pi


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


def _integrate_batch_reference(Y, seeds, step, n_steps, wrap=True):
    """The lockstep loop before the flow read the plan directly: the field is
    evaluated through VectorField.evaluate, at the wrapped state unless wrap is
    False, and the domain tested on every step."""
    chart = Y.chart
    seeds = chart.as_points(seeds)
    n = seeds.shape[0]
    samples = np.full((n_steps + 1, n, chart.dim), np.nan)
    samples[0] = seeds
    lengths = np.full(n, n_steps + 1, dtype=int)
    active = np.arange(n)
    state = seeds.copy()

    def f(p):
        return Y.evaluate(chart.wrap(p) if wrap else p)

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
    # a harmonic field periodic on T3: its flow reads the unwrapped state
    want = _integrate_batch_reference(Y, seeds, 0.02, 300, wrap=False)
    assert samples.tobytes() == want[0].tobytes()
    assert lengths.tolist() == want[1].tolist() == [301] * 20
    assert statuses == want[2]
    # and differs from the flow of the wrapped state at round-off only
    wrapped = _integrate_batch_reference(Y, seeds, 0.02, 300)[0]
    assert np.max(np.abs(samples - wrapped)) <= 1e-12


# fields whose every leaf on a periodic axis is a cos of an integer harmonic: the flow
# reads the raw state
PERIODIC = {
    "t3_n1": lambda: field_line_generator(beltrami_maxwell(t3_mode(1, 1.0)), "e", 0.3),
    "t3_n2": lambda: field_line_generator(beltrami_maxwell(t3_mode(2, 0.8)), "e", 0.3),
    "t3_n11": lambda: field_line_generator(t3_mode(11, 1.0)),
    "abc": lambda: metric_sharp(euclidean_metric(T3), abc_flow(1.0, 0.7, 0.4).form),
    "solid_torus": lambda: field_line_generator(solid_torus_mode()),
}
# any other field on T3 keeps the wrap; x3 moves, so the state leaves [0, 2pi)
WRAPPED = {
    "half_harmonic": lambda: vector_field(T3, {0: wave({2: 0.5}), 2: constant(1.0)}),
    "monomial": lambda: vector_field(T3, {0: monomial(2, 2), 2: constant(1.0)}),
    "from_function": lambda: vector_field(
        T3, {0: from_function(lambda p: np.sin(p[..., 2])), 2: constant(1.0)}),
    "fd_partial": lambda: vector_field(T3, {0: fd_partial(T3, wave({2: 1.0}), 2),
                                            2: constant(1.0)}),
    "bessel": lambda: vector_field(T3, {0: j0_field(2, 1.0), 2: constant(1.0)}),
}


def _state(chart, n=40):
    """Points over several periods of every periodic axis (r inside the solid torus)."""
    pts = np.random.default_rng(5).uniform(-8.0, 14.0, (n, 3))
    if not chart.axes[0].is_periodic:
        pts[:, 0] = np.linspace(0.2, 0.9, n)
    return pts


@pytest.mark.parametrize("name", sorted(PERIODIC))
def test_flow_of_a_field_periodic_on_its_chart_reads_the_raw_state(name):
    Y = PERIODIC[name]()
    pts = _state(Y.chart)
    assert not Y.flow_wraps
    assert Y.flow(pts).tobytes() == Y.evaluate(pts).tobytes()


@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_flow_of_any_other_field_reads_the_wrapped_state(name):
    Y = WRAPPED[name]()
    pts = _state(T3)
    assert Y.flow_wraps
    assert Y.flow(pts).tobytes() == Y.evaluate(T3.wrap(pts)).tobytes()
    seeds = pts[:6]
    samples, lengths, statuses = integrate_batch(Y, seeds, 0.05, 150)
    want = _integrate_batch_reference(Y, seeds, 0.05, 150)
    assert samples.tobytes() == want[0].tobytes()
    assert lengths.tolist() == want[1].tolist() and statuses == want[2]


def _with_wrapped_flow(Y):
    """A copy of Y whose flow evaluates it at the wrapped state, whatever its leaves."""
    ref = VectorField(Y.chart, Y.components)

    def flow(p):
        return ref.evaluate(ref.chart.wrap(p))

    flow.ops = Y.flow.ops + 1   # and the wrap
    ref.__dict__.update(flow=flow, flow_wraps=True)
    return ref


SURVEYS = {
    # rational lines x3 = 0 and pi/4, two seeds on each, and the irrational x3 = atan(sqrt 2);
    # some seeds sit whole periods away from the fundamental domain
    "t3": (lambda: field_line_generator(beltrami_maxwell(t3_mode(1, 1.0)), "e", 0.0),
           [[0.5, 1.0, 0.0], [3.0, 1.0, TWO_PI], [0.2, 0.4, math.pi / 4],
            [1.2, 1.4, math.pi / 4 - TWO_PI], [0.1, 0.2, math.atan(math.sqrt(2.0)) + 2 * TWO_PI]]),
    # ABC(1, 1, 0): the closed lines x1 = pi/2, x3 = 0 (two seeds) and x1 = -pi/2, x3 = pi,
    # and a seed on an open line
    "abc": (lambda: metric_sharp(euclidean_metric(T3), abc_flow(1, 1, 0).form),
            [[math.pi / 2, 0.3, 0.0], [math.pi / 2 + TWO_PI, 2.0, -TWO_PI],
             [-math.pi / 2, 1.0, math.pi], [0.3, 0.0, 1.3]]),
}


@pytest.mark.parametrize("name", sorted(SURVEYS))
def test_survey_closes_as_with_the_wrapped_flow(name):
    make, seeds = SURVEYS[name]
    Y = make()
    got = closed_orbit_survey(Y, np.array(seeds), 0.01, 10.0, 1e-5)
    want = closed_orbit_survey(_with_wrapped_flow(Y), np.array(seeds), 0.01, 10.0, 1e-5)
    assert not Y.flow_wraps
    assert got.integration_counts["wrap"] is False and want.integration_counts["wrap"] is True
    assert 0 < got.n_closed < len(seeds)
    assert ([(r.closed, r.winding, r.note) for r in got.results]
            == [(r.closed, r.winding, r.note) for r in want.results])
    assert got.unique_orbits == want.unique_orbits
    assert len(got.unique_orbits) == 2
    assert np.allclose(got.periods, want.periods, rtol=1e-9, atol=0.0)


def test_integrate_batch_matches_reference_loop_with_an_exit():
    # on the solid torus (0.001 <= r <= 1) seeds leave the r interval: the third of the first
    # case at its 9th step, a seed at r = 0.99 at its first, and in the last case every seed
    # (the batch stops after the 8th step); rows are written whole until a seed exits
    Y = field_line_generator(solid_torus_mode(), "e")
    seeds = np.array([[0.3, 0.1, 0.2], [0.6, 1.0, 2.0], [0.9, 2.0, 1.0], [0.5, 4.0, 5.0]])
    cases = [(seeds, 0.05, 20, [21, 21, 9, 21]),
             (np.vstack([seeds, [0.99, 2.0, 1.0]]), 0.05, 20, [21, 21, 9, 21, 1]),
             (np.vstack([seeds[1:3], [0.99, 2.0, 1.0]]), 0.2, 40, [8, 3, 1])]
    for seeds, step, n_steps, lengths_want in cases:
        samples, lengths, statuses = integrate_batch(Y, seeds, step, n_steps)
        want = _integrate_batch_reference(Y, seeds, step, n_steps)
        assert lengths.tolist() == want[1].tolist() == lengths_want
        assert statuses == want[2] == [
            "completed" if m == n_steps + 1 else "exited_domain" for m in lengths_want]
        assert samples.tobytes() == want[0].tobytes()


def test_step_must_be_positive():
    with pytest.raises(BmkitError):
        integrate(const_field(R3, {0: 1.0}), [0, 0, 0], -0.1, 100)


@pytest.mark.parametrize("call, match, in_batch", [
    (lambda Y: closed_orbit_survey(Y, [[0.0, 0.0, 0.0]], 0.0, 10.0), "step and s_max", False),
    (lambda Y: closed_orbit_survey(Y, [[0.0, 0.0, 0.0]], 0.01, -10.0), "step and s_max", False),
    (lambda Y: integrate(Y, [0.0, 0.0, 0.0], 0.01, -5), "n_steps >= 0", True),
    (lambda Y: integrate(Y, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 0.01, 100), "one seed, not 2",
     True),
], ids=["survey_step_0", "survey_s_max_negative", "integrate_n_steps_negative",
        "integrate_two_seeds"])
def test_budgets_out_of_range_raise(call, match, in_batch, monkeypatch):
    # each raises a BmkitError, not ZeroDivisionError, numpy's negative dimensions or a trace
    # of the first seed alone; a survey's before integrate_batch, which checks integrate's
    if not in_batch:
        _never_integrated(monkeypatch)
    with pytest.raises(BmkitError, match=match):
        call(const_field(T3, {0: 1.0}))


@pytest.mark.parametrize("seed", [[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
def test_seeds_outside_the_chart_raise_before_integrating(seed):
    # r = 0, 100 and 5 lie outside the solid torus's r interval [0.001, 1]
    Y = field_line_generator(solid_torus_mode(), "e")
    seeds = [[0.5, 1.0, 2.0], seed]
    for call in (lambda: integrate(Y, seed, 0.01, 200),
                 lambda: integrate_batch(Y, seeds, 0.01, 200),
                 lambda: closed_orbit_survey(Y, seeds, 0.01, 2.0)):
        with pytest.raises(DomainError, match=re.escape(f"outside chart domain: {seed}")):
            call()


def _never_integrated(monkeypatch):
    import bmkit.orbits

    def integrate_batch(*args):
        raise AssertionError("integrated")
    monkeypatch.setattr(bmkit.orbits, "integrate_batch", integrate_batch)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-5])
def test_survey_tol_out_of_range_raises_before_integrating(tol, monkeypatch):
    # as `bmk survey --tol` refuses it: no seed is reported "none found within budget"
    Y = field_line_generator(solid_torus_mode(), "e")
    _never_integrated(monkeypatch)
    with pytest.raises(BmkitError, match=re.escape(f"tol must be > 0, not {tol!r}")):
        closed_orbit_survey(Y, [[0.5, 1.0, 0.0]], 0.01, 2.0, tol)


def test_seeds_outside_the_chart_are_named_as_given(monkeypatch):
    # x2 = 7 is wrapped to 0.7168..., but the seed is reported as given
    Y = field_line_generator(solid_torus_mode(), "e")
    _never_integrated(monkeypatch)
    with pytest.raises(DomainError, match=re.escape("outside chart domain: [5.0, 7.0, 0.0]")):
        closed_orbit_survey(Y, [[0.5, 1.0, 0.0], [5.0, 7.0, 0.0]], 0.01, 2.0)


@pytest.mark.parametrize("s_max, step", [(1e300, 1e-2), (1e10, 1e-320)])
def test_step_count_too_large_to_store(s_max, step, monkeypatch):
    # rejected before anything is allocated
    _never_integrated(monkeypatch)
    with pytest.raises(BmkitError, match="cannot be stored"):
        closed_orbit_survey(const_field(T3, {0: 1.0}), [[0.0, 0.0, 0.0]], step, s_max)


# -- the generated flow and the RK4 step -----------------------------------------------


def _negative_zero_phase(phase):
    """Y^1 = -x1 + phase as a u**1 leaf: at x1 = 0 its value is phase + (-0.0)."""
    return vector_field(T3, {1: leaf(power_kernel(1), {0: -1.0}, phase)})


# the e and h generators of every catalog entry at its defaults (a Beltrami form has one)
STEPPED = {f"{name}-{which}": functools.partial(
    field_line_generator, build_catalog_field(name), which, 0.3)
    for name, entry in CATALOG.items()
    for which in (("e", "h") if entry.kind == "maxwell" else ("e",))}
STEPPED.update(half_harmonic=WRAPPED["half_harmonic"], fd_partial=WRAPPED["fd_partial"],
               negative_zero_phase=lambda: _negative_zero_phase(-0.0))


@pytest.mark.parametrize("name", sorted(STEPPED))
def test_generated_step_is_the_rk4_step_of_the_flow_bitwise(name):
    # the generated flow is the plan interpreter's evaluation, so an RK4 step over it is
    # bitwise the step over the interpreted flow
    Y = STEPPED[name]()
    y = _state(Y.chart, 12)
    if Y.chart.axes[0].is_periodic:
        y[0] = [0.0, -0.0, 0.0]   # where a signed zero shows

    def interpreted(p):
        return Y.evaluate(Y.chart.wrap(p) if Y.flow_wraps else p)

    assert Y.flow(y).tobytes() == interpreted(y).tobytes()
    for h in (0.01, -0.003, 0.5):
        assert _rk4_step(Y.flow, y, h).tobytes() == _rk4_step(interpreted, y, h).tobytes()
    for span in (0.07, -0.05):   # several equal sub-steps of at most h_max
        n = math.ceil(abs(span) / 0.02)
        want = y
        for _ in range(n):
            want = _rk4_step(Y.flow, want, span / n)
        assert n > 1 and _rk4_advance(Y.flow, y, span, 0.02).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(STEPPED))
def test_generated_step_binds_every_number_as_a_0d_float64_array(name):
    # numpy takes a 0-d array operand on a faster path than a Python float or np.float64
    values = STEPPED[name]().flow.__globals__.values()
    assert not any(isinstance(v, (int, float)) for v in values)
    numbers = [v for v in values if not callable(v)]
    assert numbers and all(isinstance(v, np.ndarray) and v.shape == ()
                           and v.dtype == np.float64 for v in [*numbers, _TWO])
    assert _TWO == 2.0


def _textbook_rk4(f, y, h):
    """One classical RK4 step of y' = f(y) on a list of Python floats."""
    k1 = f(y)
    k2 = f([a + 0.5 * h * k for a, k in zip(y, k1)])
    k3 = f([a + 0.5 * h * k for a, k in zip(y, k2)])
    k4 = f([a + h * k for a, k in zip(y, k3)])
    return [a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def test_rk4_step_is_the_textbook_formula_bitwise():
    # arithmetic alone in f, so each numpy operation rounds as the Python float one does
    def f(y):
        return [y[1] * y[2] - 0.5 * y[0], 1.0 - y[0] * y[0], y[0] * y[1] + 0.25 * y[2]]

    def f_rows(y):
        return np.stack(f(y.T), axis=-1)

    ys = np.random.default_rng(8).uniform(-3.0, 3.0, (10, 3))
    for h in (0.1, -0.03, 1.7, 1e-9):
        want = np.array([_textbook_rk4(f, list(map(float, y)), h) for y in ys])
        assert _rk4_step(f_rows, ys, h).tobytes() == want.tobytes()


def test_step_keeps_the_sign_of_a_zero_phase():
    # -0.0 + (-0.0) is -0.0 and 0.0 + (-0.0) is 0.0; the step carries that into x1
    y = np.array([[0.0, -0.0, 0.0]])
    for phase, sign in ((-0.0, -1.0), (0.0, 1.0)):
        x1 = _rk4_step(_negative_zero_phase(phase).flow, y, 0.1)[0, 1]
        assert math.copysign(1.0, x1) == sign


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


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-5])
def test_detect_closure_tol_out_of_range_raises(tol):
    # as closed_orbit_survey refuses it, on a trace that closes at tol 1e-5: no "none found"
    Z = field_line_generator(beltrami_maxwell(t3_mode(1, 1.0)), "e", 0.0)
    tr = integrate(Z, [0.0, 0.0, 0.0], 0.01, 700)
    assert detect_closure(tr, 1e-5, Z).closed
    with pytest.raises(BmkitError, match=re.escape(f"tol must be > 0, not {tol!r}")):
        detect_closure(tr, tol, Z)


def test_closure_needs_enough_samples():
    Y = const_field(T3, {0: 1.0})
    tr = integrate(Y, [0, 0, 0], 0.01, 50)
    with pytest.raises(BmkitError):
        detect_closure(tr, 1e-5, Y)


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
    # the (2, 1, 0) line has two sampled returns; detect_closure refines them in
    # scan order and reports the first that closes, bit for bit
    Z = field_line_generator(beltrami_maxwell(t3_mode(1, 1.0)), "e", 0.0)
    tr = integrate(Z, [0.0, 0.0, math.atan(0.5)], 0.01, 3000)
    d = T3.distance(tr.samples, tr.samples[0])
    cands = _loop_candidates(tr, d, tol)
    assert len(cands) == 2
    refined = [_refine_return(Z, tr, j)[:2] for j in cands]
    closing = [(s, dist) for s, dist in refined if dist < tol and s > 10 * tr.step]
    res = detect_closure(tr, tol, Z)
    assert closing and res.closed
    assert (res.period_estimate, res.return_distance) == closing[0]


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


def test_survey_of_seeds_far_outside_the_domain_is_that_of_their_wrap():
    # x + 2pi m on the x1 circle through x: from 1e17 an unwrapped RK4 increment rounds
    # away, so the state never moved and read as a closure of period 0.11
    Z = field_line_generator(beltrami_maxwell(t3_mode(1, 1.0)), "e", 0.0)
    x = [0.7, 1.3, 0.0]
    seeds = np.array([x] + [[x[0] + TWO_PI * m, x[1], x[2]] for m in (1e3, 1e9, 1e17)]
                     + [[1e300, x[1], x[2]]])
    sv = closed_orbit_survey(Z, seeds, 0.01, 10.0, 1e-5)
    base = sv.results[0]
    assert base.closed and base.winding == (1, 0, 0)
    assert abs(base.period_estimate - TWO_PI) < 1e-5
    for res in sv.results[1:]:
        assert res.closed and res.winding == base.winding
        assert abs(res.period_estimate - base.period_estimate) < 1e-5
    assert sv.unique_orbits == [0]
    assert sv.seeds.tobytes() == seeds.tobytes()   # reported as given


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
