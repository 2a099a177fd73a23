"""Exterior-calculus operations: wedge, d, interior product, Lie derivative."""

import math

import numpy as np
import pytest

from bmkit import (DegreeError, abc_flow, dx, euclidean3, exterior_derivative,
                   interior_product, lie_derivative, lie_derivative_flow,
                   make_form, scalar_form, sin_wave,
                   spatial_exterior_derivative, t3_mode, time_derivative,
                   torus3, vector_field, wave, wedge)
from bmkit import euclidean_metric, hodge_star, lift_form, metric_sharp, restrict_form, spacetime
from bmkit.scalars import constant, from_function

RNG = np.random.default_rng(42)
CHART = torus3()
PTS = RNG.uniform(0, 2 * math.pi, (40, 3))


def fn_form(form):
    """form with each coefficient behind a plain function: no partials, so d takes FD."""
    return make_form(form.chart, form.degree,
                     {idx: from_function(c) for idx, c in form.coeffs.items()})


def rand_form(chart, degree, n_terms=2, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = {}
    from itertools import combinations
    idxs = list(combinations(range(chart.dim), degree))
    for idx in idxs[:n_terms]:
        freq = {a: int(rng.integers(1, 3)) for a in range(chart.dim)}
        coeffs[idx] = wave(freq, float(rng.uniform(0, 2 * math.pi)),
                           float(rng.uniform(0.5, 2.0)))
    return make_form(chart, degree, coeffs)


# -- wedge -------------------------------------------------------------------


def test_wedge_basis_products():
    d1, d2 = dx(CHART, 0), dx(CHART, 1)
    self_wedge = wedge(d1, d1)
    assert self_wedge.max_abs(PTS) == 0.0
    w = wedge(d1, d2)
    assert np.allclose(w.coefficient((0, 1))(PTS), 1.0)


def test_wedge_graded_antisymmetry():
    # a ^ b = (-1)^{pq} b ^ a on random 1- and 2-forms, exactly
    for pa, pb, seed in [(1, 1, 1), (1, 2, 2), (2, 1, 3), (0, 2, 4)]:
        a, b = rand_form(CHART, pa, seed=seed), rand_form(CHART, pb, seed=seed + 10)
        lhs = wedge(a, b).coefficient_table(PTS)
        rhs = wedge(b, a).coefficient_table(PTS)
        sign = (-1.0) ** (pa * pb)
        assert np.array_equal(lhs, sign * rhs)


def test_wedge_v_dv_volume_identity():
    # v ^ dv for the unit torus mode has volume coefficient -1 (= k * norm^2)
    v = t3_mode(1, 1.0)
    w = wedge(v.form, exterior_derivative(v.form))
    p = np.array([[0.0, 0.0, math.pi / 4]])
    assert np.allclose(w.coefficient((0, 1, 2))(p), -1.0, atol=1e-14)


def test_wedge_degree_overflow():
    a = rand_form(CHART, 2)
    with pytest.raises(DegreeError):
        wedge(a, a)


def _old_index_check(idx, dim, degree):
    """The multi-index predicate DifferentialForm checked entry by entry: right length, in
    range and strictly increasing."""
    return len(idx) == degree and all(0 <= a < dim for a in idx) and list(idx) == sorted(set(idx))


@pytest.mark.parametrize("chart", [CHART, spacetime(CHART)], ids=["dim3", "dim4"])
def test_form_index_checks_match_the_old_predicate(chart):
    """DifferentialForm and make_form accept exactly the multi-indices of the entry-by-entry
    predicate: every tuple of length 0..dim+1 with entries in -1..dim (unsorted and repeated
    ones among them), as Python ints and as numpy ints, for every degree.  coefficient answers
    exactly those, with the stored field or ZERO, and raises DegreeError on every other."""
    from itertools import product
    from bmkit.forms import DifferentialForm
    from bmkit.scalars import ZERO

    dim, c = chart.dim, constant(2.0)
    tuples = [t for n in range(dim + 2) for t in product(range(-1, dim + 1), repeat=n)]
    for degree in range(dim + 1):
        held = {idx: constant(1.0 + k) for k, idx in enumerate(
            t for t in tuples if _old_index_check(t, dim, degree)) if k % 2 == 0}
        form = make_form(chart, degree, held)
        for idx in tuples:
            for key in (idx, tuple(map(np.int64, idx))):
                for build in (DifferentialForm, make_form):
                    if _old_index_check(idx, dim, degree):
                        assert build(chart, degree, {key: c}).coeffs == {idx: c}
                    else:
                        with pytest.raises(DegreeError):
                            build(chart, degree, {key: c})
                if _old_index_check(idx, dim, degree):
                    assert form.coefficient(key) is held.get(idx, ZERO)
                else:
                    with pytest.raises(DegreeError):
                        form.coefficient(key)


def test_coefficient_refuses_an_index_the_form_cannot_hold():
    form = t3_mode(1, 1.0).form
    for idx in [(7,), (0, 1), (-1,), (1, 0), (), (0, 0)]:
        with pytest.raises(DegreeError, match=r"bad multi-index"):
            form.coefficient(idx)


def test_merge_indices_matches_brute_force():
    """merge_indices (memoized) is the sorted union and the parity of the permutation that
    sorts left + right, or None on overlap, for every pair of increasing indices in dim 4."""
    from itertools import combinations
    from bmkit.forms import merge_indices

    increasing = [t for k in range(5) for t in combinations(range(4), k)]
    for left in increasing:
        for right in increasing:
            joined = left + right
            if len(set(joined)) < len(joined):
                want = None
            else:
                order = sorted(range(len(joined)), key=joined.__getitem__)
                swaps = sum(order[i] > order[j] for i in range(len(order))
                            for j in range(i + 1, len(order)))
                want = (-1.0 if swaps % 2 else 1.0), tuple(sorted(joined))
            assert merge_indices(left, right) == want
            assert merge_indices(left, right) == want   # again, from the memo


def test_wedge_chart_mismatch():
    from bmkit import ChartMismatchError
    a = dx(CHART, 0)
    b = dx(euclidean3(), 0)
    with pytest.raises(ChartMismatchError):
        wedge(a, b)


# -- exterior derivative -------------------------------------------------------


def test_d_constant_is_zero():
    f = scalar_form(CHART, 3.7)
    assert exterior_derivative(f).max_abs(PTS) == 0.0


def test_d_torus_mode_matches_hand_computation():
    # d(cos x3 dx1 + sin x3 dx2) = sin x3 dx1^dx3 - cos x3 dx2^dx3
    v = t3_mode(1, 1.0).form
    dv = exterior_derivative(v)
    x3 = PTS[:, 2]
    assert np.allclose(dv.coefficient((0, 2))(PTS), np.sin(x3), atol=1e-14)
    assert np.allclose(dv.coefficient((1, 2))(PTS), -np.cos(x3), atol=1e-14)
    assert dv.coefficient((0, 1)).is_zero


def test_d_squared_analytic_and_fd():
    f = make_form(CHART, 0, {(): sin_wave({0: 1}) * wave({1: 1})})
    dd_analytic = exterior_derivative(exterior_derivative(f))
    assert dd_analytic.max_abs(PTS) < 1e-12
    dd_fd = exterior_derivative(exterior_derivative(fn_form(f)))
    assert dd_fd.max_abs(PTS) < 1e-5


def test_fd_matches_analytic_partials():
    a = rand_form(CHART, 1, seed=7)
    d_an = exterior_derivative(a)
    d_fd = exterior_derivative(fn_form(a))
    diff = (d_an - d_fd).max_abs(PTS)
    assert diff < 1e-10


def test_fd_one_sided_near_interval_boundary():
    # f(r) = r^3 on [0.1, 1]: derivative at the boundary needs one-sided stencils
    from bmkit import solid_torus
    chart = solid_torus(a=1.0, r_min=0.1)
    f = make_form(chart, 0, {(): from_function(lambda p: p[..., 0] ** 3)})
    df = exterior_derivative(f)
    edge = np.array([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0], [0.55, 0.0, 0.0]])
    got = df.coefficient((0,))(edge)
    assert np.allclose(got, 3 * edge[:, 0] ** 2, atol=1e-9)


def test_fd_outside_domain_raises():
    from bmkit import DomainError, solid_torus
    chart = solid_torus(a=1.0, r_min=0.1)
    f = make_form(chart, 0, {(): from_function(lambda p: p[..., 0] ** 2)})
    df = exterior_derivative(f)
    with pytest.raises(DomainError):
        df.coefficient((0,))(np.array([[0.01, 0.0, 0.0]]))


def test_spacetime_derivative_split():
    # d = d_spatial + dx0 ^ d/dx0, checked coefficientwise on a spacetime form
    c4 = spacetime(CHART)
    a = make_form(c4, 1, {(1,): wave({0: 1}) * sin_wave({3: 2})})
    full = exterior_derivative(a)
    spatial = spatial_exterior_derivative(a)
    timed = time_derivative(a)
    pts4 = RNG.uniform(0, 2 * math.pi, (30, 4))
    for idx in full.indices:
        got = full.coefficient(idx)(pts4)
        if 0 in idx:
            rest = tuple(i for i in idx if i != 0)
            want = timed.coefficient(rest)(pts4)
        else:
            want = spatial.coefficient(idx)(pts4)
        assert np.allclose(got, want, atol=1e-14)


# -- interior product -----------------------------------------------------------


def test_interior_product_signs():
    d12 = wedge(dx(CHART, 0), dx(CHART, 1))
    e1 = vector_field(CHART, {0: constant(1.0)})
    e2 = vector_field(CHART, {1: constant(1.0)})
    assert np.allclose(interior_product(e1, d12).coefficient((1,))(PTS), 1.0)
    assert np.allclose(interior_product(e2, d12).coefficient((0,))(PTS), -1.0)


def test_interior_product_reeb_contraction():
    # i_Y (star3 v) = 0 for Y along the mode direction
    v = t3_mode(1, 1.0)
    g = euclidean_metric(CHART)
    omega = hodge_star(g, v.form)
    Y = metric_sharp(g, v.form)
    assert interior_product(Y, omega).max_abs(PTS) < 1e-15


def test_interior_product_nilpotent():
    for seed in range(3):
        a = rand_form(CHART, 2, seed=seed)
        X = vector_field(CHART, {0: wave({1: 1}), 1: sin_wave({2: 1}),
                                 2: constant(0.5)})
        twice = interior_product(X, interior_product(X, a))
        assert twice.max_abs(PTS) < 1e-15


def test_interior_product_degree_zero_rejected():
    X = vector_field(CHART, {0: constant(1.0)})
    with pytest.raises(DegreeError):
        interior_product(X, scalar_form(CHART, 1.0))


# -- Lie derivative ---------------------------------------------------------------


def test_lie_derivative_zero_field():
    X = vector_field(CHART, {})
    a = rand_form(CHART, 1, seed=5)
    assert lie_derivative(X, a).max_abs(PTS) == 0.0


def test_lie_derivative_reeb_invariance():
    # L_Y lambda = 0 and L_Y Omega = 0 for the torus-mode Reeb field
    v = t3_mode(1, 1.0)
    g = euclidean_metric(CHART)
    omega = hodge_star(g, v.form)
    Y = metric_sharp(g, v.form)  # norm^2 = 1, so Y is already the Reeb field
    assert lie_derivative(Y, v.form).max_abs(PTS) < 1e-6
    assert lie_derivative(Y, omega).max_abs(PTS) < 1e-6


def _flow_pullback_misses(lie):
    """The cases where lie(X, a) is max(1e-5, 1e-3 max|L|) or more from the flow pullback L,
    whose RK4 step of tau = 1e-4 puts it O(tau) off.

    Under Y = sharp(v) of the t3 mode both Cartan terms vanish on v and *v.  Under
    X = sharp(v) of the ABC flow max|L| is about 2 to 4: on its v and on dx1 only d(i_X a)
    is nonzero, on the t3 mode's v both terms are; on its *v L is 0."""
    g = euclidean_metric(CHART)
    t3, abc = t3_mode(2, 1.5), abc_flow(2, 1, 0.5)
    Y, X = metric_sharp(g, t3.form), metric_sharp(g, abc.form)
    cases = {"t3 v": (Y, t3.form), "t3 *v": (Y, hodge_star(g, t3.form)),
             "abc v": (X, abc.form), "abc *v": (X, hodge_star(g, abc.form)),
             "dx1": (X, dx(CHART, 0)), "t3 v under abc": (X, t3.form)}
    sample = PTS[:10]
    misses = []
    for name, (field, a) in cases.items():
        flow = lie_derivative_flow(field, a, sample)
        bound = max(1e-5, 1e-3 * np.max(np.abs(flow)))
        if np.max(np.abs(lie(field, a).coefficient_table(sample) - flow)) >= bound:
            misses.append(name)
    return misses


def test_lie_derivative_matches_flow_pullback():
    assert _flow_pullback_misses(lie_derivative) == []


@pytest.mark.parametrize("term", [
    lambda X, a: exterior_derivative(interior_product(X, a)),   # i_X(d a) dropped
    lambda X, a: interior_product(X, exterior_derivative(a)),   # d(i_X a) dropped
], ids=["d_i_X", "i_X_d"])
def test_flow_pullback_rejects_a_cartan_formula_missing_a_term(term):
    assert "t3 v under abc" in _flow_pullback_misses(term)


def test_lie_derivative_top_degree():
    # L_X (vol) = d(i_X vol); exercised on a 3-form over the 3-torus
    X = vector_field(CHART, {0: sin_wave({1: 1})})
    vol = make_form(CHART, 3, {(0, 1, 2): wave({0: 1})})
    out = lie_derivative(X, vol)
    assert out.degree == 3
    # independent value: L_X(f vol) = (X^a d_a f + f div X) vol, div X = 0 here
    want = sin_wave({1: 1})(PTS) * sin_wave({0: 1}, 0.0, -1.0)(PTS)
    got = out.coefficient((0, 1, 2))(PTS)
    assert np.allclose(got, want, atol=1e-12)


# -- FD partials: one inner run per stencil grid ---------------------------------

_CENTRAL = ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12))
_FORWARD = ((0, -25.0 / 12), (1, 48.0 / 12), (2, -36.0 / 12), (3, 16.0 / 12), (4, -3.0 / 12))
_BACKWARD = tuple((-o, -w) for o, w in _FORWARD)


def per_node_fd(chart, sf, axis, base_step=1e-4):
    """The FD partial evaluated node by node, each stencil offset in its own call."""
    ax = chart.axes[axis]
    h = base_step

    def stencil_eval(pts, stencil):
        total = np.zeros(pts.shape[:-1])
        for offset, weight in stencil:
            shifted = np.array(pts, copy=True)
            shifted[..., axis] += offset * h
            total += weight * sf(chart.wrap(shifted))
        return total / h

    def value(pts):
        pts = np.asarray(pts, dtype=float)
        chart.require_inside(pts)
        x = pts[..., axis]
        if ax.is_periodic or (np.isinf(ax.lo) and np.isinf(ax.hi)):
            return stencil_eval(pts, _CENTRAL)
        out = np.empty(pts.shape[:-1])
        near_lo = x < ax.lo + 2 * h
        near_hi = x > ax.hi - 2 * h
        mid = ~(near_lo | near_hi)
        for mask, stencil in ((mid, _CENTRAL), (near_lo, _FORWARD), (near_hi, _BACKWARD)):
            if np.any(mask):
                out[mask] = stencil_eval(pts[mask], stencil)
        return out

    return from_function(value)


def fd_cases():
    from bmkit import coordinate, solid_torus_mode
    c4 = spacetime(CHART)
    st = solid_torus_mode(k_c=2.0, beta=1.0, sign="minus")
    r_lo, r_hi = st.chart.axes[0].lo, st.chart.axes[0].hi
    r = np.array([r_lo, r_lo + 1e-4, r_lo + 3e-4, 0.5, r_hi - 3e-4, r_hi - 1e-4, r_hi])
    st_pts = np.column_stack([np.repeat(r, 3), np.tile([0.1, 2.0, 6.2], len(r)),
                              np.tile([6.28, 3.0, 0.0], len(r))])
    r3 = euclidean3()
    r3_form = make_form(r3, 1, {(0,): wave({0: 1.0, 2: 0.5}) * coordinate(1),
                                (2,): sin_wave({1: 2.0}, 0.3)})
    t4 = make_form(c4, 1, {(0,): wave({0: 1.0, 2: 1.0}),
                           (1,): wave({0: 1.0}) * sin_wave({3: 2.0}),
                           (3,): sin_wave({0: 2.0, 1: 1.0}, 0.2, 1.5)})
    pts4 = np.column_stack([RNG.uniform(-1, 1, 40), PTS])
    return {"T3": (rand_form(CHART, 1, 3, seed=3), PTS),
            "R3": (r3_form, RNG.uniform(-4, 4, (40, 3))),
            "spacetime": (t4, pts4),
            "solid_torus": (st.form, st_pts)}


@pytest.mark.parametrize("case", ["T3", "R3", "spacetime", "solid_torus"])
def test_fd_derivative_table_equals_per_node_stencils(case, monkeypatch):
    import bmkit.forms
    form, pts = fd_cases()[case]
    batched = exterior_derivative(fn_form(form)).coefficient_table(pts)
    monkeypatch.setattr(bmkit.forms, "fd_partial", per_node_fd)
    reference = exterior_derivative(fn_form(form)).coefficient_table(pts)
    assert np.array_equal(batched, reference)


def test_fd_time_derivative_equals_per_node_stencils(monkeypatch):
    import bmkit.forms
    form, pts = fd_cases()["spacetime"]
    batched = time_derivative(fn_form(form)).coefficient_table(pts)
    monkeypatch.setattr(bmkit.forms, "fd_partial", per_node_fd)
    assert np.array_equal(batched, time_derivative(fn_form(form)).coefficient_table(pts))


def test_fd_node_has_no_analytic_partials():
    df = exterior_derivative(fn_form(rand_form(CHART, 1, seed=4)))
    coeff = next(iter(df.coeffs.values()))
    assert not df.has_analytic_partials
    assert coeff.partial(0) is None


def test_fd_table_outside_domain_raises():
    from bmkit import DomainError, solid_torus
    chart = solid_torus(a=1.0, r_min=0.1)
    f = make_form(chart, 1, {(1,): wave({2: 1.0}) * from_function(lambda p: p[..., 0] ** 2)})
    df = exterior_derivative(f)
    inside = np.array([[0.5, 0.0, 0.0], [0.7, 1.0, 2.0]])
    df.coefficient_table(inside)
    with pytest.raises(DomainError, match="outside chart domain"):
        df.coefficient_table(np.vstack([inside, [[1.5, 0.0, 0.0]]]))


def test_fd_of_from_function_and_fd_of_fd(monkeypatch):
    import bmkit.forms
    from bmkit.forms import partial_field
    from bmkit.scalars import value_table
    f = from_function(lambda p: np.sin(p[..., 0]) * np.cos(2.0 * p[..., 1]))
    d0 = partial_field(CHART, f, 0)
    d01 = partial_field(CHART, d0, 1)
    d00 = partial_field(CHART, d0, 0)
    fields = [d0, d01, d00, d0 * d01 + f]
    batched = value_table(fields, PTS)
    for col, sf in enumerate(fields):
        assert np.array_equal(batched[:, col], sf(PTS))
    monkeypatch.setattr(bmkit.forms, "fd_partial", per_node_fd)
    r0 = partial_field(CHART, f, 0)
    reference = [r0, partial_field(CHART, r0, 1),
                 partial_field(CHART, r0, 0)]
    for col, sf in enumerate(reference):
        assert np.array_equal(batched[:, col], sf(PTS))
    want = -2.0 * np.cos(PTS[:, 0]) * np.sin(2.0 * PTS[:, 1])
    assert np.max(np.abs(batched[:, 1] - want)) < 1e-6


def test_restrict_and_lift_of_fd_derived_field():
    from bmkit import lift_spatial, restrict_time
    from bmkit.forms import fd_partial
    c4 = spacetime(CHART)
    sf4 = fd_partial(c4, wave({0: 1.0, 1: 2.0}) * sin_wave({3: 1.0}), 1)
    x0 = 0.4
    sliced = restrict_time(sf4, x0)
    pts4 = np.column_stack([np.full(len(PTS), x0), PTS])
    assert np.array_equal(sliced(PTS), sf4(pts4))
    sf3 = fd_partial(CHART, wave({0: 1.0, 2: 2.0}), 2) + 1.0
    lifted = lift_spatial(sf3)
    pts4 = np.column_stack([RNG.uniform(-3, 3, len(PTS)), PTS])
    assert np.array_equal(lifted(pts4), sf3(PTS))


def test_fd_inner_field_runs_once_per_grid_per_partial():
    from bmkit import solid_torus
    runs = []

    def counted(p):
        runs.append(len(p))
        return p[..., 0] ** 2 * np.cos(p[..., 1]) + np.sin(p[..., 2])

    f = from_function(counted)
    chart = solid_torus(a=1.0, r_min=0.1)
    form = make_form(chart, 1, {(0,): f, (1,): 2.0 * f, (2,): f * f})
    pts = np.array([[0.1, 0.0, 0.0], [0.5, 1.0, 2.0], [0.7, 3.0, 1.0], [1.0, 6.0, 5.0]])
    df = exterior_derivative(form)
    runs.clear()
    df.coefficient_table(pts)
    # 2 partials along r, each over central, forward and backward regions
    # (4 + 5 + 5 grids); 2 partials each along periodic phi and x3, one
    # central region (4 grids)
    assert len(runs) == 2 * 14 + 4 * 4
    assert sorted(set(runs)) == [1, 2, 4]


# -- the spacetime split ---------------------------------------------------------------


def _split_cases():
    from bmkit import abc_flow, euclidean3, solid_torus_mode
    from bmkit.scalars import monomial
    r3 = euclidean3()
    v = solid_torus_mode()
    g = euclidean_metric(CHART)
    pts_st = np.stack([RNG.uniform(0.05, 1.0, 30), RNG.uniform(0, 2 * math.pi, 30),
                       RNG.uniform(0, 2 * math.pi, 30)], axis=-1)
    r3_form = make_form(r3, 2, {(0, 1): monomial(0, 2) * sin_wave({2: 1.0}), (1, 2): 3.0})
    return [(t3_mode(2, 0.7).form, PTS), (abc_flow(1.0, 0.5, 0.2).form, PTS),
            (hodge_star(g, t3_mode().form), PTS), (scalar_form(CHART, wave({0: 1, 1: 2})), PTS),
            (r3_form, RNG.uniform(-3, 3, (30, 3))), (fn_form(v.form), pts_st),
            (v.form, pts_st), (hodge_star(v.metric, v.form), pts_st)]


@pytest.mark.parametrize("a, pts", _split_cases())
def test_restrict_of_lift_is_the_form_bitwise(a, pts):
    c4 = spacetime(a.chart)
    lifted = lift_form(c4, a)
    assert lifted.chart == c4 and lifted.degree == a.degree
    want = a.coefficient_table(pts)
    for x0 in (0.0, 0.37, -2.5):
        back = restrict_form(a.chart, lifted, x0)
        assert back.chart == a.chart and sorted(back.coeffs) == sorted(a.coeffs)
        np.testing.assert_array_equal(back.coefficient_table(pts), want)
        # the lift does not depend on x0
        pts4 = np.concatenate([np.full((len(pts), 1), x0), pts], axis=1)
        np.testing.assert_array_equal(
            lifted.coefficient_table(pts4)[:, [i for i, idx in enumerate(lifted.indices)
                                               if 0 not in idx]], want)


def test_lift_and_restrict_reject_a_foreign_chart_and_dx0():
    from bmkit import ChartMismatchError, euclidean3
    a = t3_mode().form
    with pytest.raises(ChartMismatchError):
        lift_form(spacetime(euclidean3()), a)
    with pytest.raises(ChartMismatchError):
        restrict_form(euclidean3(), lift_form(spacetime(CHART), a), 0.0)
    with pytest.raises(DegreeError):
        restrict_form(CHART, dx(spacetime(CHART), 0), 0.0)
