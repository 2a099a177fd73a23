"""Scalar expression trees: slicing at x0 and lifting to spacetime rewrite the leaves;
one evaluation plan runs each distinct leaf kernel once and matches a naive evaluator."""

import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bmkit
from bmkit import (SampleGrid, VectorField, beltrami_maxwell, exterior_derivative,
                   field_line_generator, hodge_star, j0_field, j1_field, solid_torus_mode, torus3,
                   vector_field)
from bmkit.bessel import J0, J1
from bmkit.forms import _rk4_step, fd_partial
from bmkit.scalars import (COS, ZERO, Kernel, Plan, ScalarField, columns, constant, from_function,
                           leaf, lift_spatial, monomial, power_kernel, restrict_time, sin_wave,
                           value_table, wave)

X0 = 0.3
RNG = np.random.default_rng(7)
PTS3 = np.column_stack([RNG.uniform(0.2, 0.9, 64), RNG.uniform(-3, 3, 64),
                        RNG.uniform(-3, 3, 64)])
PTS4 = np.column_stack([np.full(64, X0), PTS3])


def with_x0(pts3):
    return np.column_stack([np.full(len(pts3), X0), pts3])


def spacetime_fields():
    """Fields on (x0, x1, x2, x3), with x1 kept in [0.2, 0.9] for the Bessel leaves."""
    w = wave({0: 1.5, 3: 2.0}, 0.4, 0.7)
    m = monomial(1, 3, -1.2)
    j = j1_field(1, 2.0)
    tree = (w + m) * j0_field(1, 3.0) / (sin_wave({0: 1.0, 2: 1.0}) + 2.5) - w * m
    return {"wave": w, "wave_x0_last": wave({2: -1.1, 0: 0.9}), "monomial": m,
            "j0": j0_field(1, 3.0), "j1": j, "tree": tree}


def spatial_fields():
    w = wave({2: 2.0, 1: 1.0}, 0.4, 0.7)
    m = monomial(0, -2, 1.5)
    tree = (w + m) * j1_field(0, 2.0) / (sin_wave({1: 1.0}) + 2.5) - w * m
    return {"wave": w, "monomial": m, "j0": j0_field(0, 3.0), "j1": j1_field(0, 2.0),
            "tree": tree}


@pytest.mark.parametrize("name", sorted(spacetime_fields()))
def test_restrict_time_matches_field_at_x0(name):
    sf = spacetime_fields()[name]
    got, want = restrict_time(sf, X0)(PTS3), sf(PTS4)
    if name == "wave":
        # the x0 term comes first in the phase sum, so slicing keeps the arithmetic
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", sorted(spatial_fields()))
def test_lift_spatial_ignores_x0(name):
    sf = spatial_fields()[name]
    lifted = lift_spatial(sf)
    pts4 = np.column_stack([RNG.uniform(-5, 5, len(PTS3)), PTS3])
    assert np.array_equal(lifted(pts4), sf(PTS3))
    assert lifted.partial(0).is_zero


@pytest.mark.parametrize("name", sorted(spatial_fields()))
def test_lift_then_restrict_is_identity(name):
    sf = spatial_fields()[name]
    assert np.array_equal(restrict_time(lift_spatial(sf), X0)(PTS3), sf(PTS3))


def test_field_of_x0_alone_restricts_to_constant():
    for sf in (wave({0: 2.0}, 0.1, 3.0), monomial(0, 2, 0.5), wave({0: 1.0}) * monomial(0, -1)):
        r = restrict_time(sf, X0)
        assert r.const is not None
        assert r.const == pytest.approx(float(sf(np.array([[X0, 0.0, 0.0, 0.0]]))[0]),
                                        rel=1e-15, abs=0.0)
        assert all(r.partial(a).is_zero for a in range(3))


@pytest.mark.parametrize("name", sorted(spacetime_fields()))
def test_partial_of_restriction_is_restricted_partial(name):
    sf = spacetime_fields()[name]
    r = restrict_time(sf, X0)
    for axis in range(3):
        got = r.partial(axis)(PTS3)
        want = restrict_time(sf.partial(axis + 1), X0)(PTS3)
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


def test_restricted_field_is_as_small_as_one_built_on_the_slice():
    sf = wave({0: 1.0}) * lift_spatial(wave({2: 2.0}, 0.0, 0.5))
    r = restrict_time(sf, 0.0)
    assert r.op == "leaf"
    assert np.array_equal(r(PTS3), wave({2: 2.0}, 0.0, 0.5)(PTS3))


def test_shared_subtree_is_rebuilt_once():
    w = wave({0: 1.0, 1: 1.0})
    r = restrict_time(w * w + w, X0)
    product, w_again = r.args
    assert product.args[0] is product.args[1] is w_again


def test_from_function_lifts_and_restricts():
    f = from_function(lambda p: p[..., 0] * p[..., 2])
    lifted = lift_spatial(f)
    assert not lifted.has_partials and lifted.partial(1) is None
    assert np.array_equal(lifted(with_x0(PTS3)), f(PTS3))
    g = from_function(lambda p: np.sin(p[..., 0]) + p[..., 3])
    r = restrict_time(g * constant(2.0), X0)
    assert np.array_equal(r(PTS3), (g * 2.0)(with_x0(PTS3)))
    assert np.array_equal(restrict_time(lift_spatial(f), X0)(PTS3), f(PTS3))


# -- one kernel step per distinct leaf kernel in an evaluation call ------------------


def counting_kernel():
    """A kernel exp(u) that counts how often its value runs."""
    runs = []

    def value(u):
        runs.append(1)
        return np.exp(u)

    return Kernel(value, lambda coeffs, phase, amplitude, c: ZERO), runs


def test_call_runs_each_distinct_leaf_kernel_once():
    k, runs = counting_kernel()
    a = leaf(k, {0: 1.0, 1: 2.0}, 0.5, 2.0)
    a_scaled = leaf(k, {0: 1.0, 1: 2.0}, 0.5, -3.0)      # same key, other amplitude
    b = leaf(k, {0: 1.0, 1: 2.0}, 0.25)                  # other phase
    c = leaf(k, {1: 2.0, 0: 1.0}, 0.5)                   # other order of the phase sum
    tree = a * b + a_scaled / (c + 4.0) - constant(0.5) * a
    tree(PTS3)
    assert len(runs) == 3
    runs.clear()
    a(PTS3)
    a(PTS3)
    assert len(runs) == 2


def test_table_runs_each_distinct_leaf_kernel_once():
    k, runs = counting_kernel()
    a, b = leaf(k, {2: 1.0}), leaf(k, {2: 1.0}, 0.0, 7.0)
    d = leaf(k, {0: 0.5})
    table = value_table([a, b * d, constant(3.0), d - a, ZERO], PTS3)
    assert len(runs) == 2
    assert table.shape == (len(PTS3), 5)
    assert np.array_equal(table[:, 2], np.full(len(PTS3), 3.0))


def test_power_kernel_is_shared_per_power():
    assert power_kernel(3) is power_kernel(3)
    assert power_kernel(1) is not power_kernel(2)


def test_solid_torus_tables_equal_columns_alone():
    v = solid_torus_mode(k_c=2.0, beta=1.0, sign="minus")
    pts = SampleGrid.regular(v.chart, 6).points
    for form in (v.form, exterior_derivative(v.form), hodge_star(v.metric, v.form),
                 hodge_star(v.metric, exterior_derivative(v.form))):
        table = form.coefficient_table(pts)
        for col, idx in enumerate(form.indices):
            assert np.array_equal(table[:, col], form.coefficient(idx)(pts)), idx


def test_no_value_survives_between_calls():
    v = solid_torus_mode(k_c=2.0, beta=1.0, sign="minus")
    dv = exterior_derivative(v.form)
    coeff = v.form.coefficient((1,))
    pts = SampleGrid.regular(v.chart, 5).points.copy()
    coeff(pts)
    dv.coefficient_table(pts)
    pts[:, 0] += 0.05
    pts[:, 2] -= 0.3
    fresh = pts.copy()
    assert np.array_equal(coeff(pts), coeff(fresh))
    assert np.array_equal(dv.coefficient_table(pts), dv.coefficient_table(fresh))


def test_from_function_and_sliced_trees_under_the_memo():
    f = from_function(lambda p: p[..., 1] * p[..., 3])
    w = wave({0: 1.5, 3: 2.0}, 0.4, 0.7)
    j = j0_field(1, 3.0)
    fields = [f * w + j, w - 2.0 * j, lift_spatial(wave({1: 1.0})) * f, f]
    pts4 = with_x0(PTS3)
    table = value_table(fields, pts4)
    for col, sf in enumerate(fields):
        assert np.array_equal(table[:, col], sf(pts4))
    want = f(pts4) * w(pts4) + j(pts4)
    assert np.max(np.abs(table[:, 0] - want)) <= 1e-15 * np.max(np.abs(want))
    sliced = [restrict_time(sf, X0) for sf in fields]
    table3 = value_table(sliced, PTS3)
    for col, sf in enumerate(fields):
        assert np.array_equal(table3[:, col], sliced[col](PTS3))
        assert np.max(np.abs(table3[:, col] - table[:, col])) <= 1e-15 * max(
            1.0, np.max(np.abs(table[:, col])))


def counting_function():
    runs = []

    def fn(p):
        runs.append(1)
        return np.cos(p[..., 0]) + p[..., 1] * p[..., 2]

    return from_function(fn), runs


def shared_dag():
    """Columns over a composite reached by several paths, and a 6-level chain of reuse."""
    f, runs = counting_function()
    shared = f * wave({1: 1.0}, 0.2) + j0_field(0, 3.0)
    chain = shared
    for _ in range(6):
        chain = (chain + chain) * 0.5 - chain / (chain * chain + 3.0)
    fields = [shared * shared, shared + monomial(2, 2), -shared, shared, chain,
              chain * shared]
    return fields, runs


def test_shared_subtree_runs_once_per_call():
    fields, runs = shared_dag()
    value_table(fields, PTS3)
    assert len(runs) == 1
    runs.clear()
    fields[-1](PTS3)
    assert len(runs) == 1


def test_shared_dag_table_equals_columns_alone():
    fields, _ = shared_dag()
    table = value_table(fields, PTS3)
    for col, sf in enumerate(fields):
        assert np.array_equal(table[:, col], sf(PTS3)), col
    shared = fields[3](PTS3)
    assert np.array_equal(table[:, 0], shared * shared)
    assert np.array_equal(table[:, 2], -shared)


def test_shared_dag_sees_mutated_points():
    fields, runs = shared_dag()
    pts = PTS3.copy()
    value_table(fields, pts)
    pts[:, 1] += 0.25
    fresh = pts.copy()
    assert np.array_equal(value_table(fields, pts), value_table(fields, fresh))
    assert np.array_equal(fields[-1](pts), fields[-1](fresh))
    assert len(runs) == 5   # once per call


# -- the evaluation plan against a naive recursive evaluator ---------------------

T3 = torus3()
# exact zeros make c*x a signed zero, where leaves of phase 0.0 and -0.0 differ under u**3
PTS_T3 = np.vstack([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 5.5],
                    RNG.uniform(0.0, 2 * np.pi, (13, 3))])
# a product point set (a lattice's axes, each along its own dimension) and its points
LATTICE_SHAPE = (3, 4, 5)
LATTICE_AXES, LATTICE = T3.lattice(LATTICE_SHAPE), SampleGrid.regular(T3, LATTICE_SHAPE).points
NAIVE_OPS = {"add": lambda a, b: a + b, "neg": lambda a: -a,
             "mul": lambda a, b: a * b, "div": lambda a, b: a / b}
FNS = (from_function(lambda p: np.cos(p[..., 0]) + p[..., 1] * p[..., 2]),
       from_function(lambda p: 2.0))   # a point-independent function broadcasts


def naive(node: ScalarField, pts: np.ndarray):
    """Value of node at pts by plain recursion: nothing shared, a node once per path."""
    op = node.op
    if op == "const":
        return node.const
    if op == "leaf":
        kernel, coeffs, phase, amplitude = node.args
        u = phase
        for a, c in coeffs.items():
            u = u + c * pts[..., a]
        return amplitude * kernel.value(u)
    if op == "fn":
        return np.broadcast_to(np.asarray(node.args[0](pts), dtype=float), pts.shape[:-1])
    return NAIVE_OPS[op](*(naive(a, pts) for a in node.args))


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


@st.composite
def dags(draw):
    """Root fields over a random DAG of leaves, constants, fn nodes, FD partials and arithmetic.

    Each leaf group holds leaves that share a kernel key only in part: amplitude
    variants (one key), the phases 0.0 and -0.0 and the axis terms in reverse
    order (other keys).
    """
    pool = [constant(draw(st.sampled_from([0.7, -3.0])))]
    for _ in range(draw(st.integers(1, 3))):
        kernel = draw(st.sampled_from([COS, power_kernel(1), power_kernel(3), J0]))
        axes = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True))
        coeffs = {a: draw(st.sampled_from([1.0, -1.0, 0.3, -2.0])) for a in axes}
        amplitudes = draw(st.lists(st.sampled_from([1.0, -2.0, 0.75]), min_size=1, max_size=2))
        for terms in (coeffs, dict(reversed(coeffs.items()))):
            for phase in (0.0, -0.0, 0.3):
                pool += [leaf(kernel, terms, phase, amplitude) for amplitude in amplitudes]
    for _ in range(draw(st.integers(0, 14))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "const", "fn", "fd", "fd"]))
        if kind == "fd":   # of any node, an FD partial included
            pool.append(fd_partial(T3, a, draw(st.integers(0, 1))))
        else:
            pool.append({"add": lambda: a + b, "sub": lambda: a - b, "mul": lambda: a * b,
                         "div": lambda: a / (b * b + 1.5), "neg": lambda: -a,
                         "const": lambda: 2.5 * a + 1.25,
                         "fn": lambda: draw(st.sampled_from(FNS)) * a}[kind]())
    return pool[-4:] + draw(st.lists(st.sampled_from(pool), max_size=6))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dags())
def test_plan_matches_naive_evaluator(roots):
    with np.errstate(all="ignore"):
        table = value_table(roots, PTS_T3)
        assert table.shape == (len(PTS_T3), len(roots))
        for col, root in enumerate(roots):
            want = np.broadcast_to(naive(root, PTS_T3), PTS_T3.shape[:-1])
            assert np.array_equal(bits(table[:, col]), bits(want)), col
            assert np.array_equal(bits(root(PTS_T3)), bits(want)), col
        comps = (roots * 3)[:3]
        got = VectorField(T3, tuple(comps)).evaluate(PTS_T3)
        assert np.array_equal(bits(got), bits(np.column_stack([c(PTS_T3) for c in comps])))
        # on a product point set each value has the shape of the axes its node reads, and
        # broadcast to the lattice it is the naive value at each of its points, in order
        for col, value in enumerate(Plan(roots)(LATTICE_AXES)):
            want = np.broadcast_to(naive(roots[col], LATTICE), LATTICE.shape[:-1])
            got = np.broadcast_to(value, LATTICE_SHAPE).reshape(-1)
            assert np.array_equal(bits(got), bits(want)), col


LAYOUT_KERNELS = {"cos": COS, **{f"u**{p}": power_kernel(p) for p in (1, 2, 3, -1, -2)},
                  "J0": J0, "J1": J1}


@pytest.mark.parametrize("name", LAYOUT_KERNELS)
def test_kernel_values_do_not_depend_on_the_array_layout(name):
    """Each value of a kernel is the same bits whatever array holds its argument: lengths
    1-40 at several offsets, strided, as a column of a table, and as a column of a product
    point set (extent 1 on the other dimensions), read-only broadcast too.  A plan's value
    of a product grid keeps the shape of the axes its node reads, and is bitwise the one on
    the grid's points only because of this."""
    kernel = LAYOUT_KERNELS[name].value
    base = np.random.default_rng(5).uniform(-20.0, 20.0, 130)   # J0/J1: series and quadrature
    alone = bits(np.concatenate([kernel(base[i:i + 1]) for i in range(len(base))]))
    table = np.column_stack([base, -base, base])
    for n in range(1, 41):
        for offset in (0, 1, 2, 3, 5):
            rows = slice(offset, offset + n)
            want = alone[rows]
            for u in (base[rows], base[rows].copy(), table[rows, 0], table[rows, 2],
                      base[rows].reshape(1, n, 1), base[rows].reshape(1, 1, n),
                      np.broadcast_to(base[rows], (2, n))[1]):
                assert np.array_equal(bits(kernel(u)).reshape(-1), want), (n, offset, u.shape)
            strided = base[offset::3][:n]
            assert np.array_equal(bits(kernel(strided)), alone[offset::3][:n]), (n, offset)


def test_plan_returns_one_value_per_root_in_order():
    """A constant root comes back as its float, a root listed twice comes back twice, and a
    root that a later root reads comes back intact; value_table builds (N, k) from them."""
    w = wave({0: 1.0, 2: -0.5}, 0.3)
    s = w * monomial(1, 2) + 1.0
    roots = [s, constant(2.5), w, s * s - w, s, ZERO, w]
    values = Plan(roots)(columns(PTS3))
    assert len(values) == len(roots)
    assert [values[1], values[5]] == [2.5, 0.0]
    assert isinstance(values[1], float) and isinstance(values[5], float)
    for col, (value, root) in enumerate(zip(values, roots)):
        assert np.array_equal(np.broadcast_to(value, len(PTS3)), root(PTS3)), col
    assert value_table([], PTS3).shape == (len(PTS3), 0)
    consts = value_table([constant(2.5), ZERO, constant(-1.0)], PTS3)
    assert np.array_equal(consts, np.tile([2.5, 0.0, -1.0], (len(PTS3), 1)))


def test_vector_field_builds_its_plan_once(monkeypatch):
    import bmkit.forms

    built = []

    class CountingPlan(bmkit.forms.Plan):
        __slots__ = ()

        def __init__(self, fields):
            built.append(1)
            super().__init__(fields)

    monkeypatch.setattr(bmkit.forms, "Plan", CountingPlan)
    fields, runs = shared_dag()
    Y = VectorField(T3, (fields[0], fd_partial(T3, fields[4], 1), fields[2]))
    pts = PTS_T3.copy()
    first = Y.evaluate(pts)
    pts[:, 1] += 0.25
    fresh = pts.copy()
    second = Y.evaluate(pts)
    assert built == [1]
    assert len(runs) == 2 * 5   # one run per stencil grid and the base points, per call
    assert not np.array_equal(first, second)
    assert np.array_equal(second, Y.evaluate(fresh))
    assert np.array_equal(second, np.column_stack([c(fresh) for c in Y.components]))


def test_sliced_function_field_compiles_its_plan_once(monkeypatch):
    import bmkit.scalars

    built = []

    class CountingPlan(bmkit.scalars.Plan):
        __slots__ = ()

        def __init__(self, fields):
            built.append(1)
            super().__init__(fields)

    monkeypatch.setattr(bmkit.scalars, "Plan", CountingPlan)
    f = from_function(lambda p: np.sin(p[..., 0]) + p[..., 1] * p[..., 3])
    want = f(PTS4)
    built.clear()
    sliced = restrict_time(f, X0)
    values = [sliced(PTS3) for _ in range(5)]
    assert len(built) == 5   # one plan per call; slicing the fn node compiles none
    for got in values:
        assert np.array_equal(bits(got), bits(want))


# -- analytic partials against finite differences ---------------------------------

PTS_BOX = np.random.default_rng(11).uniform(0.2, 2.5, (48, 3))


@st.composite
def leaf_trees(draw):
    """Root fields of a random tree of add, mul and div nodes over cos, u, u^2, J0, J1 leaves.

    A division is by a sum of squares plus 0.5, the shape of |lambda|^2 in the
    Reeb field sharp(lambda) / |lambda|^2.  Bessel arguments stay in [1.2, 11],
    across the series/quadrature switch at 8 and away from J1's 1/u at 0.
    """
    def draw_leaf():
        kind = draw(st.sampled_from(["cos", "u", "u2", "j0", "j1"]))
        axes = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True))
        amplitude = draw(st.sampled_from([1.0, -0.5, 1.5]))
        if kind == "cos":
            coeffs = {a: draw(st.sampled_from([1.0, -1.0, 2.0, 0.5])) for a in axes}
            return leaf(COS, coeffs, draw(st.sampled_from([0.0, 0.3])), amplitude)
        coeffs = {a: draw(st.sampled_from([0.5, 1.0])) for a in axes}
        kernel, phase = {"u": (power_kernel(1), -1.0), "u2": (power_kernel(2), -1.0),
                         "j0": (J0, draw(st.sampled_from([1.0, 6.0]))),
                         "j1": (J1, draw(st.sampled_from([1.0, 6.0])))}[kind]
        return leaf(kernel, coeffs, phase, amplitude)

    pool = [draw_leaf() for _ in range(draw(st.integers(2, 5)))]
    for _ in range(draw(st.integers(1, 6))):
        a, b, c = (draw(st.sampled_from(pool)) for _ in range(3))
        kind = draw(st.sampled_from(["add", "mul", "div"]))
        pool.append({"add": lambda: a + b, "mul": lambda: a * b,
                     "div": lambda: a / (b * b + c * c + 0.5)}[kind]())
    return [pool[-1]] + draw(st.lists(st.sampled_from(pool), max_size=2))


def stencil_partial(sf: ScalarField, pts: np.ndarray, axis: int, h: float = 2e-4):
    """4th-order central difference of sf along axis, evaluated point set by point set."""
    total = np.zeros(len(pts))
    for offset, weight in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
        shifted = pts.copy()
        shifted[:, axis] += offset * h
        total += weight * sf(shifted)
    return total / (12.0 * h)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(leaf_trees())
def test_analytic_partials_match_a_stencil(roots):
    partials = [root.partial(axis) for root in roots for axis in range(3)]
    assert all(p is not None for p in partials)
    table = value_table(partials, PTS_BOX)
    for col, (root, axis) in enumerate((r, a) for r in roots for a in range(3)):
        want = stencil_partial(root, PTS_BOX, axis)
        scale = 1.0 + np.max(np.abs(want)) + np.max(np.abs(root(PTS_BOX)))
        assert np.max(np.abs(table[:, col] - want)) <= 1e-8 * scale, (col, axis)


def test_slices_lifts_and_plans_leave_no_reference_cycles():
    # each is freed by reference counting alone once dropped: none leaves work
    # for the cyclic collector (an fn node is rewritten too)
    fields = [*spacetime_fields().values(), from_function(lambda p: p[..., 1] * p[..., 2])]
    M = beltrami_maxwell(solid_torus_mode())
    gc.collect()
    gc.disable()
    try:
        for f in fields:
            sliced = restrict_time(f, X0)
            lifted = lift_spatial(sliced)
            plan = Plan([f, lifted, f * lifted])
            plan(columns(PTS4))
            del sliced, lifted, plan
            assert gc.collect() == 0
        M.at_time(X0).e.coefficient_table(PTS3)
        assert gc.collect() == 0
        # a generated flow, compiled afresh, and one RK4 step over it, on a field that does
        # not wrap and on one that wraps and holds an fn node
        for Y in (field_line_generator(M, "e", X0),
                  vector_field(T3, {0: fd_partial(T3, wave({2: 0.5}), 2), 2: constant(1.0)})):
            bmkit.forms._flow_code.cache_clear()
            _rk4_step(Y.flow, PTS3, 0.01)
            del Y
            assert gc.collect() == 0
    finally:
        gc.enable()


# -- one node per structure ---------------------------------------------------------


def test_equal_structure_is_one_node():
    assert wave({1: 2.0}) is wave({1: 2.0})
    a, b = wave({0: 1.0}, 0.3), j0_field(1, 3.0)
    assert a * b is a * b
    assert (a - b) / (a * b + 2.0) is (a - b) / (a * b + 2.0)
    assert restrict_time(lift_spatial(a * b), X0) is a * b
    def f(p):
        return p[..., 0]

    assert from_function(f) is from_function(f)
    assert from_function(f) is not from_function(lambda p: p[..., 0])


def test_signed_zeros_amplitudes_and_coefficient_order_make_other_nodes():
    assert wave({1: 2.0}, -0.0) is not wave({1: 2.0}, 0.0)
    assert constant(-0.0) is not constant(0.0)
    assert wave({1: 2.0}, 0.0, 2.0) is not wave({1: 2.0})
    assert wave({0: 1.0, 1: 2.0}) is not wave({1: 2.0, 0: 1.0})


def test_slices_at_one_instant_are_the_same_nodes():
    # two field sets, so that the slices come from two walks, not one memo
    a, b = (beltrami_maxwell(solid_torus_mode()).at_time(X0) for _ in range(2))
    for name in "ehBD":
        fa, fb = getattr(a, name), getattr(b, name)
        assert all(fa.coeffs[i] is fb.coeffs[i] for i in fa.coeffs), name


def test_no_node_outlives_its_command(tmp_path):
    # run in a fresh interpreter, where no live node of another test shares a
    # partial cache with the command's nodes; with the collector off, reference
    # counting alone must empty the table, so no node sits in a reference cycle
    code = """if True:
        import gc, sys
        from bmkit import scalars
        from bmkit.cli import main
        gc.collect()
        before = len(scalars._NODES)
        gc.disable()
        rc = main(sys.argv[1:])
        after = len(scalars._NODES)
        gc.enable()
        gc.collect()
        print(rc, before, after, len(scalars._NODES))
    """
    src = os.path.dirname(os.path.dirname(bmkit.__file__))
    spec = "beltrami_maxwell{v=solid_torus_mode{k_c=2,beta=1,sign=minus}}"
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--field", spec, "--checks", "all",
         "--grid", "6", "--tgrid", "3", "--no-meta", "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert proc.returncode == 0, proc.stderr
    rc, before, after, collected = map(int, proc.stdout.split())
    assert rc == 0, proc.stderr
    assert after == collected == before


def test_a_dead_nodes_callback_keeps_the_node_built_in_its_place():
    """Drop a node and rebuild the same structure after its table entry's weak ref is cleared
    but before that ref's callback runs: the rebuilt node takes the entry, the dead ref's
    callback leaves it, and the table keeps serving it after a collection."""
    from bmkit import scalars

    def build():
        return wave({0: 1.2345, 2: -0.625}, 0.1875, 3.5)   # a structure no other test makes

    node = build()
    (key,) = [k for k, ref in scalars._NODES.items() if ref() is node]
    dead_entry, rebuilt = [], []

    def rebuild(_):
        # a callback ref made after the table's runs first, once both are cleared
        dead_entry.append(scalars._NODES[key]() is None)
        rebuilt.append(build())

    probe = weakref.ref(node, rebuild)
    del node
    gc.collect()
    assert probe() is None and dead_entry == [True]
    assert scalars._NODES[key]() is rebuilt[0] and build() is rebuilt[0]
    composite = -rebuilt[0]   # a leaf keeps no partials; a composite node does
    assert not hasattr(composite, "_partial_cache")   # made on the first partial only
    assert composite.partial(0) is composite.partial(0) and composite._partial_cache


def test_partials_of_a_j1_leaf_leave_no_reference_cycle():
    """A J1 leaf's partial reads a -J1 leaf whose partial reads the J1 leaf again; with
    the collector off, reference counting alone frees the leaf and its higher partials."""
    from bmkit import scalars
    gc.collect()
    gc.disable()
    try:
        before = len(scalars._NODES)
        j1 = j1_field(0, 1.8125)   # a structure no other test makes: no live node caches it
        second = j1.partial(0).partial(0)
        third = second.partial(0)
        del j1, second, third
        after = len(scalars._NODES)
    finally:
        gc.enable()
    assert after == before
