"""Differential forms and vector fields on coordinate charts.

Forms are stored in the canonical antisymmetric representation: one
:class:`~bmkit.scalars.ScalarField` coefficient per strictly increasing
multi-index, zero coefficients omitted.  All operations are pure and the
objects are immutable after construction, so evaluation is thread-safe: an
evaluation plan (:class:`~bmkit.scalars.Plan`, one per ``coefficient_table``
call and one kept by each vector field) holds no values, and the values of a
run are local to that run.  A vector field's flow is generated: its plan written as
straight-line source, compiled once per source text.  RK4 is one plain step,
``_rk4_step(f, y, h)``, over any right-hand side f.

Exterior derivatives use a coefficient's analytic partials, and fall back
to 4th-order finite differences only for a coefficient that has none (one
reading an ``fn`` node); no option forces them.  The stencils wrap
periodic axes and switch to one-sided stencils within two steps of interval
endpoints.  The step is fixed: ``DEFAULT_FD_STEP``, 1e-4, on every axis.  A
finite-difference partial (:func:`fd_partial`) is an ``fn`` node that
evaluates its field once per stencil grid.
On spacetime charts the derivative splits as d = d_spatial + dx0 ^ d/dx0;
both pieces are exposed separately.  ``lift_form`` and ``restrict_form`` alone
move forms between a 3-d chart and its spacetime (``charts.spacetime``).
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass, field

import numpy as np

from .charts import Chart, require_spacetime
from .errors import ChartMismatchError, DegreeError
from .scalars import (Plan, ScalarField, ZERO, as_table, columns, constant, from_function,
                      lift_spatial, periodic_in, plan_source, restrict_time, value_table)

DEFAULT_FD_STEP = 1e-4

MultiIndex = tuple[int, ...]


def increasing_indices(dim: int, degree: int) -> list[MultiIndex]:
    return list(itertools.combinations(range(dim), degree))


@functools.cache
def _index_set(dim: int, degree) -> frozenset:
    """The increasing multi-indices of a degree (none unless integral) in range(dim)."""
    return frozenset(itertools.combinations(range(dim), int(degree)) if degree % 1 == 0 else ())


@functools.cache
def merge_indices(left: MultiIndex, right: MultiIndex):
    """Sign and sorted union of two increasing index tuples, or None on overlap.

    The sign is the parity of the shuffle putting left+right in increasing
    order (the coefficient sign of dx^left ^ dx^right).
    """
    if set(left) & set(right):
        return None
    inversions = sum(1 for i in left for j in right if j < i)
    merged = tuple(sorted(left + right))
    return (-1.0 if inversions % 2 else 1.0), merged


@dataclass(frozen=True)
class DifferentialForm:
    """Degree-k form: coefficients over strictly increasing multi-indices."""

    chart: Chart
    degree: int
    coeffs: dict[MultiIndex, ScalarField] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.degree <= self.chart.dim:
            raise DegreeError(
                f"degree {self.degree} out of range for dim {self.chart.dim}")
        valid = _index_set(self.chart.dim, self.degree)
        for idx in self.coeffs:
            if idx not in valid:   # right length, in range and strictly increasing
                raise DegreeError(f"bad multi-index {idx} for degree {self.degree}")

    # -- access ----------------------------------------------------------

    def coefficient(self, idx: MultiIndex) -> ScalarField:
        idx = tuple(idx)
        if idx not in _index_set(self.chart.dim, self.degree):
            raise DegreeError(f"bad multi-index {idx} for degree {self.degree}")
        return self.coeffs.get(idx, ZERO)

    @property
    def indices(self) -> list[MultiIndex]:
        return increasing_indices(self.chart.dim, self.degree)

    def coefficient_table(self, pts: np.ndarray) -> np.ndarray:
        """Values of every canonical coefficient at pts, shape (N, n_indices).

        One evaluation call: a leaf shared by several coefficients runs once.
        """
        return value_table([self.coefficient(idx) for idx in self.indices],
                           self.chart.as_points(pts))

    def max_abs(self, pts: np.ndarray) -> float:
        table = self.coefficient_table(pts)
        return float(np.max(np.abs(table))) if table.size else 0.0

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        _require_same_chart(self, other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out[idx] + c if idx in out else c
        return make_form(self.chart, self.degree, out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return make_form(self.chart, self.degree,
                         {idx: -c for idx, c in self.coeffs.items()})

    def __mul__(self, s) -> "DifferentialForm":
        if not isinstance(s, ScalarField):
            s = constant(float(s))
        return make_form(self.chart, self.degree,
                         {idx: s * c for idx, c in self.coeffs.items()})

    __rmul__ = __mul__

    @property
    def has_analytic_partials(self) -> bool:
        return all(c.has_partials for c in self.coeffs.values())


@dataclass(frozen=True)
class VectorField:
    """Vector field with one ScalarField component per chart axis.

    Its plan (``evaluate``) and generated flow are each built once.
    """

    chart: Chart
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise DegreeError("component count != chart dimension")

    @functools.cached_property
    def _plan(self) -> Plan:
        return Plan(self.components)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Components at pts, shape (N, dim), from one run of the field's plan."""
        pts = self.chart.as_points(pts)
        return as_table(self._plan(columns(pts)), pts)

    @functools.cached_property
    def flow_wraps(self) -> bool:
        """False when the field is periodic on its chart (`scalars.periodic_in`)."""
        return not periodic_in(self.components,
                               {a for a, ax in enumerate(self.chart.axes) if ax.is_periodic})

    @functools.cached_property
    def flow(self):
        """p -> the field at p, shape (N, dim), for p an (N, dim) float array (unchecked).

        The flow in unwrapped coordinates: a field periodic on its chart (every leaf
        that reads a periodic axis a cos leaf with an integer coefficient there) is
        evaluated at p itself, any other field at p wrapped.
        Straight-line source, bitwise ``evaluate``: the wrap if the flow wraps, the plan's
        lines (`scalars.plan_source`) and `as_table`'s columns.  ``flow.ops`` counts them.
        """
        bind = {"empty": np.empty, "wrap": self.chart.wrap}
        lines, roots = plan_source(self._plan, bind)
        body = (*(["p = wrap(p)"] * self.flow_wraps), *lines, "k = empty(p.shape)",
                *(f"k[..., {j}] = {r}" for j, r in enumerate(roots)))
        flow = types.FunctionType(_flow_code(body), bind)
        flow.ops = len(body)
        return flow

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-c for c in self.components))


# -- constructors ---------------------------------------------------------


def make_form(chart: Chart, degree: int, coeffs: dict) -> DifferentialForm:
    """Build a form, normalizing keys and dropping exact-zero coefficients."""
    clean = {}
    for idx, c in coeffs.items():
        idx = tuple(map(int, idx))
        if not isinstance(c, ScalarField):
            c = constant(float(c))
        if not c.is_zero:
            clean[idx] = c
    return DifferentialForm(chart, degree, clean)


def zero_form(chart: Chart, degree: int) -> DifferentialForm:
    return DifferentialForm(chart, degree, {})


def scalar_form(chart: Chart, c) -> DifferentialForm:
    return make_form(chart, 0, {(): c})


def dx(chart: Chart, axis: int) -> DifferentialForm:
    """Basis covector dx^axis."""
    return make_form(chart, 1, {(int(axis),): constant(1.0)})


def vector_field(chart: Chart, comps: dict[int, ScalarField]) -> VectorField:
    parts = [ZERO] * chart.dim
    for a, c in comps.items():
        parts[int(a)] = c if isinstance(c, ScalarField) else constant(float(c))
    return VectorField(chart, tuple(parts))


def _require_same_chart(a, b):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatchError(
            f"operands on different charts: {a.chart.name} vs {b.chart.name}")


def lift_form(chart4: Chart, a: DifferentialForm) -> DifferentialForm:
    """The 3-d form a as an x0-independent spatial form on chart4 = spacetime(a.chart)."""
    require_spacetime(chart4, a.chart)
    return make_form(chart4, a.degree, {tuple(i + 1 for i in idx): lift_spatial(c)
                                        for idx, c in a.coeffs.items()})


def restrict_form(chart3: Chart, a: DifferentialForm, x0: float) -> DifferentialForm:
    """The spatial form a of spacetime(chart3) at x0, on chart3; a dx0 index raises DegreeError."""
    require_spacetime(a.chart, chart3)
    return make_form(chart3, a.degree, {tuple(i - 1 for i in idx): restrict_time(c, x0)
                                        for idx, c in a.coeffs.items()})


# -- wedge ----------------------------------------------------------------


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product a ^ b with shuffle signs."""
    _require_same_chart(a, b)
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        raise DegreeError(
            f"wedge degree {degree} exceeds chart dimension {a.chart.dim}")
    out: dict[MultiIndex, ScalarField] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged = merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            term = (ca * cb) if sign > 0 else -(ca * cb)
            out[idx] = out[idx] + term if idx in out else term
    return make_form(a.chart, degree, out)


# -- finite differences ----------------------------------------------------

# 4th-order central and one-sided (5-point) first-derivative stencils.
_CENTRAL = ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12))
_FORWARD = ((0, -25.0 / 12), (1, 48.0 / 12), (2, -36.0 / 12), (3, 16.0 / 12), (4, -3.0 / 12))
_BACKWARD = tuple((-o, -w) for o, w in _FORWARD)


def fd_partial(chart: Chart, sf: ScalarField, axis: int) -> ScalarField:
    """Finite-difference d(sf)/dx_axis as a numeric-only ScalarField (an ``fn`` node).

    The step is DEFAULT_FD_STEP, 1e-4, on every axis.  Periodic axes wrap stencil
    points; within 2h of a finite interval endpoint the stencil clamps to the
    one-sided 4th-order formula.
    Points outside the chart domain raise DomainError.
    """
    ax, h = chart.axes[axis], DEFAULT_FD_STEP

    def stencil_sum(pts, stencil):
        total = np.zeros(pts.shape[:-1])
        for offset, weight in stencil:
            shifted = np.array(pts, copy=True)
            shifted[..., axis] += offset * h
            total += weight * sf(chart.wrap(shifted))
        return total / h

    def value(pts):
        chart.require_inside(pts)
        if ax.is_periodic or (np.isinf(ax.lo) and np.isinf(ax.hi)):
            return stencil_sum(pts, _CENTRAL)
        x = pts[..., axis]
        out = np.empty(pts.shape[:-1])
        near_lo = x < ax.lo + 2 * h
        near_hi = x > ax.hi - 2 * h
        mid = ~(near_lo | near_hi)
        for mask, stencil in ((mid, _CENTRAL), (near_lo, _FORWARD), (near_hi, _BACKWARD)):
            if np.any(mask):
                out[mask] = stencil_sum(pts[mask], stencil)
        return out

    return from_function(value)


def partial_field(chart: Chart, sf: ScalarField, axis: int) -> ScalarField:
    """d(sf)/dx_axis: analytic when sf has partials, else finite differences."""
    p = sf.partial(axis)
    return fd_partial(chart, sf, axis) if p is None else p


# -- exterior derivative ----------------------------------------------------


def exterior_derivative(a: DifferentialForm,
                        axes: tuple[int, ...] | None = None) -> DifferentialForm:
    """Exterior derivative of a, optionally restricted to a subset of axes.

    With axes = spatial axes of a spacetime chart this is the spatial part
    d_spatial; the full derivative is d = d_spatial + dx0 ^ (d/dx0).
    """
    chart = a.chart
    if a.degree >= chart.dim:
        raise DegreeError("exterior derivative needs degree < chart dimension")
    if axes is None:
        axes = tuple(range(chart.dim))
    out: dict[MultiIndex, ScalarField] = {}
    for idx, c in a.coeffs.items():
        for j in axes:
            ins = merge_indices((j,), idx)
            if ins is None:
                continue
            sign, new_idx = ins
            dcj = partial_field(chart, c, j)
            term = dcj if sign > 0 else -dcj
            out[new_idx] = out[new_idx] + term if new_idx in out else term
    return make_form(chart, a.degree + 1, out)


def spatial_exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """The d_spatial piece on a spacetime chart (plain d on 3-d charts)."""
    return exterior_derivative(a, axes=a.chart.spatial_axes)


def time_derivative(a: DifferentialForm) -> DifferentialForm:
    """Coefficient-wise d/dx0: the Lie derivative along the time translation."""
    t = a.chart.time_axis
    if t is None:
        raise DegreeError("chart has no time axis")
    return make_form(
        a.chart, a.degree,
        {idx: partial_field(a.chart, c, t) for idx, c in a.coeffs.items()})


# -- interior product and Lie derivative -------------------------------------


def interior_product(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Contraction i_X a on the first slot."""
    _require_same_chart(X, a)
    if a.degree == 0:
        raise DegreeError("interior product needs degree >= 1")
    out: dict[MultiIndex, ScalarField] = {}
    for idx, c in a.coeffs.items():
        for pos, axis in enumerate(idx):
            comp = X.components[axis]
            if comp.is_zero:
                continue
            reduced = idx[:pos] + idx[pos + 1:]
            term = comp * c if pos % 2 == 0 else -(comp * c)
            out[reduced] = out[reduced] + term if reduced in out else term
    return make_form(a.chart, a.degree - 1, out)


def lie_derivative(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Cartan formula: L_X a = d(i_X a) + i_X(d a)."""
    _require_same_chart(X, a)
    if a.degree == 0:
        return interior_product(X, exterior_derivative(a))
    if a.degree == a.chart.dim:
        return exterior_derivative(interior_product(X, a))
    return (exterior_derivative(interior_product(X, a))
            + interior_product(X, exterior_derivative(a)))


# -- RK4 and the flow-pullback cross-check ------------------------------------


@functools.lru_cache(maxsize=256)
def _flow_code(body: tuple[str, ...]) -> types.CodeType:
    """def flow(p) with body, returning k, compiled once per source text.

    Its numbers and functions are globals bound per field, so fields of one structure share it.
    """
    source = "\n    ".join(["def flow(p):", *body, "return k"])
    return next(c for c in compile(source, "<flow>", "exec").co_consts
                if isinstance(c, types.CodeType))   # the function's code, with no namespace


# RK4's numbers are 0-d float64 arrays: numpy takes an array operand faster than a float (a
# weak scalar), and the products are bitwise the same.
_TWO = np.asarray(2.0)


def _rk4_step(f, y: np.ndarray, h: float) -> np.ndarray:
    """y after one classical RK4 step of length h of y' = f(y); 13 numpy operations besides f."""
    hh, hf, h6 = np.asarray(0.5 * h), np.asarray(h), np.asarray(h / 6.0)
    k1 = f(y)
    k2 = f(y + hh * k1)
    k3 = f(y + hh * k2)
    k4 = f(y + hf * k3)
    return y + h6 * (k1 + _TWO * k2 + _TWO * k3 + k4)


def _rk4_advance(f, y: np.ndarray, span: float, h_max: float) -> np.ndarray:
    """Advance y' = f(y) by span in ceil(|span| / h_max) equal RK4 sub-steps.

    A zero span returns a copy of y without a step.
    """
    if span == 0.0:
        return y.copy()
    n = max(1, int(math.ceil(abs(span) / h_max)))
    h = span / n
    for _ in range(n):
        y = _rk4_step(f, y, h)
    return y


def lie_derivative_flow(X: VectorField, a: DifferentialForm, pts: np.ndarray) -> np.ndarray:
    """(flow_tau^* a - a) / tau with tau = 1e-4, coefficient table at pts.

    Independent of the Cartan-formula path: the flow map is one RK4 step of
    length tau and its Jacobian is taken by central differences of half-width
    1e-5.  Used to cross-check lie_derivative; returns an array matching
    a.coefficient_table(pts).
    """
    tau, jac_step = 1e-4, 1e-5
    chart = a.chart
    pts = chart.as_points(pts)
    n, dim = pts.shape
    phi = _rk4_step(X.flow, pts, tau)
    jac = np.empty((n, dim, dim))
    for i in range(dim):
        dp = np.zeros(dim)
        dp[i] = jac_step
        jac[:, :, i] = (_rk4_step(X.flow, pts + dp, tau)
                        - _rk4_step(X.flow, pts - dp, tau)) / (2 * jac_step)

    indices = a.indices
    at_phi = value_table(a.coeffs.values(), chart.wrap(phi))
    pulled = np.zeros((n, len(indices)))
    for col, idx_out in enumerate(indices):
        total = np.zeros(n)
        for idx_in, vals in zip(a.coeffs, at_phi.T):
            sub = jac[:, idx_in, :][:, :, idx_out]
            total += vals * np.linalg.det(sub)
        pulled[:, col] = total
    return (pulled - a.coefficient_table(pts)) / tau
