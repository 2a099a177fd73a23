"""Metrics, Hodge duals, and metric sharps.

A :class:`MetricField` carries the inverse-metric entries and sqrt(|det g|)
as ScalarFields, so Hodge duals and sharps of analytic forms stay analytic.
The Hodge dual is computed definitionally, by contracting the fixed volume
form with the sharped coordinate coframes:

    star(dx^{i1} ^ ... ^ dx^{ik}) = i_{sharp dx^{ik}} ... i_{sharp dx^{i1}} vol

with vol = sqrt(|det g|) dx^{0..n-1} in chart order (x0 first on spacetime
charts).  This fixes every orientation and Lorentzian sign at once; in
particular i_{sharp dx0} dx0 = g^{00} = -1.

``spatial_hodge`` applies the 3-d Hodge dual fibrewise on a spacetime chart
(acting on spatial indices only), which is how constitutive relations
D = eps0 *3 e and B = mu0 *3 h are evaluated for time-dependent fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import Chart, spatial_chart
from .errors import DegenerateMetricError, DegreeError
from .forms import (DifferentialForm, VectorField, interior_product, make_form,
                    vector_field, zero_form)
from .scalars import ScalarField, ZERO, constant, from_function, lift_spatial, monomial


@dataclass(frozen=True)
class MetricField:
    """Pointwise symmetric metric with analytic inverse entries when known."""

    chart: Chart
    signature: str  # "riemannian" | "lorentzian"
    inv_entries: dict[tuple[int, int], ScalarField]
    sqrt_det: ScalarField  # sqrt(|det g|)
    name: str = ""

    def inv_entry(self, i: int, j: int) -> ScalarField:
        key = (min(i, j), max(i, j))
        return self.inv_entries.get(key, ZERO)


def euclidean_metric(chart: Chart) -> MetricField:
    """Identity metric on any chart (Riemannian)."""
    d = chart.dim
    entries = {(i, i): constant(1.0) for i in range(d)}
    return MetricField(chart, "riemannian", entries, constant(1.0), name="euclidean")


def solid_torus_metric(chart: Chart) -> MetricField:
    """diag(1, r^2, 1) on (r, phi, x3) coordinates; sqrt(det) = r."""
    if chart.labels[:2] != ("r", "phi"):
        raise DegreeError("solid torus metric expects axes (r, phi, x3)")
    entries = {
        (0, 0): constant(1.0),
        (1, 1): monomial(0, -2),  # 1 / r^2
        (2, 2): constant(1.0),
    }
    return MetricField(chart, "riemannian", entries, monomial(0, 1), name="solid_torus")


def lorentzian_product(spatial: MetricField, chart4: Chart) -> MetricField:
    """Block metric -dx0 (x) dx0 + g3 on a spacetime chart."""
    if chart4.time_axis != 0:
        raise DegreeError("lorentzian product expects time axis first")
    if spatial.signature != "riemannian":
        raise DegreeError("spatial factor must be Riemannian")
    entries = {(0, 0): constant(-1.0)}
    for (i, j), sf in spatial.inv_entries.items():
        entries[(i + 1, j + 1)] = lift_spatial(sf)
    return MetricField(chart4, "lorentzian", entries, lift_spatial(spatial.sqrt_det),
                       name=f"lorentzian({spatial.name})")


def metric_from_matrix(chart: Chart, matrix_fn: Callable[[np.ndarray], np.ndarray],
                       signature: str = "riemannian", name: str = "custom") -> MetricField:
    """Wrap a numeric metric; inverse and det computed pointwise (no partials)."""

    def inverse(pts):
        m = matrix_fn(chart.as_points(pts))
        det = np.linalg.det(m)
        if np.any(np.abs(det) < 1e-300):
            raise DegenerateMetricError("metric is singular at an evaluation point")
        return np.linalg.inv(m)

    d = chart.dim
    entries = {}
    for i in range(d):
        for j in range(i, d):
            entries[(i, j)] = from_function(
                lambda pts, i=i, j=j: inverse(pts)[:, i, j])
    sqrt_det = from_function(
        lambda pts: np.sqrt(np.abs(np.linalg.det(matrix_fn(chart.as_points(pts))))))
    return MetricField(chart, signature, entries, sqrt_det, name=name)


# -- sharps and norms -------------------------------------------------------


def _sharp_basis(g: MetricField, j: int, axes: tuple[int, ...]) -> VectorField:
    """Metric dual of dx^j, with components restricted to the given axes."""
    return vector_field(g.chart, {i: g.inv_entry(j, i) for i in axes})


def metric_sharp(g: MetricField, a: DifferentialForm) -> VectorField:
    """Raise a 1-form: components (g^{-1})^{ij} a_j."""
    if a.degree != 1:
        raise DegreeError("metric_sharp needs a 1-form")
    d = g.chart.dim
    comps = {}
    for i in range(d):
        total = ZERO
        for (j,), c in a.coeffs.items():
            total = total + g.inv_entry(i, j) * c
        comps[i] = total
    return vector_field(g.chart, comps)


def norm_sq_field(g: MetricField, a: DifferentialForm) -> ScalarField:
    """g^{-1}(a, a) as a ScalarField (analytic when the inputs are)."""
    if a.degree != 1:
        raise DegreeError("norm_sq_field needs a 1-form")
    total = ZERO
    for (i,), ci in a.coeffs.items():
        for (j,), cj in a.coeffs.items():
            total = total + g.inv_entry(i, j) * ci * cj
    return total


def one_form_norm_sq(g: MetricField, a: DifferentialForm, pts: np.ndarray) -> np.ndarray:
    """g^{-1}(a, a) evaluated at pts."""
    return norm_sq_field(g, a)(g.chart.as_points(pts))


# -- Hodge duals ------------------------------------------------------------


def _hodge_core(chart: Chart, axes: tuple[int, ...], g: MetricField,
                sqrt_det: ScalarField, a: DifferentialForm) -> DifferentialForm:
    vol_idx = tuple(sorted(axes))
    vol = make_form(chart, len(vol_idx), {vol_idx: sqrt_det})
    if a.degree == 0:
        return a.coefficient(()) * vol
    out = zero_form(chart, len(vol_idx) - a.degree)
    for idx, c in a.coeffs.items():
        if any(i not in axes for i in idx):
            raise DegreeError(
                f"form component dx^{idx} lies outside the Hodge axes {axes}")
        dual = vol
        for i in idx:
            dual = interior_product(_sharp_basis(g, i, vol_idx), dual)
        out = out + c * dual
    return out


def hodge_star(g: MetricField, a: DifferentialForm) -> DifferentialForm:
    """Hodge dual with respect to g and the chart-ordered volume form."""
    if a.chart != g.chart:
        raise DegreeError("form and metric live on different charts")
    if a.degree > g.chart.dim:
        raise DegreeError("degree exceeds chart dimension")
    return _hodge_core(g.chart, tuple(range(g.chart.dim)), g, g.sqrt_det, a)


def spatial_hodge(g3: MetricField, a: DifferentialForm) -> DifferentialForm:
    """3-d Hodge dual acting fibrewise on spatial forms of a spacetime chart.

    Accepts either a 3-d form on g3's own chart (plain Hodge dual) or a
    spatial form on the corresponding spacetime chart (x0-parameterized).
    """
    if a.chart == g3.chart:
        return hodge_star(g3, a)
    chart4 = a.chart
    if chart4.time_axis != 0 or spatial_chart(chart4) != g3.chart:
        raise DegreeError("expected a spatial form over the metric's chart")
    if not a.is_spatial:
        raise DegreeError("spatial Hodge dual of a form with dx0 components")
    g4 = lorentzian_product(g3, chart4)
    return _hodge_core(chart4, (1, 2, 3), g4, g4.sqrt_det, a)
