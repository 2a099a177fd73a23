"""Metrics, Hodge duals, and metric sharps.

Every metric is diagonal: a :class:`MetricField` carries one inverse entry
g^{ii} per axis and sqrt(|det g|) as analytic ScalarFields (Euclidean, solid
torus, and their Lorentzian products; there are no numeric-matrix or
off-diagonal metrics), so Hodge duals and sharps of analytic forms stay
analytic.  A sharp is g^{ii} a_i and a norm the sum of g^{ii} a_i a_i.
The Hodge dual reads the coefficients directly, in the order and with the
signs of the definitional contraction of the volume form with the sharped
coordinate coframes:

    star(dx^{i1} ^ ... ^ dx^{ik}) = i_{sharp dx^{ik}} ... i_{sharp dx^{i1}} vol

with vol = sqrt(|det g|) dx^{0..n-1} in chart order (x0 first on spacetime
charts).  Contracting with sharp dx^{i} = g^{ii} d/dx^i multiplies by g^{ii}
and negates when i sits at an odd position of the remaining volume index.
This fixes every orientation and Lorentzian sign at once; in particular
i_{sharp dx0} dx0 = g^{00} = -1.

``spatial_hodge`` applies the 3-d Hodge dual fibrewise on a spacetime chart
(acting on spatial indices only), which is how constitutive relations
D = eps0 *3 e and B = mu0 *3 h are evaluated for time-dependent fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import Chart, require_spacetime
from .errors import DegreeError
from .forms import DifferentialForm, VectorField, make_form, vector_field
from .scalars import ScalarField, ZERO, constant, lift_spatial, monomial


@dataclass(frozen=True)
class MetricField:
    """Pointwise diagonal metric given by its analytic inverse diagonal."""

    chart: Chart
    signature: str  # "riemannian" | "lorentzian"
    inv_diag: tuple[ScalarField, ...]  # g^{ii}, one per axis
    sqrt_det: ScalarField  # sqrt(|det g|)


def euclidean_metric(chart: Chart) -> MetricField:
    """Identity metric on any chart (Riemannian)."""
    return MetricField(chart, "riemannian", (constant(1.0),) * chart.dim, constant(1.0))


def solid_torus_metric(chart: Chart) -> MetricField:
    """diag(1, r^2, 1) on (r, phi, x3) coordinates; sqrt(det) = r."""
    if chart.labels[:2] != ("r", "phi"):
        raise DegreeError("solid torus metric expects axes (r, phi, x3)")
    inv_diag = (constant(1.0), monomial(0, -2), constant(1.0))  # g^{phi phi} = 1 / r^2
    return MetricField(chart, "riemannian", inv_diag, monomial(0, 1))


def lorentzian_product(spatial: MetricField, chart4: Chart) -> MetricField:
    """Block metric -dx0 (x) dx0 + g3 on chart4 = spacetime(spatial.chart)."""
    require_spacetime(chart4, spatial.chart)
    if spatial.signature != "riemannian":
        raise DegreeError("spatial factor must be Riemannian")
    inv_diag = (constant(-1.0), *map(lift_spatial, spatial.inv_diag))
    return MetricField(chart4, "lorentzian", inv_diag, lift_spatial(spatial.sqrt_det))


# -- sharps and norms -------------------------------------------------------


def metric_sharp(g: MetricField, a: DifferentialForm) -> VectorField:
    """Raise a 1-form: components g^{ii} a_i."""
    if a.degree != 1:
        raise DegreeError("metric_sharp needs a 1-form")
    return vector_field(g.chart, {i: g.inv_diag[i] * c for (i,), c in a.coeffs.items()})


def norm_sq_field(g: MetricField, a: DifferentialForm) -> ScalarField:
    """g^{-1}(a, a) as a ScalarField (analytic when the inputs are)."""
    if a.degree != 1:
        raise DegreeError("norm_sq_field needs a 1-form")
    total = ZERO
    for (i,), c in a.coeffs.items():
        total = total + g.inv_diag[i] * c * c
    return total


# -- Hodge duals ------------------------------------------------------------


def _hodge_core(g: MetricField, axes: tuple[int, ...], a: DifferentialForm) -> DifferentialForm:
    vol_idx = tuple(sorted(axes))
    out = {}
    for idx, c in a.coeffs.items():
        if any(i not in axes for i in idx):
            raise DegreeError(
                f"form component dx^{idx} lies outside the Hodge axes {axes}")
        rest, dual = vol_idx, g.sqrt_det
        for i in idx:   # i_{sharp dx^i} of dual dx^rest
            pos = rest.index(i)
            dual = g.inv_diag[i] * dual if pos % 2 == 0 else -(g.inv_diag[i] * dual)
            rest = rest[:pos] + rest[pos + 1:]
        out[rest] = c * dual
    return make_form(g.chart, len(vol_idx) - a.degree, out)


def hodge_star(g: MetricField, a: DifferentialForm) -> DifferentialForm:
    """Hodge dual with respect to g and the chart-ordered volume form."""
    if a.chart != g.chart:
        raise DegreeError("form and metric live on different charts")
    if a.degree > g.chart.dim:
        raise DegreeError("degree exceeds chart dimension")
    return _hodge_core(g, tuple(range(g.chart.dim)), a)


def spatial_hodge(g3: MetricField, a: DifferentialForm) -> DifferentialForm:
    """3-d Hodge dual acting fibrewise on spatial forms of a spacetime chart.

    Accepts either a 3-d form on g3's own chart (plain Hodge dual) or a
    spatial form on spacetime(g3.chart) (x0-parameterized); a dx0 component
    raises DegreeError.
    """
    if a.chart == g3.chart:
        return hodge_star(g3, a)
    return _hodge_core(lorentzian_product(g3, a.chart), (1, 2, 3), a)
