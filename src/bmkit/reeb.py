"""Reeb vector fields of contact forms and stable Hamiltonian structures.

The extraction uses one uniform coordinate formula.  Writing a 2-form as

    Omega = Omega_3 dx1^dx2 + Omega_1 dx2^dx3 + Omega_2 dx3^dx1

the conditions i_Y Omega = 0, i_Y lambda = 1 force Y to be proportional to
(Omega_1, Omega_2, Omega_3), and the normalization gives

    Y = (Omega_1, Omega_2, Omega_3) / (lambda_1 Omega_1 + lambda_2 Omega_2
                                       + lambda_3 Omega_3).

This specializes to both textbook coordinate branches (Omega_3 != 0 and
Omega_3 = 0) without a case split; the denominator is exactly the volume
coefficient of lambda ^ Omega, which a stable Hamiltonian structure keeps
away from zero.  Points where it nearly vanishes raise DegeneratePointError.

Closed forms for the catalog fields (metric duals over squared norms) are
provided as oracles, and every extracted field can report its defining
residuals max |i_Y Omega|, max |i_Y lambda - 1| on a grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .catalog import BeltramiForm, MaxwellFieldSet
from .charts import Chart
from .errors import (BmkitError, ChartMismatchError, DegenerateInstantError,
                     DegeneratePointError)
from .forms import DifferentialForm, VectorField, interior_product, restrict_form, vector_field
from .metrics import MetricField, hodge_star, metric_sharp, norm_sq_field
from .scalars import ScalarField, constant, value_table
from .verify import SampleGrid, _check, _max_abs, _Need

DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class SHSPair:
    """A candidate stable Hamiltonian pair (Omega, lambda) on one 3-d chart."""

    Omega: DifferentialForm
    lam: DifferentialForm

    def __post_init__(self):
        if self.Omega.chart != self.lam.chart:
            raise ChartMismatchError("SHSPair needs Omega and lambda on one chart")
        if self.chart.dim != 3:
            raise BmkitError("SHSPair lives on a 3-d chart")
        if self.Omega.degree != 2 or self.lam.degree != 1:
            raise BmkitError("SHSPair needs a 2-form and a 1-form")

    @property
    def chart(self) -> Chart:
        return self.lam.chart


@dataclass(frozen=True)
class ReebField:
    """An extracted Reeb field, whose defining residuals on grid are evaluated when first read."""

    Y: VectorField
    pair: SHSPair
    grid: SampleGrid

    @functools.cached_property
    def normalization_residuals(self) -> tuple[float, float]:  # (max|i_Y Omega|, max|i_Y lam - 1|)
        return normalization_residuals(self.Y, self.pair, self.grid)


def reeb_from_shs(pair: SHSPair, x) -> np.ndarray:
    """Reeb vector at point(s) x via the uniform formula Y = Omega_vec / (lam . Omega_vec).

    Omega_vec is Omega in the dx2^dx3, dx3^dx1, dx1^dx2 ordering; it, lambda's
    components and lam . Omega_vec are evaluated in one call.
    Raises DegeneratePointError where |lam . Omega_vec|, normalized by the
    point-wise magnitudes of lambda and Omega, falls below 1e-10.
    """
    o1, o2, o3 = (pair.Omega.coefficient((1, 2)), -pair.Omega.coefficient((0, 2)),
                  pair.Omega.coefficient((0, 1)))
    l1, l2, l3 = (pair.lam.coefficient((i,)) for i in range(3))
    pts = pair.chart.as_points(x)
    table = value_table([o1, o2, o3, l1, l2, l3, l1 * o1 + l2 * o2 + l3 * o3], pts)
    ov, lam_tab, den = table[:, :3], table[:, 3:6], table[:, 6]
    scale = np.linalg.norm(lam_tab, axis=-1) * np.linalg.norm(ov, axis=-1)
    bad = np.abs(den) <= DEGENERACY_TOL * np.maximum(scale, 1e-300)
    if np.any(bad):
        witness = pts[bad][0].tolist()
        raise DegeneratePointError(
            f"lambda . Omega vanishes (|den| <= {DEGENERACY_TOL} after scaling) "
            f"at {witness}")
    out = ov / den[:, None]
    return out[0] if np.asarray(x).ndim == 1 else out


@_check
def normalization_residuals(Y: VectorField, pair: SHSPair,
                            grid: SampleGrid) -> tuple[float, float]:
    """(max |i_Y Omega|, max |i_Y lambda - 1|) over the grid."""
    pairing = interior_product(Y, pair.lam).coefficient(())
    (m_omega, _), (m_lam, _) = yield [_max_abs(grid.points, interior_product(Y, pair.Omega)),
                                      _Need(grid.points, [pairing], lambda p: np.abs(p - 1.0))]
    return m_omega, m_lam


def _normalized_reeb(metric: MetricField, lam: DifferentialForm, omega: DifferentialForm,
                     norm2: ScalarField, grid: SampleGrid) -> ReebField:
    """Y = sharp(lam) / |lam|^2 for the pair (omega, lam), with its residuals on grid."""
    sharp = metric_sharp(metric, lam)
    Y = vector_field(lam.chart, {i: c / norm2 for i, c in enumerate(sharp.components)})
    return ReebField(Y, SHSPair(omega, lam), grid)


def reeb_closed_form_beltrami(v: BeltramiForm, variant: str = "normalized",
                              grid: SampleGrid | None = None) -> ReebField:
    """Closed-form Reeb fields of the structures built from a Beltrami form v.

    normalized:   Y = sharp(v) / g^{-1}(v, v) for the pair (star3 v, v);
    unnormalized: Z = sharp(v) for the pair (star3 v, v / g^{-1}(v, v)).
    """
    if variant not in ("normalized", "unnormalized"):
        raise BmkitError("variant must be 'normalized' or 'unnormalized'")
    v.require_nonsingular()
    grid = grid or SampleGrid.regular(v.chart, 8)
    omega = hodge_star(v.metric, v.form)
    norm2 = norm_sq_field(v.metric, v.form)
    if variant == "normalized":
        return _normalized_reeb(v.metric, v.form, omega, norm2, grid)
    return ReebField(metric_sharp(v.metric, v.form),
                     SHSPair(omega, v.form * (constant(1.0) / norm2)), grid)


@_check
def reeb_for_maxwell(M: MaxwellFieldSet, which: str = "Y0", x0: float = 0.0,
                     grid: SampleGrid | None = None) -> ReebField:
    """Reeb field Y0 of (B, e) or Y1 of (D, h) on the slice x0 = const.

    Hard-errors with DegenerateInstantError when the selected 1-form
    lambda (e for Y0, h for Y1) vanishes somewhere on the grid, which for the
    Beltrami-Maxwell catalog happens exactly at cos(k x0) = 0 resp.
    sin(k x0) = 0.  Vanishing is measured against the slice's energy density:
    w min|lambda|^2 <= 1e-18 max(eps0 |e|^2 + mu0 |h|^2) with w = eps0 for Y0
    and mu0 for Y1, so the test does not change with amplitude or units.
    Nothing that divides by |lambda|^2 is built before the test passes.
    """
    if which not in ("Y0", "Y1"):
        raise BmkitError("which must be 'Y0' or 'Y1'")
    sl = M.at_time(x0)
    grid = grid or SampleGrid.regular(sl.chart, 8)
    norm_e, norm_h = norm_sq_field(sl.metric, sl.e), norm_sq_field(sl.metric, sl.h)
    (norms,) = yield [_Need(grid.points, [norm_e, norm_h])]
    e2, h2 = norms.T
    e_energy, h_energy = sl.constants.eps0 * e2, sl.constants.mu0 * h2
    lam, omega, norm2, lam_energy = ((sl.e, sl.B, norm_e, e_energy) if which == "Y0"
                                     else (sl.h, sl.D, norm_h, h_energy))
    energy = float(np.max(e_energy + h_energy))
    if float(np.min(lam_energy)) <= 1e-18 * energy:
        raise DegenerateInstantError(
            f"{which}: defining 1-form vanishes at x0 = {x0} (its energy density "
            f"falls to {float(np.min(lam_energy)):.3e}, max total {energy:.3e})")
    return _normalized_reeb(sl.metric, lam, omega, norm2, grid)


def reeb_parallel_ratio(M: MaxwellFieldSet, x0: float,
                        grid: SampleGrid | None = None) -> float:
    """max componentwise |Y1 - (f_e / f_h) Y0| on the slice (both must exist)."""
    if M.f_e is None or M.f_h is None:
        raise BmkitError("field set does not expose amplitude profiles")
    y0 = reeb_for_maxwell(M, "Y0", x0, grid)
    y1 = reeb_for_maxwell(M, "Y1", x0, grid)
    grid = grid or SampleGrid.regular(M.chart3, 8)
    ratio = M.f_e(x0) / M.f_h(x0)
    diff = y1.Y.evaluate(grid.points) - ratio * y0.Y.evaluate(grid.points)
    return float(np.max(np.abs(diff)))


def field_line_generator(M: MaxwellFieldSet | BeltramiForm, which: str = "e",
                         x0: float = 0.0) -> VectorField:
    """The unnormalized metric dual sharp(e) or sharp(h) on the slice x0.

    A BeltramiForm v gives sharp(v) on its own chart (which and x0 are then
    unused).  Field lines are integral curves of these vector fields;
    closure is invariant under the (positive) reparameterization relating
    them to the normalized Reeb fields.
    """
    if which not in ("e", "h"):
        raise BmkitError("which must be 'e' or 'h'")
    if isinstance(M, BeltramiForm):
        return metric_sharp(M.metric, M.form)
    return metric_sharp(M.metric3, restrict_form(M.chart3, M.e if which == "e" else M.h, x0))
