"""Reeb vector fields of stable Hamiltonian pairs, and field-line generators.

The Reeb field of a pair (Omega, lambda) on a 3-d chart is the Y with i_Y Omega = 0 and
lambda(Y) = 1: Y = Omega# / (lambda . Omega#), with Omega# = (Omega_23, Omega_31, Omega_12)
and lambda . Omega# the volume coefficient of lambda ^ Omega.  :func:`reeb_field` builds
it from the pair's coefficient nodes, with no metric and no case split.  It is the Reeb
field of the Beltrami pairs (star3 v, v) and (star3 v, v / |v|^2), equal to
sharp(v) / |v|^2 and sharp(v), and of the Maxwell pairs (B, e) and (D, h) of a slice.  It
exists on a grid when |lambda . Omega#| > DEGENERACY_TOL |lambda| |Omega#| at every point,
an angle that amplitude and units do not change (else DegeneratePointError at the worst
point); a Maxwell slice whose lambda is round-off dust next to its amplitude over a time
window raises DegenerateInstantError first, and one whose lambda is round-off dust at a
grid point DegeneratePointError.  Extracted fields report their defining residuals
max |i_Y Omega|, max |i_Y lambda - 1| on their grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .catalog import BeltramiForm, MaxwellFieldSet
from .charts import Chart
from .errors import (BmkitError, ChartMismatchError, DegenerateInstantError,
                     DegeneratePointError)
from .forms import DifferentialForm, VectorField, interior_product, restrict_form
from .metrics import hodge_star, metric_sharp, norm_sq_field
from .scalars import constant
from .verify import SampleGrid, _check, _max_abs, _Need, _numerically_zero

DEGENERACY_TOL = 1e-10
NO_REEB_FIELD = "lambda . Omega# vanishes: (Omega, lambda) has no Reeb field"


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


def _columns(pair: SHSPair) -> list:
    """lambda's coefficients and Omega# = (Omega_23, Omega_31, Omega_12) of pair."""
    lam, omega = pair.lam.coefficient, pair.Omega.coefficient
    return [lam((0,)), lam((1,)), lam((2,)), omega((1, 2)), -omega((0, 2)), omega((0, 1))]


def reeb_field(pair: SHSPair) -> VectorField:
    """Y = Omega# / (lambda . Omega#), the Reeb field of pair where lambda . Omega# != 0."""
    l1, l2, l3, *sharp = _columns(pair)
    den = l1 * sharp[0] + l2 * sharp[1] + l3 * sharp[2]
    if den.is_zero:
        raise DegeneratePointError(f"{NO_REEB_FIELD} (lambda . Omega# is identically 0)")
    return VectorField(pair.chart, tuple(c / den for c in sharp))


def _angle(l1, l2, l3, o1, o2, o3):
    """The angle |lambda . Omega#| / (|lambda| |Omega#|) per point of _columns (0 where
    either is 0)."""
    norms = np.sqrt(l1 * l1 + l2 * l2 + l3 * l3) * np.sqrt(o1 * o1 + o2 * o2 + o3 * o3)
    return np.abs(l1 * o1 + l2 * o2 + l3 * o3) / np.maximum(norms, 1e-300)


def _extracted(pair: SHSPair, grid: SampleGrid, angle) -> ReebField:
    """The ReebField of pair on grid, unless angle, the (min _angle, row) there, is too small."""
    margin, row = angle
    if not margin > DEGENERACY_TOL:
        witness = grid.point(row)
        raise DegeneratePointError(f"{NO_REEB_FIELD} (angle {margin:.3e} at {witness})",
                                   witness, margin)
    return ReebField(reeb_field(pair), pair, grid)


@_check
def normalization_residuals(Y: VectorField, pair: SHSPair,
                            grid: SampleGrid) -> tuple[float, float]:
    """(max |i_Y Omega|, max |i_Y lambda - 1|) over the grid."""
    pairing = interior_product(Y, pair.lam).coefficient(())
    (m_omega, _), (m_lam, _) = yield [_max_abs(grid, interior_product(Y, pair.Omega)),
                                      _Need(grid, [pairing], lambda p: np.abs(p - 1.0))]
    return m_omega, m_lam


@_check
def reeb_closed_form_beltrami(v: BeltramiForm, variant: str = "normalized",
                              grid: SampleGrid | None = None) -> ReebField:
    """Reeb fields of the structures built from a Beltrami form v, on grid (default 8^3).

    normalized:   of the pair (star3 v, v), equal to sharp(v) / g^{-1}(v, v);
    unnormalized: of the pair (star3 v, v / g^{-1}(v, v)), equal to sharp(v).
    """
    if variant not in ("normalized", "unnormalized"):
        raise BmkitError("variant must be 'normalized' or 'unnormalized'")
    v.require_nonsingular()
    grid = grid or SampleGrid.regular(v.chart, 8)
    lam = v.form if variant == "normalized" else \
        v.form * (constant(1.0) / norm_sq_field(v.metric, v.form))
    pair = SHSPair(hodge_star(v.metric, v.form), lam)
    (angle,) = yield [_Need(grid, _columns(pair), _angle, lowest=True)]
    return _extracted(pair, grid, angle)


@_check
def reeb_for_maxwell(M: MaxwellFieldSet, which: str = "Y0", x0: float = 0.0,
                     grid: SampleGrid | None = None,
                     window: SampleGrid | None = None) -> ReebField:
    """Reeb field Y0 of (B, e) or Y1 of (D, h) on the slice x0 = const, on grid (default 8^3).

    Raises DegenerateInstantError when lambda (e for Y0, h for Y1) at x0 is
    round-off dust next to max |lambda| over window, as contact_margin decides
    (for the Beltrami-Maxwell catalog exactly at cos(k x0) = 0 resp.
    sin(k x0) = 0); window defaults to grid.window around x0.  Raises
    DegeneratePointError where lambda is round-off dust next to max |lambda| on grid.
    """
    if which not in ("Y0", "Y1"):
        raise BmkitError("which must be 'Y0' or 'Y1'")
    sl = M.at_time(x0)
    grid = grid or SampleGrid.regular(sl.chart, 8)
    window = window or grid.window(M.chart4, [x0])
    lam4, pair = (M.e, SHSPair(sl.B, sl.e)) if which == "Y0" else (M.h, SHSPair(sl.D, sl.h))
    (amp, _), (lam_max, _), (lam_min, row), angle = yield [
        _max_abs(window, lam4), _max_abs(grid, pair.lam), _max_abs(grid, pair.lam, lowest=True),
        _Need(grid, _columns(pair), _angle, lowest=True)]
    if _numerically_zero(lam_max, amp):
        raise DegenerateInstantError(f"{which}: defining 1-form vanishes at x0 = {x0} (max "
                                     f"|lambda| = {lam_max:.3e}, window amplitude {amp:.3e})")
    if angle[0] > DEGENERACY_TOL and _numerically_zero(lam_min, lam_max):
        witness = grid.point(row)
        raise DegeneratePointError(f"{NO_REEB_FIELD} (|lambda| {lam_min:.3e} at {witness}, "
                                   f"max {lam_max:.3e})", witness, lam_min / lam_max)
    return _extracted(pair, grid, angle)


def reeb_parallel_ratio(M: MaxwellFieldSet, x0: float,
                        grid: SampleGrid | None = None) -> float:
    """max componentwise |Y1 - (f_e / f_h) Y0| on the slice (both must exist)."""
    if M.f_e is None or M.f_h is None:
        raise BmkitError("field set does not expose amplitude profiles")
    y0 = reeb_for_maxwell(M, "Y0", x0, grid)
    y1 = reeb_for_maxwell(M, "Y1", x0, grid)
    ratio = M.f_e(x0) / M.f_h(x0)
    diff = y1.Y.evaluate(y0.grid.points) - ratio * y0.Y.evaluate(y0.grid.points)
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
