"""Quantitative verifiers for the geometric structures of Maxwell field sets.

Every check yields the statistics it needs of some fields over a sample grid
(max |.| and min |.| with witnesses, or a whole table), decides over their
values, and returns a :class:`CheckReport`.  A :class:`Batch` runs checks
together: each round, one plan per grid evaluates every non-constant field
asked for as one column on the grid's axes, in blocks of BLOCK_ROWS = 2^14 points
(one block for a bmk verify window of 10^4 points), and a constant enters by its
value; each value keeps the shape of the axes its node reads, and is folded on it
to its extreme and the row of the first point attaining it.  A check reads the
coordinates (``SampleGrid.point``) of the witnesses it reports only.  A public
verifier runs a batch of its own, or with ``deferred=True`` returns its check.
Conventions:

* every residual passes when ``residual <= tol * scale``, with the scale taken
  from the check's inputs (|k| max|v|, max|F|, max|Y| max|form|, ...) and
  reported in ``details``, so amplitude and units never change a decision;
* tol is 1e-10 when every involved coefficient has analytic partials, 1e-6
  when one falls back to finite differences (an ``fn`` node), and 1e-12
  (1e-10 for the 4-d form) for the constitutive relations;
* margins ("nonzero anywhere" conditions) are a sampling proxy: the minimum
  over the grid is compared, after normalizing the input forms to unit max
  coefficient, against a 1e-9 floor, and the worst point is reported as a
  witness;
* reports serialize to a stable JSON dict (schema "bmk-report/1" wraps them).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field as dfield

import numpy as np

from .catalog import MaxwellFieldSet
from .charts import Chart, require_spacetime
from .errors import BmkitError, DegreeError, require_storable
from .forms import (DifferentialForm, VectorField, exterior_derivative,
                    interior_product, lie_derivative,
                    spatial_exterior_derivative, time_derivative, wedge)
from .metrics import MetricField, hodge_star, spatial_hodge
from .scalars import Plan, points

TOL_RESIDUAL_ANALYTIC = 1e-10
TOL_RESIDUAL_FD = 1e-6
TOL_CONSTITUTIVE = 1e-12
TOL_CONSTITUTIVE_4D = 1e-10
TOL_MARGIN = 1e-9
TOL_AGREEMENT = 1e-8
# Points per block of a batch's plan runs: 2^14, so the 10^4-point windows of bmk verify
# run in one block, and larger grids keep bounded blocks (and peak memory).  On Bessel and
# ABC --checks all --tgrid 10, a 2-vCPU host: at --grid 40, 2^14 takes 0.08 s / 0.15 s and
# 48 / 50 MB peak RSS, 2^11 0.33 s / 0.37 s and 50 / 50 MB, 2^15 0.06 s / 0.14 s and
# 48 / 59 MB; at --grid 64 (ABC), 2^14 0.51 s and 84 MB, one block 1.87 s and 270 MB.
BLOCK_ROWS = 2 ** 14
T_WINDOW, TGRID = 0.35, 6   # default half-width and instants of a time window


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Chart points for residual and margin scans: a point set (`scalars.Plan`) of per-axis
    columns, ``axes``, whose ``points`` are made when first read.  A grid equals only itself
    (and hashes by identity), as a batch groups needs by grid."""

    chart: Chart
    axes: tuple  # one column per chart axis
    spec: dict

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return np.broadcast_shapes(*(c.shape for c in self.axes))

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The (n, dim) array of the points, in order."""
        return points(self.axes).reshape(-1, self.chart.dim)

    @functools.cached_property
    def strides(self) -> tuple[int, ...]:
        """The C-order row strides of the shape: a point's row is sum(index * strides)."""
        return tuple(math.prod(self.shape[d + 1:]) for d in range(len(self.shape)))

    def point(self, row: int) -> list:
        """The coordinates of point row, read from the axes (index 0 on a broadcast one)."""
        index = [row // s % n for s, n in zip(self.strides, self.shape)]
        return [c.item(*[i % n for i, n in zip(index, c.shape)]) for c in self.axes]

    @classmethod
    def regular(cls, chart: Chart, counts) -> "SampleGrid":
        """Regular lattice over each axis' window; periodic axes omit the duplicate endpoint.

        counts: one integer per axis, or one (an int or a 1-sequence) for all, each >= 2, and
        the points fit in 2^63 bytes.  An unbounded interval end is replaced by 0 or 2pi.
        """
        counts = tuple(int(c) for c in np.atleast_1d(counts))
        if len(counts) not in (1, chart.dim) or min(counts) < 2:
            raise BmkitError(f"grid needs 1 or {chart.dim} counts, each >= 2; got {list(counts)}")
        counts *= chart.dim // len(counts)
        require_storable(np.prod(counts, dtype=float) * chart.dim,
                         f"grid of {list(counts)} points per axis")
        return cls(chart, tuple(chart.lattice(counts)),
                   {"kind": "regular", "counts": list(counts), "chart": chart.name})

    def window(self, chart4: Chart, x0s, t_window: float = T_WINDOW,
               tgrid: int = TGRID) -> "SampleGrid":
        """with_time over tgrid instants spanning x0 +- t_window for each x0 in x0s (one: x0)."""
        return self.with_time(chart4, np.unique(np.concatenate(
            [np.linspace(x0 - t_window, x0 + t_window, tgrid) if tgrid > 1 else [x0]
             for x0 in x0s])))

    def with_time(self, chart4: Chart, x0_values) -> "SampleGrid":
        """Product of this grid with a list of x0 instants (a leading axis), on chart4."""
        require_spacetime(chart4, self.chart)
        x0_values = np.atleast_1d(np.asarray(x0_values, dtype=float))
        x0 = x0_values.reshape((-1,) + (1,) * len(self.shape))
        return SampleGrid(chart4, (x0, *(c[np.newaxis] for c in self.axes)),
                          {"kind": "product_time", "base": self.spec,
                           "x0": [float(t) for t in x0_values]})


@dataclass
class CheckReport:
    """Outcome of one structure check on one grid."""

    check: str
    passed: bool
    max_residual: float
    min_margin: float | None
    tolerance: dict
    witness: list = dfield(default_factory=list)
    grid: dict = dfield(default_factory=dict)
    details: dict = dfield(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": bool(self.passed),
            "max_residual": float(self.max_residual),
            "min_margin": None if self.min_margin is None else float(self.min_margin),
            "tolerance": self.tolerance,
            "witness": self.witness,
            "grid": self.grid,
            "details": self.details,
        }


# -- requests and batches ------------------------------------------------------------


class _Need:
    """pointwise(*values of fields) over a grid, reduced to (value, row): its maximum (its
    minimum when lowest) and the row of the first point attaining it; with no pointwise, the
    (n, k) table of the values.  A batch folds it over blocks of the grid, then sets result.
    """

    def __init__(self, grid: SampleGrid, fields, pointwise=None, lowest: bool = False):
        self.grid, self.fields, self.pointwise = grid, tuple(fields), pointwise
        self.extreme, self.result = np.argmin if lowest else np.argmax, None
        # (extreme, row) per block, or the table filled block by block
        self.blocks = [] if pointwise else np.empty(grid.shape + (len(self.fields),))

    def add(self, cols, block: tuple, start: int):
        """Fold in cols, the fields' values (or constants) on grid block block from row start."""
        if self.pointwise is None:
            table = self.blocks[block]
            for j, c in enumerate(cols):
                table[..., j] = c
        else:
            vals = np.asarray(self.pointwise(*cols))
            i = int(self.extreme(vals))
            value, row = vals.flat[i], start
            # a value has the shape of the columns it read: a broadcast axis takes index 0
            for n, stride in zip(reversed(vals.shape), reversed(self.grid.strides)) if i else ():
                i, k = divmod(i, n)
                row += k * stride
            self.blocks.append((value, row))

    def finish(self):
        if self.pointwise is None:
            self.result = self.blocks.reshape(self.grid.n, len(self.fields))
            return
        # the first block attaining the extreme holds the first point attaining it
        value, row = self.blocks[int(self.extreme([v for v, _ in self.blocks]))]
        self.result = float(value), row


def _max_abs(grid: SampleGrid, f, lowest: bool = False) -> _Need:
    """max (min when lowest) over grid of max |coefficient| of a form or vector field."""
    fields = f.components if isinstance(f, VectorField) else f.coeffs.values()
    return _Need(grid, fields, lambda *c: functools.reduce(np.maximum, map(np.abs, c or [0.0])),
                 lowest)


def _blocks(grid: SampleGrid):
    """(index, first row) of each block of grid: C-order slabs of at most BLOCK_ROWS points
    (so row ranges), a range of dimension j, the first whose trailing dimensions fit."""
    shape, strides = grid.shape, grid.strides
    j = len(shape) - 1
    while j > 0 and strides[j - 1] <= BLOCK_ROWS:
        j -= 1
    m = max(1, BLOCK_ROWS // strides[j])
    for lead in itertools.product(*map(range, shape[:j])):
        for s in range(0, shape[j], m):
            yield ((*(slice(i, i + 1) for i in lead), slice(s, s + m)),
                   sum(map(operator.mul, lead, strides)) + s * strides[j])


class Batch:
    """Runs checks together; ``counts`` totals its plans, their runs (one per block), columns,
    points, steps and values."""

    def __init__(self):
        self.counts = collections.Counter(plans=0, runs=0, columns=0, points=0, steps=0, values=0)

    def run(self, checks) -> list:
        """Each check's result, or the BmkitError it raised, in order.  A check is a generator
        that yields lists of needs, is sent their results, and returns its result."""
        out, running = [None] * len(checks), [(i, check, None) for i, check in enumerate(checks)]
        while running:
            asked = []
            for i, check, needs in running:
                try:
                    asked.append((i, check, check.send(needs and [n.result for n in needs])))
                except StopIteration as stop:
                    out[i] = stop.value
                except BmkitError as exc:
                    out[i] = exc
            self.evaluate([need for _, _, needs in asked for need in needs])
            running = asked
        return out

    def evaluate(self, needs) -> None:
        """Set each need's result: one plan per grid, with one column per non-constant field
        (equal fields share one), run on the grid's axes sliced to each block; a constant by
        value.  Values keep the shape of the axes their node reads, and are folded on it."""
        groups: dict = {}
        for need in needs:
            if need.result is None:   # a need that several checks yield runs once
                groups.setdefault(id(need.grid), {})[id(need)] = need
        for group in groups.values():
            group = list(group.values())
            grid = group[0].grid
            roots = {id(sf): sf for need in group for sf in need.fields if sf.const is None}
            plan = Plan(roots.values())
            if roots:
                self.counts.update(plans=1, columns=len(roots), points=grid.n,
                                   steps=len(plan.steps))
            sizes: dict = {}   # block shapes -> the values a run computes on them
            for block, start in _blocks(grid):
                cols = [c[tuple(k if n > 1 else slice(None) for k, n in zip(block, c.shape))]
                        for c in grid.axes]
                shapes = tuple(c.shape for c in cols)
                if shapes not in sizes:
                    sizes[shapes] = plan.values(cols)
                self.counts.update(runs=int(bool(roots)), values=sizes[shapes])
                values = dict(zip(roots, plan(cols)))
                for need in group:
                    need.add([values.get(id(sf), sf.const) for sf in need.fields], block, start)
            for need in group:
                need.finish()


def _check(gen_fn):
    """A public verifier from gen_fn, a check as Batch.run takes it: it runs in a batch
    of its own, or with deferred=True is returned for the caller's batch."""
    @functools.wraps(gen_fn)
    def verifier(*args, deferred: bool = False, **kwargs):
        check = gen_fn(*args, **kwargs)
        if deferred:
            return check
        (result,) = Batch().run([check])
        if isinstance(result, BmkitError):
            raise result
        return result

    return verifier


def _mode_tol(*forms: DifferentialForm) -> tuple[str, float]:
    analytic = all(f.has_analytic_partials for f in forms)
    if analytic:
        return "analytic", TOL_RESIDUAL_ANALYTIC
    return "fd", TOL_RESIDUAL_FD


def _amplitude_needs(M: MaxwellFieldSet, grid4: SampleGrid) -> dict:
    """The needs of max |coefficient| of e, h, B and D over grid4, from which the maxwell and
    constitutive scales derive; each of those checks yields them with its own needs."""
    return {name: _max_abs(grid4, getattr(M, name)) for name in ("e", "h", "B", "D")}


# -- checks -------------------------------------------------------------------


@_check
def beltrami_residual(v: DifferentialForm, k: float, g: MetricField,
                      grid: SampleGrid) -> CheckReport:
    """max |star3 d v - k v| over the grid (scale |k| max|v|); also reports |star3 d star3 v|."""
    if g.chart.dim != 3 or g.signature != "riemannian":
        raise DegreeError("beltrami_residual needs a 3-d Riemannian metric")
    mode, tol = _mode_tol(v)
    resid = hodge_star(g, exterior_derivative(v)) - float(k) * v
    div = hodge_star(g, exterior_derivative(hodge_star(g, v)))
    (max_res, row), (max_div, _), (v_max, _) = yield [
        _max_abs(grid, resid), _max_abs(grid, div), _max_abs(grid, v)]
    scale = abs(float(k)) * v_max
    return CheckReport(
        "beltrami", max_res <= tol * scale, max_res, None,
        {"residual": tol}, [grid.point(row)], grid.spec,
        {"k": float(k), "divergence_residual": max_div, "mode": mode, "scale": scale})


@_check
def maxwell_residuals(M: MaxwellFieldSet, grid4: SampleGrid) -> CheckReport:
    """All four decomposed Maxwell residuals plus the 4-d dF0, dF1 cross-check.

    The decomposed and 4-d residuals are compared coefficient-by-coefficient
    (the 4-d derivative splits as d = d_spatial + dx0 ^ d/dx0), and their
    disagreement is reported and required to stay below 1e-8 times the 4-d
    form's scale.  The scales derive from the amplitude needs it yields.
    """
    require_spacetime(grid4.chart, M.chart3)
    c0 = M.c0
    mode, tol = _mode_tol(M.e, M.h, M.B, M.D)
    amp_needs = _amplitude_needs(M, grid4)

    faraday = spatial_exterior_derivative(M.e) + c0 * time_derivative(M.B)
    gauss_b = spatial_exterior_derivative(M.B)
    gauss_d = spatial_exterior_derivative(M.D)
    ampere = spatial_exterior_derivative(M.h) - c0 * time_derivative(M.D)
    d_f0 = exterior_derivative(M.F0)
    d_f1 = exterior_derivative(M.F1)

    # Appendix-style split: dF0 = -(faraday) ^ dx0 - c0 d_spatial B, and
    # dF1 = -(ampere)/c0 ^ dx0 + d_spatial D.  Compare signed coefficients:
    # the 2-form piece on the dx0 indices, the 3-form piece on the others.
    found, agree = {}, {"dF0": [], "dF1": []}
    for name4, form4, pieces in (
            ("dF0", d_f0, (("faraday", faraday, lambda d, p: d + p),
                           ("gauss_magnetic", gauss_b, lambda d, p: d + c0 * p))),
            ("dF1", d_f1, (("ampere", ampere, lambda d, p: d + p / c0),
                           ("gauss_electric", gauss_d, lambda d, p: d - p)))):
        for name, form, join in pieces:
            agree[name4] += [
                _Need(grid4, [form4.coefficient(idx),
                            form.coefficient(tuple(i for i in idx if i != 0))],
                      lambda d, p, join=join: np.abs(join(d, p)))
                for idx in form4.indices if (0 in idx) == (form.degree < form4.degree)]
            found[name] = _max_abs(grid4, form)
        found[name4] = _max_abs(grid4, form4)
    yield [*found.values(), *agree["dF0"], *agree["dF1"], *amp_needs.values()]

    amp = {name: need.result[0] for name, need in amp_needs.items()}
    scales = {"faraday": max(amp["e"], c0 * amp["B"]), "gauss_magnetic": amp["B"],
              "gauss_electric": amp["D"], "ampere": max(amp["h"], c0 * amp["D"]),
              "dF0": max(amp["e"], c0 * amp["B"]), "dF1": max(amp["D"], amp["h"] * (1.0 / c0))}
    agree = {name4: max([0.0, *(n.result[0] for n in needs)]) for name4, needs in agree.items()}
    parts = {name: found[name].result for name in scales}   # the order breaks ties for the witness

    max_res = max(v for v, _ in parts.values())
    worst = max(parts.items(), key=lambda kv: kv[1][0])
    passed = (all(v <= tol * scales[name] for name, (v, _) in parts.items())
              and all(a <= TOL_AGREEMENT * scales[name] for name, a in agree.items()))
    return CheckReport(
        "maxwell", passed, max_res, None,
        {"residual": tol, "agreement": TOL_AGREEMENT},
        [grid4.point(worst[1][1])], grid4.spec,
        {"parts": {k: v for k, (v, _) in parts.items()},
         "decomposed_vs_4d": max(agree.values()), "agreement": agree,
         "scales": scales, "mode": mode})


@_check
def constitutive_residuals(M: MaxwellFieldSet, grid4: SampleGrid) -> CheckReport:
    """|D - eps0 *3 e|, |B - mu0 *3 h|, and the 4-d check |F1 + eps0 * F0|, against
    max|D|, max|B| and max|F1| from the amplitude needs it yields (as maxwell_residuals)."""
    amp_needs = _amplitude_needs(M, grid4)
    r_d = M.D - M.eps0 * spatial_hodge(M.metric3, M.e)
    r_b = M.B - M.mu0 * spatial_hodge(M.metric3, M.h)
    r_4d = M.F1 + M.eps0 * hodge_star(M.metric4, M.F0)
    (m_d, row), (m_b, _), (m_4, _), *_ = yield [
        _max_abs(grid4, r_d), _max_abs(grid4, r_b), _max_abs(grid4, r_4d), *amp_needs.values()]
    amp = {name: need.result[0] for name, need in amp_needs.items()}
    scales = {"D_vs_star_e": amp["D"], "B_vs_star_h": amp["B"],
              "F1_plus_eps0_star_F0": max(amp["D"], amp["h"] * (1.0 / M.c0))}
    passed = (m_d <= TOL_CONSTITUTIVE * amp["D"] and m_b <= TOL_CONSTITUTIVE * amp["B"]
              and m_4 <= TOL_CONSTITUTIVE_4D * scales["F1_plus_eps0_star_F0"])
    return CheckReport(
        "constitutive", passed, max(m_d, m_b), None,
        {"residual": TOL_CONSTITUTIVE, "residual_4d": TOL_CONSTITUTIVE_4D},
        [grid4.point(row)], grid4.spec,
        {"D_vs_star_e": m_d, "B_vs_star_h": m_b, "F1_plus_eps0_star_F0": m_4,
         "scales": scales})


def _numerically_zero(max_abs: float, zero_scale) -> bool:
    """True when a form's grid maximum max_abs is round-off dust next to zero_scale.

    Rescaling a field and its reference together leaves this invariant, so
    pass/fail stays scale-covariant; what it catches is a structurally
    time-modulated field sampled at an instant where its amplitude vanishes
    (up to float pi) rather than a genuinely small field.
    """
    if zero_scale is None or zero_scale <= 0.0:
        return False
    return max_abs <= 1e-12 * zero_scale


@_check
def contact_margin(lam: DifferentialForm, grid: SampleGrid,
                   zero_scale: float | None = None) -> CheckReport:
    """min |volume coefficient of lambda ^ d lambda| over the grid.

    The pass criterion uses the margin normalized by max|lambda| max|d lambda|
    so that it is invariant under constant rescaling of lambda.  zero_scale,
    when given, is the global amplitude of the field family lambda was sliced
    from; a lambda that is round-off dust next to it reports margin exactly 0.
    """
    chart = lam.chart
    if chart.dim != 3:
        raise DegreeError("contact_margin works on 3-d forms")
    dlam = exterior_derivative(lam)
    (lam_max, _), (dlam_max, _), (raw, row) = yield [
        _max_abs(grid, lam), _max_abs(grid, dlam),
        _Need(grid, [wedge(lam, dlam).coefficient((0, 1, 2))], np.abs, lowest=True)]
    if _numerically_zero(lam_max, zero_scale):
        return CheckReport("contact", False, 0.0, 0.0, {"margin": TOL_MARGIN},
                           [grid.point(0)], grid.spec,
                           {"normalized_margin": 0.0, "degenerate_zero_form": True})
    scale = lam_max * dlam_max
    normalized = raw / scale if scale > 0 else 0.0
    return CheckReport(
        "contact", normalized >= TOL_MARGIN, 0.0, raw,
        {"margin": TOL_MARGIN}, [grid.point(row)], grid.spec,
        {"normalized_margin": normalized, "scale": scale})


@_check
def shs_check(Omega: DifferentialForm, lam: DifferentialForm, grid: SampleGrid,
              zero_scales: tuple[float, float] | None = None) -> CheckReport:
    """Stable-Hamiltonian-structure check for a pair (Omega, lambda).

    Reports (a) max |d Omega|, (b) the min |lambda ^ Omega| margin, and
    (c) a pointwise estimate of the proportionality factor in
    d lambda = f * Omega together with the residual of that relation.
    Points where max|Omega| falls below 1e-8 of its grid maximum are
    flagged as ill-posed for the estimate and excluded from the f statistics.
    zero_scales = (scale_Omega, scale_lambda) are global field amplitudes;
    a member that is round-off dust next to its scale fails with margin 0.
    The residuals are measured with no floor, max |d Omega| against
    tol * max |Omega| and the proportionality residual against
    tol * max |d lambda|, so rescaling Omega or lambda keeps the decision.
    """
    chart = lam.chart
    if chart.dim != 3:
        raise DegreeError("shs_check works on 3-d forms")
    mode, tol = _mode_tol(Omega, lam)
    dlam = exterior_derivative(lam)
    (omega_tab, dlam_tab, (omega_abs_max, _), (lam_max, _), (closure, _),
     (raw_margin, row), (dlam_max, _)) = yield [
        _Need(grid, map(Omega.coefficient, Omega.indices)),
        _Need(grid, map(dlam.coefficient, dlam.indices)),
        _max_abs(grid, Omega), _max_abs(grid, lam), _max_abs(grid, exterior_derivative(Omega)),
        _Need(grid, [wedge(lam, Omega).coefficient((0, 1, 2))], np.abs, lowest=True),
        _max_abs(grid, dlam)]
    if zero_scales is not None and (_numerically_zero(omega_abs_max, zero_scales[0])
                                    or _numerically_zero(lam_max, zero_scales[1])):
        return CheckReport("shs", False, 0.0, 0.0,
                           {"residual": tol, "margin": TOL_MARGIN},
                           [grid.point(0)], grid.spec,
                           {"normalized_margin": 0.0, "degenerate_zero_form": True})

    scale = lam_max * omega_abs_max
    normalized = raw_margin / scale if scale > 0 else 0.0

    omega_max = np.max(np.abs(omega_tab), axis=1)
    well_posed = omega_max > 1e-8 * max(omega_abs_max, 1e-300)
    pick = np.argmax(np.abs(omega_tab), axis=1)
    rows = np.arange(grid.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_est = dlam_tab[rows, pick] / omega_tab[rows, pick]
    f_vals = f_est[well_posed]
    resid = dlam_tab - f_est[:, None] * omega_tab
    resid[~well_posed] = 0.0
    prop_resid = float(np.max(np.abs(resid))) if resid.size else 0.0

    details = {
        "closure_residual": closure,
        "proportionality_residual": prop_resid,
        "normalized_margin": normalized,
        "mode": mode,
        "n_illposed": int(np.sum(~well_posed)),
    }
    if f_vals.size:
        details["f_mean"] = float(np.mean(f_vals))
        details["f_min"] = float(np.min(f_vals))
        details["f_max"] = float(np.max(f_vals))
        details["f_spread"] = float(np.max(f_vals) - np.min(f_vals))
    details.update(closure_scale=omega_abs_max, proportionality_scale=dlam_max)
    passed = (closure <= tol * omega_abs_max and normalized >= TOL_MARGIN
              and prop_resid <= tol * dlam_max and not np.any(~well_posed))
    return CheckReport("shs", passed, max(closure, prop_resid), raw_margin,
                       {"residual": tol, "margin": TOL_MARGIN},
                       [grid.point(row)], grid.spec, details)


@_check
def symplectic_margin(F: DifferentialForm, grid4: SampleGrid,
                      companion: tuple[DifferentialForm, DifferentialForm] | None = None,
                      label: str = "F") -> CheckReport:
    """min |F ^ F| and max |dF| on a 4-d grid (plus a 2-form ^ 1-form margin).

    The margin is normalized by max|F|^2, the closure by max|F|.  companion,
    when given, is the (two-form, one-form) pair whose 3-form product margin
    (B ^ e for F0, D ^ h for F1) is reported alongside.
    """
    chart = F.chart
    if chart.dim != 4:
        raise DegreeError("symplectic_margin works on 4-d 2-forms")
    mode, tol = _mode_tol(F)
    needs = [_max_abs(grid4, exterior_derivative(F)), _max_abs(grid4, F),
             _Need(grid4, [wedge(F, F).coefficient((0, 1, 2, 3))], np.abs, lowest=True)]
    if companion is not None:
        needs.append(_Need(grid4, [wedge(*companion).coefficient(chart.spatial_axes)], np.abs,
                           lowest=True))
    (closure, _), (f_max, _), (raw, row), *companion_min = yield needs
    normalized = raw / (f_max * f_max) if f_max > 0 else 0.0
    details = {"normalized_margin": normalized, "closure_residual": closure,
               "closure_scale": f_max, "mode": mode}
    if companion is not None:
        details["companion_margin"] = companion_min[0][0]
    passed = normalized >= TOL_MARGIN and closure <= tol * f_max
    return CheckReport(f"symplectic_{label}", passed, closure, raw,
                       {"residual": tol, "margin": TOL_MARGIN},
                       [grid4.point(row)], grid4.spec, details)


@_check
def parallel_check(M: MaxwellFieldSet, grid4: SampleGrid) -> CheckReport:
    """max |e ^ h| over the grid; passes when it is at most tol * max|e| * max|h|.

    The scale has no floor, so the decision does not change when e or h is
    rescaled.
    """
    mode, tol = _mode_tol(M.e, M.h)
    (e_max, _), (h_max, _), (max_res, row) = yield [
        _max_abs(grid4, M.e), _max_abs(grid4, M.h), _max_abs(grid4, M.poynting())]
    scale = e_max * h_max
    return CheckReport("parallel", max_res <= tol * scale, max_res, None,
                       {"residual": tol}, [grid4.point(row)], grid4.spec,
                       {"mode": mode, "scale": scale})


@_check
def conservation_along(Y: VectorField, forms, grid: SampleGrid, names=None) -> CheckReport:
    """max coefficient of L_Y(form) over the grid, per form, with a scaled tolerance.

    Lie derivatives use the Cartan formula on analytic coefficient partials;
    a coefficient without partials (an ``fn`` node) falls back to finite
    differences, and the tolerance follows (1e-10, or 1e-6 with a
    finite-difference partial).  Each form passes when its residual is at most
    tol * max|Y| * max|form|, so rescaling Y or the forms keeps the decision;
    the scales are reported next to the residuals.
    """
    forms = list(forms)
    names = list(names) if names is not None else [f"form{i}" for i in range(len(forms))]
    lies = [lie_derivative(Y, f) for f in forms]
    mode, tol = _mode_tol(*lies)
    (y_max, _), *maxima = yield [_max_abs(grid, f) for f in [Y, *forms, *lies]]
    per, scales = {}, {}
    worst = (0.0, 0)
    for name, (f_max, _), (m, w) in zip(names, maxima, maxima[len(forms):]):
        per[name] = m
        scales[name] = y_max * f_max
        if m >= worst[0]:
            worst = (m, w)
    passed = all(per[name] <= tol * scales[name] for name in per)
    return CheckReport("conservation", passed, worst[0], None,
                       {"residual": tol}, [grid.point(worst[1])], grid.spec,
                       {"per_form": per, "scales": scales, "mode": mode})


@_check
def reeb_like_check(Z: VectorField, lam: DifferentialForm, grid: SampleGrid) -> CheckReport:
    """max |i_Z d lambda| and min i_Z lambda over the grid (Reeb-like conditions),
    scaled by max|Z| max|d lambda| and max|Z| max|lambda| respectively."""
    mode, tol = _mode_tol(lam)
    dlam = exterior_derivative(lam)
    (max_res, r_res), (min_pair, r_pair), (z_max, _), (lam_max, _), (dlam_max, _) = yield [
        _max_abs(grid, interior_product(Z, dlam)),
        _Need(grid, [interior_product(Z, lam).coefficient(())], np.asarray, lowest=True),
        _max_abs(grid, Z), _max_abs(grid, lam), _max_abs(grid, dlam)]
    scale = z_max * dlam_max
    margin_scale = z_max * lam_max
    normalized = min_pair / margin_scale if margin_scale > 0 else 0.0
    passed = max_res <= tol * scale and normalized > TOL_MARGIN
    return CheckReport("reeb_like", passed, max_res, min_pair,
                       {"residual": tol, "margin": TOL_MARGIN},
                       [grid.point(r_res), grid.point(r_pair)], grid.spec,
                       {"mode": mode, "scale": scale, "normalized_margin": normalized,
                        "margin_scale": margin_scale})
