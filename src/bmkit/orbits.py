"""Field-line integration, closed-orbit detection, and seed surveys.

Fixed-step classical RK4 keeps traces reproducible and makes the
forward-backward reversibility and step-halving order checks exact
statements about the integrator.  Trajectories are integrated in unwrapped
coordinates (fields are evaluated at wrapped points), so winding numbers on
periodic axes fall out of plain coordinate differences.

Closure detection scans a trace for returns to its seed in the minimal-image
chart distance, then sharpens each candidate with a few Newton steps on the
stationarity condition of that distance along re-integrated RK4 sub-steps.
A survey that finds no return only ever reports "none found within budget":
absence of a numerical witness decides nothing.  `bmk trace` and `bmk survey`
share one pipeline; only the survey reads the deduplicated orbit list.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .charts import Chart
from .errors import BmkitError
from .forms import VectorField, _flow_rhs, _rk4_step

NONE_FOUND = "none found within budget"


@dataclass(frozen=True)
class OrbitTrace:
    """Samples of one integral curve, in unwrapped coordinates."""

    chart: Chart
    seed: np.ndarray
    step: float
    samples: np.ndarray  # (m, dim), samples[0] == seed
    s: np.ndarray        # (m,) curve parameter values
    status: str          # "completed" | "exited_domain"
    speed_min: float
    speed_max: float

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def wrapped(self) -> np.ndarray:
        return self.chart.wrap(self.samples)

    def winding(self) -> np.ndarray:
        """Net winding numbers of the full trace, per axis."""
        return self.chart.winding(self.samples[-1], self.samples[0])


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of closed-orbit detection on one trace."""

    closed: bool
    period_estimate: float
    return_distance: float
    winding: tuple[int, ...]
    method: str = "recurrence"
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "closed": bool(self.closed),
            "period_estimate": float(self.period_estimate) if self.closed else None,
            "return_distance": float(self.return_distance),
            "winding": list(self.winding),
            "method": self.method,
            "note": self.note,
        }


def _trace_of(Y: VectorField, seed: np.ndarray, step: float, traj: np.ndarray,
              status: str) -> OrbitTrace:
    """Wrap committed samples as an OrbitTrace, recording the speed range along them."""
    speeds = np.linalg.norm(Y.evaluate(Y.chart.wrap(traj)), axis=-1)
    return OrbitTrace(Y.chart, seed, step, traj, step * np.arange(len(traj)),
                      status, float(np.min(speeds)), float(np.max(speeds)))


def integrate_batch(Y: VectorField, seeds: np.ndarray, step: float, n_steps: int):
    """RK4-integrate several seeds in lockstep.

    Returns (samples (n_steps+1, N, dim) with NaN after exit, lengths (N,),
    statuses).  A trajectory stops when its next state would leave an
    interval axis; the offending step is not committed.
    """
    chart = Y.chart
    seeds = chart.as_points(seeds)
    if step <= 0:
        raise BmkitError("step must be > 0")
    n = seeds.shape[0]
    samples = np.full((n_steps + 1, n, chart.dim), np.nan)
    samples[0] = seeds
    lengths = np.full(n, n_steps + 1, dtype=int)
    active = np.arange(n)
    state = seeds.copy()
    f = _flow_rhs(Y)
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


def integrate(Y: VectorField, seed, step: float, n_steps: int) -> OrbitTrace:
    """Trace one field line with fixed-step RK4."""
    chart = Y.chart
    seed = chart.as_points(seed)[0]
    samples, lengths, statuses = integrate_batch(Y, seed[None, :], step, n_steps)
    return _trace_of(Y, seed, step, samples[:int(lengths[0]), 0, :], statuses[0])


def _position_at(Y: VectorField, base: np.ndarray, ds: float, step: float) -> np.ndarray:
    """Advance a single unwrapped state by parameter ds with RK4 sub-steps <= step."""
    if ds == 0.0:
        return base.copy()
    n = max(1, int(math.ceil(abs(ds) / step)))
    h = ds / n
    f = _flow_rhs(Y)
    state = base[None, :].copy()
    for _ in range(n):
        state = _rk4_step(f, state, h)
    return state[0]


def _refine_return(Y: VectorField, trace: OrbitTrace, j: int):
    """Newton-solve (x(s) - seed) . Y(x(s)) = 0 for s in [s_{j-1}, s_{j+1}].

    That is the stationarity condition of the seed distance along the curve;
    its derivative is taken as |Y|^2, exact where the curve meets the seed.
    x(s) is re-integrated from sample j, so a step costs one field
    evaluation and one RK4 sub-step.
    """
    chart = trace.chart
    seed = trace.samples[0]
    base = trace.samples[j]
    s_lo, s_j, s_hi = trace.s[j - 1], trace.s[j], trace.s[j + 1]
    f = _flow_rhs(Y)
    s, x = s_j, base
    for _ in range(8):
        y = f(x[None, :])[0]
        yy = float(y @ y)
        if yy == 0.0:
            break
        s_new = min(max(s - float(chart.delta(x, seed) @ y) / yy, s_lo), s_hi)
        if abs(s_new - s) < 1e-13 * max(1.0, abs(s)):
            break
        s, x = s_new, _position_at(Y, base, s_new - s_j, trace.step)
    return s, float(chart.distance(x, seed)), x


def detect_closure(trace: OrbitTrace, tol: float = 1e-5,
                   Y: VectorField | None = None) -> ClosureResult:
    """Scan a trace for a return to its seed within tol (chart distance).

    Candidates are the sampled local minima of the seed distance within
    max(tol, 1.5 * step * speed_max).  The first candidate with refined
    return distance < tol and parameter > 10 * step wins; its per-axis
    winding numbers certify closure on tori.  With Y, each candidate is
    refined by at most 8 Newton steps on the stationarity of the distance,
    each re-integrating one RK4 sub-step from the candidate sample; omit Y
    to accept the sampled minimum without refinement.
    """
    if trace.n_samples < 100:
        raise BmkitError("detect_closure needs at least 100 samples")
    chart = trace.chart
    seed = trace.samples[0]
    if trace.speed_max <= 1e-14:
        return ClosureResult(False, math.nan, 0.0,
                             tuple(0 for _ in range(chart.dim)),
                             note="stationary point")
    d = chart.distance(trace.samples, seed)
    min_period = 10.0 * trace.step
    coarse = max(tol, 1.5 * trace.step * trace.speed_max)
    best_dist = math.inf
    mid = d[1:-1]
    candidates = 1 + np.flatnonzero((trace.s[1:-1] > min_period) & (mid <= coarse)
                                    & (mid <= d[:-2]) & (mid <= d[2:]))
    for j in candidates:
        if Y is not None:
            s_star, dist_star, x_star = _refine_return(Y, trace, j)
        else:
            s_star, dist_star, x_star = trace.s[j], float(d[j]), trace.samples[j]
        best_dist = min(best_dist, dist_star)
        if dist_star < tol and s_star > min_period:
            winding = tuple(int(w) for w in chart.winding(x_star, seed))
            return ClosureResult(True, float(s_star), float(dist_star), winding)
    eligible = d[trace.s > min_period]
    sampled_min = float(np.min(eligible)) if eligible.size else math.inf
    best = best_dist if best_dist < math.inf else sampled_min
    return ClosureResult(False, math.nan, best,
                         tuple(0 for _ in range(chart.dim)), note=NONE_FOUND)


# -- surveys -------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyResult:
    """Per-seed closure results plus deduplicated orbit statistics."""

    seeds: np.ndarray
    results: list[ClosureResult]
    traces: list[OrbitTrace] = field(repr=False, default_factory=list)
    params: dict = field(default_factory=dict)

    @functools.cached_property
    def unique_orbits(self) -> list[int]:
        """Representative seed indices of the distinct closed orbits.

        Closed orbits whose sampled curves coincide within 2 * tol are merged
        into the first of them.  Computed on first read only.
        """
        tol = self.params["tol"]
        reps: list[int] = []
        rep_sets: list[np.ndarray] = []
        for j, (trace, result) in enumerate(zip(self.traces, self.results)):
            if not result.closed:
                continue
            pset = _orbit_point_set(trace, result)
            for rset in rep_sets:
                if _same_orbit(trace.chart, pset, rset, 2.0 * tol):
                    break
            else:
                reps.append(j)
                rep_sets.append(pset)
        return reps

    @property
    def n_closed(self) -> int:
        return sum(1 for r in self.results if r.closed)

    @property
    def fraction_closed(self) -> float:
        return self.n_closed / len(self.results) if self.results else 0.0

    @property
    def periods(self) -> list[float]:
        return [r.period_estimate for r in self.results if r.closed]

    def to_json_dict(self) -> dict:
        witnesses = [
            {"seed": list(map(float, s)), "period": r.period_estimate,
             "winding": list(r.winding), "return_distance": r.return_distance}
            for s, r in zip(self.seeds, self.results) if r.closed]
        return {
            "params": self.params,
            "seeds": [list(map(float, s)) for s in self.seeds],
            "results": [r.to_json_dict() for r in self.results],
            "closed_count": self.n_closed,
            "fraction_closed": self.fraction_closed,
            "unique_orbits": list(self.unique_orbits),
            "periods": self.periods,
            "witnesses": witnesses,
        }


def _orbit_point_set(trace: OrbitTrace, result: ClosureResult, cap: int = 256) -> np.ndarray:
    """Unwrapped samples over one period, subsampled for curve comparisons."""
    if result.closed and math.isfinite(result.period_estimate):
        m = min(trace.n_samples, int(result.period_estimate / trace.step) + 2)
    else:
        m = trace.n_samples
    pts = trace.samples[:m]
    if len(pts) > cap:
        pts = pts[np.linspace(0, len(pts) - 1, cap).astype(int)]
    return pts


def _points_to_polyline(chart: Chart, pts: np.ndarray, line: np.ndarray) -> float:
    """sup over pts of the minimal-image distance to the sampled polyline.

    Each point is shifted to its nearest periodic image of the segment start
    before projecting, which is exact for segments much shorter than the
    periods (RK4 steps are).
    """
    seg_a = line[:-1]
    seg_v = line[1:] - seg_a
    delta = chart.delta(pts[:, None, :], seg_a[None, :, :])
    vv = np.einsum("sd,sd->s", seg_v, seg_v)
    vv = np.where(vv > 0, vv, 1.0)
    t = np.clip(np.einsum("psd,sd->ps", delta, seg_v) / vv, 0.0, 1.0)
    closest = delta - t[..., None] * seg_v[None, :, :]
    d = np.linalg.norm(closest, axis=-1)
    return float(d.min(axis=1).max())


def _same_orbit(chart: Chart, a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Curves coincide: symmetric point-to-polyline distance below tol."""
    return (_points_to_polyline(chart, a, b) < tol
            and _points_to_polyline(chart, b, a) < tol)


def closed_orbit_survey(Y: VectorField, seeds, step: float, s_max: float,
                        tol: float = 1e-5) -> SurveyResult:
    """Integrate every seed and detect closures; deduplicate orbits on demand.

    Seeds may be a SampleGrid or an (N, dim) array; all of them are
    integrated in lockstep and results are ordered by seed index.  Coinciding
    orbits are merged only when `unique_orbits` is first read, so callers
    that want per-seed results alone (`bmk trace`) never pay for it.
    Failures to find a return are reported as "none found within budget",
    never as nonexistence.
    """
    chart = Y.chart
    pts = chart.as_points(getattr(seeds, "points", seeds))
    n_steps = max(100, int(math.ceil(s_max / step)))
    samples, lengths, statuses = integrate_batch(Y, pts, step, n_steps)
    traces, results = [], []
    for j, seed in enumerate(pts):
        m = int(lengths[j])
        trace = _trace_of(Y, seed, step, samples[:m, j, :], statuses[j])
        traces.append(trace)
        results.append(detect_closure(trace, tol, Y) if m >= 100 else
                       ClosureResult(False, math.nan, math.inf,
                                     tuple(0 for _ in range(chart.dim)),
                                     note="trace too short: " + statuses[j]))
    return SurveyResult(pts, results, traces,
                        {"step": step, "s_max": s_max, "tol": tol,
                         "n_seeds": int(len(pts))})


# -- Poincare sections ----------------------------------------------------------


@dataclass(frozen=True)
class CrossingSequence:
    """Ordered crossings of one trajectory through a coordinate plane."""

    seed: np.ndarray
    s_values: np.ndarray
    points: np.ndarray  # wrapped crossing points, (m, dim)
    directions: np.ndarray  # +1 / -1
    transversality: np.ndarray  # |Y . normal| at each crossing
    warnings: list[str]


def poincare_section(Y: VectorField, axis: int, value: float, seeds,
                     s_max: float, step: float = 1e-2,
                     transversality_tol: float = 1e-8) -> list[CrossingSequence]:
    """Crossings of trajectories through the plane x_axis = value.

    Crossing parameters come from linear interpolation sharpened by one
    secant step; each crossing records its direction and |Y^axis| there.
    Tangential crossings (|Y^axis| < tol) are kept but flagged.
    """
    chart = Y.chart
    pts = chart.as_points(getattr(seeds, "points", seeds))
    samples, lengths, _ = integrate_batch(Y, pts, step, int(math.ceil(s_max / step)))
    ax = chart.axes[axis]
    span = ax.period if ax.is_periodic else math.inf
    out = []
    for k, seed in enumerate(pts):
        traj = samples[:int(lengths[k]), k, :]
        u = ax.minimal_image(traj[:, axis] - value)
        cross = np.where((u[:-1] * u[1:] < 0)
                         & (np.abs(u[1:] - u[:-1]) < 0.45 * span))[0]
        s_list, x_list, dir_list, trans_list, warns = [], [], [], [], []
        for i in cross:
            s1, f1 = step * i, u[i]
            f2 = u[i + 1]
            s_lin = s1 + step * f1 / (f1 - f2)
            x_lin = _position_at(Y, traj[i], s_lin - s1, step)
            f_lin = float(ax.minimal_image(x_lin[axis] - value))
            if f_lin != f1:
                s_ref = s_lin - f_lin * (s_lin - s1) / (f_lin - f1)
            else:
                s_ref = s_lin
            x_ref = _position_at(Y, traj[i], s_ref - s1, step)
            y_axis = float(Y.evaluate(chart.wrap(x_ref[None, :]))[0, axis])
            if abs(y_axis) < transversality_tol:
                warns.append(f"tangential crossing at s = {s_ref:.6g}")
            s_list.append(s_ref)
            x_list.append(chart.wrap(x_ref))
            dir_list.append(1.0 if f2 > f1 else -1.0)
            trans_list.append(abs(y_axis))
        out.append(CrossingSequence(
            seed, np.array(s_list),
            np.array(x_list) if x_list else np.zeros((0, chart.dim)),
            np.array(dir_list), np.array(trans_list), warns))
    return out


# -- export ---------------------------------------------------------------------


def write_orbit_csv(trace: OrbitTrace, path: str) -> None:
    """Orbit CSV: s, wrapped coordinates, completed-wrap counters per periodic axis."""
    chart = trace.chart
    wrapped = trace.wrapped()
    periodic = [i for i, ax in enumerate(chart.axes) if ax.is_periodic]
    displacement = trace.samples - trace.samples[0]
    wraps = {i: np.floor(displacement[:, i] / chart.axes[i].period).astype(int)
             for i in periodic}
    header = ["s"] + list(chart.labels) + [f"wind_{chart.labels[i]}" for i in periodic]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(trace.n_samples):
            row = ([f"{trace.s[i]:.12g}"]
                   + [f"{x:.12g}" for x in wrapped[i]]
                   + [str(int(wraps[j][i])) for j in periodic])
            writer.writerow(row)


def write_vector_field_csv(Y: VectorField, pts: np.ndarray, path: str) -> None:
    """Sampled component table: coordinates then components, one row per point."""
    chart = Y.chart
    pts = chart.as_points(pts)
    values = Y.evaluate(pts)
    header = list(chart.labels) + [f"Y_{lab}" for lab in chart.labels]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for p, v in zip(pts, values):
            writer.writerow([f"{x:.12g}" for x in p] + [f"{x:.12g}" for x in v])
