"""Field-line integration, closed-orbit detection, and seed surveys.

Fixed-step classical RK4 keeps traces reproducible and makes the
forward-backward reversibility and step-halving order checks exact
statements about the integrator.  A seed outside the chart is rejected
(DomainError) before anything is integrated.  Trajectories are integrated in
unwrapped coordinates (a survey's from its seeds wrapped), so winding numbers on
periodic axes fall out of plain coordinate differences.  Every RK4 step
(``forms._rk4_step``) runs the field's generated flow (``VectorField.flow``),
straight-line code without the plan interpreter, which evaluates a field periodic
on its chart (every leaf on a periodic axis a cos of an integer harmonic) at the
unwrapped state, and any other at the wrapped one.

Closure detection scans a trace for returns to its seed in the minimal-image
chart distance, then sharpens each candidate with a few Newton steps on the
stationarity condition of that distance along re-integrated RK4 sub-steps.
A survey that finds no return only ever reports "none found within budget":
absence of a numerical witness decides nothing.  `bmk trace` and `bmk survey`
share one pipeline; only the survey reads the deduplicated orbit list.

Two closed orbits are one when the samples of each lie within 2 * tol of the
other's polyline.  Each direction of that test is decided exactly in three
steps: the first point against every segment, where a miss rejects the pair;
then each point against a few segments around where it should fall, counted
on from the first point's nearest segment; then every segment for the points
whose window had no hit.  Every (point, segment) distance is computed with
the same arithmetic as a full point x segment sweep.
"""

from __future__ import annotations

import csv
import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .charts import TWO_PI, Chart
from .errors import BmkitError, require_storable
from .forms import VectorField, _rk4_advance, _rk4_step

NONE_FOUND = "none found within budget"
MIN_STEPS = 100  # fewest RK4 steps of a survey budget, and fewest samples closure detection reads


@dataclass(frozen=True)
class OrbitTrace:
    """Samples of one integral curve, in unwrapped coordinates."""

    chart: Chart
    seed: np.ndarray
    step: float
    samples: np.ndarray  # (m, dim), samples[0] == seed (a survey's: the seed wrapped)
    s: np.ndarray        # (m,) curve parameter values
    status: str          # "completed" | "exited_domain"
    speed_max: float

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


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


def _traces(Y: VectorField, seeds: np.ndarray, step: float, samples: np.ndarray,
            lengths: np.ndarray, statuses: list[str]) -> list[OrbitTrace]:
    """The OrbitTrace of each seed of integrate_batch, each with the largest speed along it.

    A seed's speeds come from one flow run over its committed rows; the NaN rows after
    an exit never reach it.
    """
    speed_max = [np.max(np.linalg.norm(Y.flow(samples[:m, j, :]), axis=-1))
                 for j, m in enumerate(lengths)]
    return [OrbitTrace(Y.chart, seed, step, samples[:m, j, :], step * np.arange(m), status,
                       float(speed_max[j]))
            for j, (seed, m, status) in enumerate(zip(seeds, lengths, statuses))]


def integrate_batch(Y: VectorField, seeds: np.ndarray, step: float, n_steps: int):
    """RK4-integrate several seeds in lockstep, each inside the chart (else DomainError).

    Returns (samples (n_steps+1, N, dim) with NaN after exit, lengths (N,),
    statuses).  A trajectory stops when its next state would leave an
    interval axis; the offending step is not committed.
    """
    chart = Y.chart
    seeds = chart.as_points(seeds)
    if not (step > 0 and n_steps >= 0):
        raise BmkitError(f"step must be > 0 and n_steps >= 0, not {step!r} and {n_steps!r}")
    chart.require_inside(seeds)
    n = seeds.shape[0]
    samples = np.full((n_steps + 1, n, chart.dim), np.nan)
    samples[0] = seeds
    lengths = np.full(n, n_steps + 1, dtype=int)
    active, cols = np.arange(n), slice(None)   # cols: active, a basic index until a seed exits
    state, flow = seeds.copy(), Y.flow
    bounded = not all(ax.is_periodic for ax in chart.axes)  # else every point is inside
    for i in range(1, n_steps + 1):
        if active.size == 0:
            break
        state = _rk4_step(flow, state, step)
        if bounded:
            inside = chart.contains(state)
            if not np.all(inside):
                lengths[active[~inside]] = i
                cols = active = active[inside]
                state = state[inside]
        samples[i, cols] = state
    statuses = ["completed" if lengths[j] == n_steps + 1 else "exited_domain"
                for j in range(n)]
    return samples, lengths, statuses


def _step_count(s_max: float, step: float, seeds: np.ndarray) -> int:
    """ceil(s_max / step), if integrate_batch can store the samples of that many steps."""
    if not (step > 0 and s_max > 0):
        raise BmkitError(f"step and s_max must be > 0, not {step!r} and {s_max!r}")
    steps = s_max / step
    require_storable((steps + 1) * seeds.size, f"s_max / step = {steps:.6g} RK4 steps")
    return math.ceil(steps)


def _require_tol(tol: float) -> None:
    """A closure tolerance must be > 0 (not NaN), else no return could ever be within it."""
    if not tol > 0:
        raise BmkitError(f"tol must be > 0, not {tol!r}")


def integrate(Y: VectorField, seed, step: float, n_steps: int) -> OrbitTrace:
    """Trace one field line with fixed-step RK4."""
    seed = Y.chart.as_points(seed)
    if len(seed) != 1:
        raise BmkitError(f"integrate traces one seed, not {len(seed)}; see integrate_batch")
    return _traces(Y, seed, step, *integrate_batch(Y, seed, step, n_steps))[0]


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
    s, x = s_j, base
    for _ in range(8):
        y = Y.flow(x[None, :])[0]
        yy = float(y @ y)
        if yy == 0.0:
            break
        s_new = min(max(s - float(chart.delta(x, seed) @ y) / yy, s_lo), s_hi)
        if abs(s_new - s) < 1e-13 * max(1.0, abs(s)):
            break
        s, x = s_new, _rk4_advance(Y.flow, base[None, :], s_new - s_j, trace.step)[0]
    return s, float(chart.distance(x, seed)), x


def detect_closure(trace: OrbitTrace, tol: float, Y: VectorField) -> ClosureResult:
    """Scan a trace for a return to its seed within tol (chart distance).

    Candidates are the sampled local minima of the seed distance within
    max(tol, 1.5 * step * speed_max).  The first candidate with refined
    return distance < tol and parameter > 10 * step wins; its per-axis
    winding numbers certify closure on tori.  Each candidate is refined by
    at most 8 Newton steps of Y on the stationarity of the distance, each
    re-integrating one RK4 sub-step from the candidate sample.  tol must be > 0.
    """
    _require_tol(tol)
    if trace.n_samples < MIN_STEPS:
        raise BmkitError(f"detect_closure needs at least {MIN_STEPS} samples")
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
        s_star, dist_star, x_star = _refine_return(Y, trace, j)
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
    flow_wraps: bool = True  # the field's VectorField.flow_wraps
    step_ops: int = 0        # numpy operations of one RK4 step: 4 flow runs and 13 of its own

    @functools.cached_property
    def _dedup(self) -> tuple[list[int], dict]:
        tol = self.params["tol"]
        counts = Counter(pairs_compared=0, first_point_rejects=0, fallback_points=0)
        reps: list[int] = []
        rep_sets: list[np.ndarray] = []
        for j, (trace, result) in enumerate(zip(self.traces, self.results)):
            if not result.closed:
                continue
            pset = _orbit_point_set(trace, result)
            for rset in rep_sets:
                counts["pairs_compared"] += 1
                if (_covers(trace.chart, pset, rset, 2.0 * tol, counts)
                        and _covers(trace.chart, rset, pset, 2.0 * tol, counts)):
                    break
            else:
                reps.append(j)
                rep_sets.append(pset)
        return reps, dict(counts)

    @property
    def unique_orbits(self) -> list[int]:
        """Representative seed indices of the distinct closed orbits.

        Closed orbits whose sampled curves coincide within 2 * tol, each
        covering the other's polyline (see `_covers`), are merged into the
        first of them.  Computed on first read only.
        """
        return self._dedup[0]

    @property
    def dedup_counts(self) -> dict:
        """Work of computing `unique_orbits`: candidate pairs compared, pairs
        rejected by the first-point test, and points given the full scan."""
        return self._dedup[1]

    @property
    def integration_counts(self) -> dict:
        """RK4 steps of the lockstep integration: steps of the batch, and steps summed
        over seeds (a seed that left the domain also took the step that left it);
        whether the flow wrapped the state before each stage; and the numpy
        operations of one RK4 step over the generated flow."""
        steps = [t.n_samples - (t.status == "completed") for t in self.traces]
        return {"lockstep_steps": max(steps, default=0), "seed_steps": sum(steps),
                "wrap": self.flow_wraps, "step_ops": self.step_ops}

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


def _orbit_point_set(trace: OrbitTrace, result: ClosureResult) -> np.ndarray:
    """Unwrapped samples over one period of a closed orbit, at most 256 for curve comparisons."""
    pts = trace.samples[:min(trace.n_samples, int(result.period_estimate / trace.step) + 2)]
    if len(pts) > 256:
        pts = pts[np.linspace(0, len(pts) - 1, 256).astype(int)]
    return pts


# Segments on either side of a point's expected match.  Two point sets of one
# orbit sampled alike advance one segment per point, so a merge is confirmed
# within this window and the full scan is left for sets sampled otherwise.
_WINDOW = 3


def _segment_distances(chart: Chart, pts: np.ndarray, seg_a: np.ndarray,
                       seg_v: np.ndarray, vv: np.ndarray) -> np.ndarray:
    """Distances from pts to the segments seg_a + t seg_v, t in [0, 1], paired by broadcasting.

    vv is |seg_v|^2, with 1 in place of 0.  Each point is shifted to its
    nearest periodic image of the segment start before projecting, which is
    exact for segments much shorter than the periods (RK4 steps are).  A
    (point, segment) pair gets the same bits whatever else is broadcast with it.
    """
    delta = chart.delta(pts, seg_a)
    t = np.clip(np.einsum("...d,...d->...", delta, seg_v) / vv, 0.0, 1.0)
    return np.linalg.norm(delta - t[..., None] * seg_v, axis=-1)


def _covers(chart: Chart, pts: np.ndarray, line: np.ndarray, tol: float,
            counts: Counter | None = None) -> bool:
    """Every point of pts lies within tol of the polyline through line.

    That is sup over pts of the minimal-image distance to the polyline < tol,
    decided exactly in three steps:

    1. pts[0] against every segment; a minimum >= tol alone decides False.
    2. Point i against the segments (k0 + i + j) mod S for |j| <= _WINDOW,
       where k0 is the segment nearest pts[0] and S the number of segments.
    3. Each point with no segment within tol in its window, against every
       segment.

    counts, if given, tallies first_point_rejects and fallback_points.
    """
    counts = Counter() if counts is None else counts
    seg_a = line[:-1]
    seg_v = line[1:] - seg_a
    vv = np.einsum("sd,sd->s", seg_v, seg_v)
    vv = np.where(vv > 0, vv, 1.0)
    d0 = _segment_distances(chart, pts[0], seg_a, seg_v, vv)
    if d0.min() >= tol:
        counts["first_point_rejects"] += 1
        return False
    window = ((int(np.argmin(d0)) + np.arange(len(pts))[:, None]
               + np.arange(-_WINDOW, _WINDOW + 1)) % len(seg_a))
    near = _segment_distances(chart, pts[:, None, :], seg_a[window], seg_v[window],
                              vv[window]).min(axis=1) < tol
    missed = pts[~near]
    counts["fallback_points"] += len(missed)
    return bool(np.all(_segment_distances(chart, missed[:, None, :], seg_a, seg_v,
                                          vv).min(axis=1) < tol))


def closed_orbit_survey(Y: VectorField, seeds, step: float, s_max: float,
                        tol: float = 1e-5) -> SurveyResult:
    """Integrate every seed and detect closures; deduplicate orbits on demand.

    Seeds may be a SampleGrid or an (N, dim) array, each inside the chart (else
    DomainError); they are wrapped into the fundamental domain (reported as given),
    integrated in lockstep, and results ordered by seed index.  Coinciding orbits
    are merged only when `unique_orbits` is first read, so callers that want
    per-seed results alone (`bmk trace`) never pay for it.  Failures to find a
    return are reported as "none found within budget", never as nonexistence.
    """
    chart = Y.chart
    pts = chart.as_points(getattr(seeds, "points", seeds))
    n_steps = _step_count(s_max, step, pts)
    if n_steps < MIN_STEPS:
        raise BmkitError(f"s_max / step = {n_steps} RK4 steps; a survey needs {MIN_STEPS} or more")
    _require_tol(tol)
    chart.require_inside(pts)
    traces = _traces(Y, pts, step, *integrate_batch(Y, chart.wrap(pts), step, n_steps))
    results = [detect_closure(trace, tol, Y) if trace.n_samples >= MIN_STEPS else
               ClosureResult(False, math.nan, math.inf, tuple(0 for _ in range(chart.dim)),
                             note="trace too short: " + trace.status)
               for trace in traces]
    return SurveyResult(pts, results, traces,
                        {"step": step, "s_max": s_max, "tol": tol,
                         "n_seeds": int(len(pts))}, Y.flow_wraps, 4 * Y.flow.ops + 13)


# -- export ---------------------------------------------------------------------


def write_orbit_csv(trace: OrbitTrace, path: str) -> None:
    """Orbit CSV: s, wrapped coordinates, completed-wrap counters per periodic axis."""
    chart = trace.chart
    wrapped = chart.wrap(trace.samples)
    periodic = [i for i, ax in enumerate(chart.axes) if ax.is_periodic]
    displacement = trace.samples - trace.samples[0]
    wraps = {i: np.floor(displacement[:, i] / TWO_PI).astype(int) for i in periodic}
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
