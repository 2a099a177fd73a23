"""Spans around calls into bmkit's public functions, and the per-layer metrics derived from them.

The tracer replaces public module-level functions (and a few public methods)
with wrappers that record a span per call: name, start, end, parent span and
command id. Spans stay in memory until the run ends. A name that the program
no longer defines or calls is simply absent from the spans. Private helpers
(leading underscore) are never wrapped.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import types
from array import array

import numpy as np

# Namespaces whose public functions get wrapped. A function imported into several
# of them gets one wrapper, installed everywhere it is looked up.
MODULES = ("bmkit.cli", "bmkit.verify", "bmkit.orbits", "bmkit.forms", "bmkit.bessel",
           "bmkit.reeb", "bmkit.metrics", "bmkit.catalog")
# (module, class, method) wrapped on the class itself
METHODS = (("bmkit.forms", "VectorField", "evaluate"),
           ("bmkit.forms", "DifferentialForm", "coefficient_table"),
           ("bmkit.verify", "SampleGrid", "regular"),
           ("bmkit.verify", "SampleGrid", "with_time"))

VERIFIERS = {"maxwell": "maxwell_residuals", "constitutive": "constitutive_residuals",
             "parallel": "parallel_check", "symplectic": "symplectic_margin",
             "contact": "contact_margin", "shs": "shs_check",
             "conservation": "conservation_along", "beltrami": "beltrami_residual"}
FORM_BUILDS = {"forms.exterior_derivative", "forms.wedge", "forms.interior_product",
               "forms.lie_derivative"}
METRIC_BUILDS = {"metrics.hodge_star", "metrics.spatial_hodge", "metrics.metric_sharp",
                 "metrics.norm_sq_field"}
GRIDS = {"verify.SampleGrid.regular", "verify.SampleGrid.with_time"}
INTEGRATORS = {"orbits.integrate", "orbits.integrate_batch"}
EVALUATE = "forms.VectorField.evaluate"
TABLE = "forms.DifferentialForm.coefficient_table"


def _n_points(pts) -> int:
    shape = getattr(pts, "shape", None)
    if shape is None:
        shape = np.shape(pts)
    return int(shape[0]) if len(shape) == 2 else 1


def _points_of_method(args, kwargs) -> int:
    return _n_points(args[1] if len(args) > 1 else kwargs["pts"])


def _batch_shape(fn):
    """Annotator for integrate_batch(Y, seeds, step, n_steps): seed-steps and sample bytes."""
    sig = inspect.signature(fn)

    def annotate(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        seeds = np.asarray(bound.arguments["seeds"])
        steps = int(bound.arguments["n_steps"])
        n, dim = seeds.shape if seeds.ndim == 2 else (1, seeds.shape[-1])
        return {"seed_steps": n * steps, "samples_bytes": (steps + 1) * n * dim * 8}
    return annotate


class Tracer:
    """Collects spans while installed; `uninstall` restores every original."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("i")
        self.cmd = array("i")
        self.points = array("q")   # points per evaluate / coefficient_table call
        self.extra: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.command = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, count_points: bool = False, annotate=None):
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.t0)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.cmd.append(self.command)
            self.points.append(_points_of_method(args, kwargs) if count_points else 0)
            self.t0.append(0)
            self.t1.append(0)
            if annotate is not None:
                try:
                    self.extra[idx] = annotate(args, kwargs)
                except (TypeError, KeyError, ValueError):
                    pass
            stack.append(idx)
            self.t0[idx] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.t1[idx] = time.perf_counter_ns()
                stack.pop()
        return traced

    def install(self, modules: dict) -> None:
        """Wrap public functions of the MODULES namespaces and the METHODS."""
        wrappers: dict[int, object] = {}
        for modname in MODULES:
            mod = modules.get(modname)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("bmkit")):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"
                    annotate = _batch_shape(obj) if name == "orbits.integrate_batch" else None
                    wrappers[id(obj)] = self._wrap(obj, name, annotate=annotate)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for modname, clsname, meth in METHODS:
            cls = getattr(modules.get(modname), clsname, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            name = f"{modname.rsplit('.', 1)[-1]}.{clsname}.{meth}"
            counted = meth in ("evaluate", "coefficient_table")
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name, count_points=counted)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 t0=np.asarray(self.t0), t1=np.asarray(self.t1),
                 parent=np.asarray(self.parent), cmd=np.asarray(self.cmd),
                 points=np.asarray(self.points))


class SpanTable:
    """Vectorized view of recorded spans with self times and ancestry queries."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.asarray(tracer.name_id, dtype=np.int64)
        self.t0 = np.asarray(tracer.t0, dtype=np.int64)
        self.t1 = np.asarray(tracer.t1, dtype=np.int64)
        self.parent = np.asarray(tracer.parent, dtype=np.int64)
        self.cmd = np.asarray(tracer.cmd, dtype=np.int64)
        self.points = np.asarray(tracer.points, dtype=np.int64)
        self.extra = tracer.extra
        self.dur = self.t1 - self.t0
        has_parent = self.parent >= 0
        child = np.zeros_like(self.dur)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child
        p = self.parent[has_parent]
        self.nest_violations = int(np.sum((self.t0[has_parent] < self.t0[p])
                                          | (self.t1[has_parent] > self.t1[p])))
        self.negative_self = int(np.sum(self.self_ns < 0))

    def mask(self, names) -> np.ndarray:
        wanted = set(names)
        ids = [i for i, n in enumerate(self.names) if n in wanted]
        return np.isin(self.name_id, ids)

    def has_ancestor(self, names) -> np.ndarray:
        """True for spans with an enclosing span whose name is in names."""
        target = self.mask(names)
        out = np.zeros(len(self.dur), dtype=bool)
        anc = self.parent.copy()
        live = anc >= 0
        while np.any(live):
            out[live] |= target[anc[live]]
            anc[live] = self.parent[anc[live]]
            live = anc >= 0
        return out

    def outermost(self, names) -> np.ndarray:
        return self.mask(names) & ~self.has_ancestor(names)


def _median_ms(values_ns) -> float:
    return statistics.median(values_ns.tolist()) / 1e6


def layer_metrics(spans: SpanTable, n_commands: int) -> dict[str, float]:
    """Per-layer metrics; a layer the workload never reached is left out.

    Totals are per command (the traced pass runs the same commands as the
    timed pass), medians are over calls.
    """
    out: dict[str, float] = {}
    per_cmd = 1.0 / max(1, n_commands)

    def span_sum_s(m):
        return float(spans.dur[m].sum()) / 1e9

    m = spans.mask({"cli.main"})
    if m.any():
        out["cli.self_ms"] = _median_ms(spans.self_ns[m])
    m = spans.outermost({"cli.build_field"})
    if m.any():
        out["catalog.build_ms"] = _median_ms(spans.dur[m])
    m = spans.outermost(GRIDS)
    if m.any():
        per = np.bincount(spans.cmd[m], weights=spans.dur[m], minlength=n_commands)
        out["verify.grid_ms"] = statistics.median(per[per > 0].tolist()) / 1e6
    for label, fn in VERIFIERS.items():
        m = spans.mask({f"verify.{fn}"})
        if m.any():
            out[f"verify.{label}_ms"] = _median_ms(spans.self_ns[m])
    m = spans.outermost({"reeb.reeb_for_maxwell"})
    if m.any():
        out["reeb.extract_ms"] = _median_ms(spans.dur[m])
    for key, names in (("forms.build_s", FORM_BUILDS), ("metrics.build_s", METRIC_BUILDS)):
        m = spans.outermost(names)
        if m.any():
            out[key] = span_sum_s(m) * per_cmd
    m = spans.outermost({TABLE})
    if m.any():
        out["forms.table_s"] = span_sum_s(m) * per_cmd
        out["forms.table_points"] = float(spans.points[m].sum()) * per_cmd
    m = spans.mask({"forms.fd_partial"})
    if m.any():
        out["forms.fd_partials"] = float(m.sum()) * per_cmd
    m = spans.outermost({EVALUATE})
    if m.any():
        out["scalars.eval_calls"] = float(m.sum()) * per_cmd
        out["scalars.eval_points"] = float(spans.points[m].sum()) * per_cmd
        out["scalars.eval_s"] = span_sum_s(m) * per_cmd
    m = spans.outermost({"bessel.bessel_j"})
    if m.any():
        out["bessel.calls"] = float(m.sum()) * per_cmd
        out["bessel.s"] = span_sum_s(m) * per_cmd
    m = spans.outermost(INTEGRATORS)
    if m.any():
        integrate_s = span_sum_s(m)
        out["orbits.integrate_s"] = integrate_s * per_cmd
        batches = [spans.extra[i] for i in np.flatnonzero(spans.mask({"orbits.integrate_batch"}))
                   if i in spans.extra]
        if batches and integrate_s > 0:
            out["orbits.seed_steps_per_s"] = sum(b["seed_steps"] for b in batches) / integrate_s
            out["orbits.samples_mb"] = max(b["samples_bytes"] for b in batches) / 1e6
    m = spans.outermost({"orbits.detect_closure"})
    if m.any():
        out["orbits.detect_s"] = span_sum_s(m) * per_cmd
        inside = spans.mask({EVALUATE}) & spans.has_ancestor({"orbits.detect_closure"})
        out["orbits.detect_evals"] = float(inside.sum()) * per_cmd
    m = spans.mask({"orbits.closed_orbit_survey"})
    if m.any():
        out["orbits.survey_self_s"] = float(spans.self_ns[m].sum()) / 1e9 * per_cmd
    return out
