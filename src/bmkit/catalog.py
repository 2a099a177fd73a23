"""Catalog of concrete Beltrami one-forms and Maxwell field sets.

Every entry ships analytic partial derivatives, so the structure checks in
:mod:`bmkit.verify` resolve identities at round-off rather than at
finite-difference accuracy.  Conventions:

* Charts order spacetime coordinates x0 first; spatial axes are 1..3 on
  4-d charts and 0..2 on 3-d charts.
* A Beltrami 1-form stores the literal proportionality constant of
  star3 d v = k v as ``k_expected`` (so the T^3 mode carries -n and the ABC
  flow +1); constructors that need the opposite sign convention derive it.
* Field sets satisfy the vacuum constitutive relations by construction:
  D = eps0 *3 e and B = mu0 *3 h are computed with the same spatial Hodge
  machinery the verifier uses.
* Solid-torus components are stored against the coordinate coframe
  (dr, dphi, dx3); the conventional "r dphi" component therefore appears
  multiplied by r.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .bessel import j0_field, j1_field
from .charts import Chart, euclidean3, solid_torus, spacetime, torus3
from .errors import BmkitError, ConfigError, SingularFieldError
from .forms import DifferentialForm, dx, lift_form, make_form, restrict_form, wedge
from .metrics import (MetricField, euclidean_metric, lorentzian_product,
                      norm_sq_field, solid_torus_metric, spatial_hodge)
from .scalars import Plan, constant, monomial, sin_wave, wave


@dataclass(frozen=True)
class Constants:
    """Vacuum constants; nondimensional by default (eps0 = mu0 = c0 = 1)."""

    eps0: float = 1.0
    mu0: float = 1.0

    @property
    def c0(self) -> float:
        return 1.0 / math.sqrt(self.eps0 * self.mu0)


NONDIMENSIONAL = Constants()
SI = Constants(eps0=8.8541878128e-12, mu0=1.25663706212e-6)


# -- catalog registry ---------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "beltrami" | "maxwell"
    builder: Callable
    params: dict[str, tuple[str, object]]  # name -> (type, default)
    identity: str
    summary: str


CATALOG: dict[str, CatalogEntry] = {}


def _register(identity, summary, **declared):
    """Enter the decorated builder under its name, wrapped to convert each argument given.

    Its signature gives each parameter's type and default.  declared[name] gives a str
    parameter's choices (listed default first) and any other non-numeric one's (type,
    default).  A builder that takes constants is a Maxwell entry.
    """
    def register(builder):
        name, signature = builder.__name__, inspect.signature(builder)
        params, kind = {}, "beltrami"
        for p in signature.parameters.values():
            if p.name == "constants":
                kind = "maxwell"
            elif p.annotation == "str":
                choices = sorted(declared[p.name], key=lambda c: c != p.default)
                params[p.name] = ("choice:" + ",".join(choices), p.default)
            else:
                params[p.name] = declared.get(p.name, (p.annotation, p.default))
        # what _coerce_param converts by: "int", "float", "beltrami" or a choice's map
        types = {p: declared[p] if t.startswith("choice:") else t for p, (t, _) in params.items()}

        @functools.wraps(builder)
        def converted(*args, **kwargs):
            given = signature.bind(*args, **kwargs).arguments
            return builder(**{p: _coerce_param(name, p, types[p], raw) if p in types else raw
                              for p, raw in given.items()})

        CATALOG[name] = CatalogEntry(name, kind, converted, params, identity, summary)
        return converted
    return register


# -- Beltrami forms ----------------------------------------------------------


@dataclass(frozen=True)
class BeltramiForm:
    """A 1-form v with star3 d v = k_expected * v on a Riemannian 3-chart."""

    name: str
    params: dict
    form: DifferentialForm
    k_expected: float
    chart: Chart
    metric: MetricField
    scan_n: int  # points per axis of the singularity scan lattice

    @cached_property
    def _norm_sq_range(self) -> tuple[float, float]:
        """(min, max) of g^{-1}(v, v) over the scan lattice, from one plan run on first use."""
        axes = self.chart.lattice((self.scan_n,) * self.chart.dim)
        (norm_sq,) = Plan([norm_sq_field(self.metric, self.form)])(axes)
        return float(np.min(norm_sq)), float(np.max(norm_sq))

    @property
    def norm_margin(self) -> float:
        """min of g^{-1}(v, v) over the singularity scan lattice."""
        return self._norm_sq_range[0]

    @property
    def nonsingular(self) -> bool:
        """min |v|^2 above 1e-9 of its lattice max, so the amplitude of v never decides."""
        low, high = self._norm_sq_range
        return low > 1e-9 * high

    def require_nonsingular(self):
        if not self.nonsingular:
            raise SingularFieldError(
                f"{self.name}: form vanishes on the sample grid "
                f"(min norm^2 = {self.norm_margin:.3e})")


# the choice sets of the builders' str parameters, which the registry checks
_SIGNS = {"minus": -1.0, "plus": 1.0}
_CHARTS = {"t3": torus3, "r3": euclidean3}


@_register("*3 dv = -n v", "constant-norm torus eigenmode")
def t3_mode(n: int = 1, c: float = 1.0) -> BeltramiForm:
    """Constant-norm eigenmode on the flat 3-torus.

    v = c (cos(n x3) dx1 + sin(n x3) dx2), with star3 d v = -n v and
    g^{-1}(v, v) = c^2 everywhere.
    """
    if n < 1:
        raise BmkitError("t3_mode needs n >= 1")
    if not c > 0:
        raise BmkitError("t3_mode needs c > 0")
    chart = torus3()
    form = make_form(chart, 1, {
        (0,): wave({2: n}, 0.0, c),
        (1,): sin_wave({2: n}, 0.0, c),
    })
    return BeltramiForm("t3_mode", {"n": n, "c": c}, form, float(-n), chart,
                        euclidean_metric(chart), 32)


@_register("*3 dv = v", "Arnold-Beltrami-Childress flow")
def abc_flow(A: float = 1.0, B: float = 1.0, C: float = 1.0) -> BeltramiForm:
    """Arnold-Beltrami-Childress 1-form on the flat 3-torus; star3 d v = v.

    For some parameter triples (e.g. A = B = C) the form has zeros; the
    constructor then flags the field singular and Reeb extraction refuses it.
    """
    if A == 0 and B == 0 and C == 0:
        raise BmkitError("abc_flow needs (A, B, C) != (0, 0, 0)")
    chart = torus3()
    form = make_form(chart, 1, {
        (0,): sin_wave({2: 1}, 0.0, A) + wave({1: 1}, 0.0, C),
        (1,): sin_wave({0: 1}, 0.0, B) + wave({2: 1}, 0.0, A),
        (2,): sin_wave({1: 1}, 0.0, C) + wave({0: 1}, 0.0, B),
    })
    return BeltramiForm("abc_flow", {"A": A, "B": B, "C": C}, form, +1.0, chart,
                        euclidean_metric(chart), 32)


@_register("*3 dv = -/+ sqrt(beta^2 + k_c^2) v", "Bessel mode on the solid torus",
           sign=_SIGNS)
def solid_torus_mode(k_c: float = 2.0, beta: float = 1.0, sign: str = "minus",
                     a: float = 1.0) -> BeltramiForm:
    """Bessel cavity mode on the solid torus D^2 x S^1.

    star3 d v = -k v for sign="minus" and +k v for sign="plus", with
    k = sqrt(beta^2 + k_c^2).  Components are stored on the coordinate
    coframe, so the dphi coefficient carries an explicit factor r.
    """
    s = _SIGNS[sign]
    if not k_c > 0:
        raise BmkitError("solid_torus_mode needs k_c > 0")
    chart = solid_torus(a=a)
    metric = solid_torus_metric(chart)
    k = math.sqrt(beta * beta + k_c * k_c)
    form = make_form(chart, 1, {
        (0,): (beta / k_c) * j1_field(0, k_c) * sin_wave({2: beta}),
        (1,): (s * k / k_c) * j1_field(0, k_c) * wave({2: beta}) * monomial(0, 1),
        (2,): j0_field(0, k_c) * wave({2: beta}),
    })
    return BeltramiForm("solid_torus_mode", {"k_c": k_c, "beta": beta, "sign": sign, "a": a},
                        form, s * k, chart, metric, 24)


# -- Maxwell field sets -------------------------------------------------------


@dataclass(frozen=True)
class MaxwellSlice:
    """A Maxwell field set restricted to the hypersurface x0 = const."""

    x0: float
    metric: MetricField
    e: DifferentialForm
    h: DifferentialForm
    B: DifferentialForm
    D: DifferentialForm
    constants: Constants

    @property
    def chart(self) -> Chart:
        return self.metric.chart

    def energy_forms(self) -> tuple[DifferentialForm, DifferentialForm]:
        """Vacuum energy density 3-forms (eps0/2) e ^ *3 e and (mu0/2) h ^ *3 h on the slice."""
        ee = (0.5 * self.constants.eps0) * wedge(self.e, spatial_hodge(self.metric, self.e))
        eh = (0.5 * self.constants.mu0) * wedge(self.h, spatial_hodge(self.metric, self.h))
        return ee, eh


@dataclass(frozen=True)
class MaxwellFieldSet:
    """The tuple (e, h, B, D) on a spacetime chart, plus F0 and F1.

    e, h are spatial 1-forms and B, D spatial 2-forms (no dx0 components,
    x0-dependent coefficients).  F0 = -c0 B - e ^ dx0 and
    F1 = D - h ^ dx0 / c0 are full 4-d 2-forms.  The spatial chart chart3 is
    metric3's, and the spacetime chart chart4 = spacetime(chart3) is e's.
    """

    name: str
    params: dict
    metric3: MetricField
    metric4: MetricField
    e: DifferentialForm
    h: DifferentialForm
    B: DifferentialForm
    D: DifferentialForm
    F0: DifferentialForm
    F1: DifferentialForm
    constants: Constants
    base: BeltramiForm | None = None   # the Beltrami form of e and h, on chart3
    k: float | None = None
    f_e: Callable[[float], float] | None = field(default=None, repr=False)
    f_h: Callable[[float], float] | None = field(default=None, repr=False)
    _slices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def chart3(self) -> Chart:
        return self.metric3.chart

    @property
    def chart4(self) -> Chart:
        return self.e.chart

    @property
    def eps0(self) -> float:
        return self.constants.eps0

    @property
    def mu0(self) -> float:
        return self.constants.mu0

    @property
    def c0(self) -> float:
        return self.constants.c0

    def at_time(self, x0: float) -> MaxwellSlice:
        """e, h, B and D restricted to the slice x0 = const (`forms.restrict_form`), once per x0."""
        key = float(x0), math.copysign(1.0, x0)   # a zero with its sign
        if key not in self._slices:
            self._slices[key] = MaxwellSlice(float(x0), self.metric3, *(restrict_form(
                self.chart3, f, x0) for f in (self.e, self.h, self.B, self.D)), self.constants)
        return self._slices[key]

    def poynting(self) -> DifferentialForm:
        """The Poynting 2-form e ^ h."""
        return wedge(self.e, self.h)


def maxwell_from_eh(name: str, params: dict, metric3: MetricField,
                    e: DifferentialForm, h: DifferentialForm,
                    constants: Constants = NONDIMENSIONAL, **extra) -> MaxwellFieldSet:
    """Assemble a field set from e and h via the vacuum constitutive relations.

    The spatial chart is metric3's and the spacetime chart is e's.
    """
    c0 = constants.c0
    D = constants.eps0 * spatial_hodge(metric3, e)
    B = constants.mu0 * spatial_hodge(metric3, h)
    dx0 = dx(e.chart, 0)
    F0 = -(c0 * B) - wedge(e, dx0)
    F1 = D - (1.0 / c0) * wedge(h, dx0)
    return MaxwellFieldSet(name, dict(params), metric3, lorentzian_product(metric3, e.chart),
                           e, h, B, D, F0, F1, constants, **extra)


@_register("e = e0 cos(k x0) v, h = (e0/c0 mu0) sin(k x0) v",
           "time-dependent e || h Beltrami-Maxwell field", v=("beltrami", "t3_mode{n=1,c=1}"))
def beltrami_maxwell(v: BeltramiForm | None = None, e0: float = 1.0,
                     constants: Constants = NONDIMENSIONAL) -> MaxwellFieldSet:
    """Parallel (e || h) Beltrami-Maxwell field generated by one Beltrami form.

    With star3 d v = -k v (k derived from v.k_expected, either sign works):
    e = e0 cos(k x0) v and h = (e0 / c0 mu0) sin(k x0) v, with B and D from
    the constitutive relations.  All four decomposed Maxwell equations hold
    identically.
    """
    v = v if v is not None else t3_mode()
    if not e0 > 0:
        raise BmkitError("beltrami_maxwell needs e0 > 0")
    v.require_nonsingular()
    k = -v.k_expected
    if k == 0:
        raise BmkitError("beltrami_maxwell needs a rotational (k != 0) form")
    chart4 = spacetime(v.chart)
    v4 = lift_form(chart4, v.form)
    c0, mu0 = constants.c0, constants.mu0
    cos_k = wave({0: k})
    sin_k = sin_wave({0: k})
    e = (e0 * cos_k) * v4
    h = ((e0 / (c0 * mu0)) * sin_k) * v4
    return maxwell_from_eh(
        "beltrami_maxwell", {"v": v.name, **{f"v.{p}": q for p, q in v.params.items()},
                             "e0": e0},
        v.metric, e, h, constants,
        base=v, k=k,
        f_e=lambda x0: e0 * math.cos(k * x0),
        f_h=lambda x0: e0 / (c0 * mu0) * math.sin(k * x0))


# profile -> the builders of f and f', each called as (coeffs, phase, amplitude)
_PROFILES = {"sin": (sin_wave, wave),
             "cos": (wave, lambda c, phase=0.0, amplitude=1.0: sin_wave(c, phase, -amplitude))}


@_register("F0 = f dx1 ^ d(x3 - x0), F0 ^ F0 = 0",
           "traveling plane wave (Maxwell, not symplectic)", profile=_PROFILES, chart=_CHARTS)
def traveling_wave(profile: str = "sin", constants: Constants = NONDIMENSIONAL,
                   chart: str = "t3") -> MaxwellFieldSet:
    """Plane traveling wave along x3: e = f(x3 - x0) dx1, h = f(x3 - x0) dx2 / c0 mu0.

    F0 = f dx1 ^ d(x3 - x0) is Maxwell but nowhere symplectic (F0 ^ F0 = 0).
    """
    make_f, _ = _PROFILES[profile]
    chart3 = _CHARTS[chart]()
    chart4 = spacetime(chart3)
    metric3 = euclidean_metric(chart3)
    f = make_f({0: -1.0, 3: 1.0})
    e = make_form(chart4, 1, {(1,): f})
    h = make_form(chart4, 1, {(2,): (1.0 / (constants.c0 * constants.mu0)) * f})
    return maxwell_from_eh("traveling_wave", {"profile": profile, "chart": chart},
                           metric3, e, h, constants)


@_register("e = e0 dx1, h = h0 dx1 (d e = d h = 0)",
           "uniform static field; straight open field lines", chart=_CHARTS)
def constant_field(e0: float = 1.0, h0: float = 1.0,
                   constants: Constants = NONDIMENSIONAL,
                   chart: str = "r3") -> MaxwellFieldSet:
    """Time-independent uniform field along dx1 (straight, non-closed field lines)."""
    chart3 = _CHARTS[chart]()
    if not (e0 > 0 and h0 > 0):
        raise BmkitError("constant_field needs e0, h0 > 0")
    chart4 = spacetime(chart3)
    metric3 = euclidean_metric(chart3)
    e = make_form(chart4, 1, {(1,): constant(e0)})
    h = make_form(chart4, 1, {(1,): constant(h0)})
    return maxwell_from_eh("constant_field", {"e0": e0, "h0": h0, "chart": chart},
                           metric3, e, h, constants)


@_register("e ^ h = 0 with *3 de never proportional to e",
           "parallel fields that are not Beltrami-Maxwell", f3=_PROFILES)
def parallel_nonbeltrami(e0: float = 1.0, k: float = 1.0, f3: str = "sin",
                         constants: Constants = NONDIMENSIONAL) -> MaxwellFieldSet:
    """e || h Maxwell fields whose shared profile is not a Beltrami form.

    e = e0 f3(x3) w and h = (eps0 c0 / k) e0 f3'(x3) w with the rotating
    polarization w = cos(k x0) dx1 - sin(k x0) dx2 and f3'' = -k^2 f3.
    The Poynting form vanishes identically, yet star3 d(e) is nowhere
    proportional to e, so these are not Beltrami-Maxwell fields.
    """
    make_f, make_fp = _PROFILES[f3]
    if not e0 > 0:
        raise BmkitError("parallel_nonbeltrami needs e0 > 0")
    if k == 0:
        raise BmkitError("parallel_nonbeltrami needs k != 0")
    chart3 = torus3()
    chart4 = spacetime(chart3)
    metric3 = euclidean_metric(chart3)
    prof, dprof = make_f({3: k}), make_fp({3: k}, 0.0, k)
    f01 = wave({0: k})                        # cos(k x0)
    f02 = wave({0: k}, 0.5 * math.pi)         # -sin(k x0)
    amp_h = constants.eps0 * constants.c0 / k * e0
    e = make_form(chart4, 1, {(1,): e0 * prof * f01, (2,): e0 * prof * f02})
    h = make_form(chart4, 1, {(1,): amp_h * dprof * f01, (2,): amp_h * dprof * f02})
    return maxwell_from_eh("parallel_nonbeltrami", {"e0": e0, "k": k, "f3": f3},
                           metric3, e, h, constants)


@_register("*3 d(e) = e, *3 d(h) = h, e ^ h != 0",
           "Beltrami-Maxwell fields that are nowhere parallel", profile=_PROFILES)
def beltrami_nonparallel(profile: str = "sin",
                         constants: Constants = NONDIMENSIONAL) -> MaxwellFieldSet:
    """Circularly polarized wave: e and h each rotational Beltrami, never parallel.

    With xi = x3 + x0 and f'' = -f:
    e = f(xi) dx1 + f'(xi) dx2,  h = (f'(xi) dx1 - f(xi) dx2) / c0 mu0.
    Both spatial profiles satisfy star3 d(.) = (.), and the Poynting form
    e ^ h = -(f^2 + f'^2) dx1 ^ dx2 / c0 mu0 never vanishes.
    """
    make_f, make_fp = _PROFILES[profile]
    chart3 = torus3()
    chart4 = spacetime(chart3)
    metric3 = euclidean_metric(chart3)
    f, fp = make_f({0: 1.0, 3: 1.0}), make_fp({0: 1.0, 3: 1.0})
    amp = 1.0 / (constants.c0 * constants.mu0)
    e = make_form(chart4, 1, {(1,): f, (2,): fp})
    h = make_form(chart4, 1, {(1,): amp * fp, (2,): -amp * f})
    return maxwell_from_eh("beltrami_nonparallel", {"profile": profile},
                           metric3, e, h, constants)


# -- fields from specs -------------------------------------------------------


def build_catalog_field(name: str, params: dict | None = None,
                        constants: Constants = NONDIMENSIONAL):
    """Instantiate a catalog entry from a name and a parameter map, converted as in a call.

    A value may be a spec word; the ``v`` of beltrami_maxwell may be a catalog name, a
    (name, params) tuple or an already-built BeltramiForm.
    """
    if name not in CATALOG:
        raise ConfigError(f"unknown catalog entry {name!r}; known: {', '.join(sorted(CATALOG))}")
    entry = CATALOG[name]
    kwargs = dict(params or {})
    if "constants" in kwargs:   # set by the constants argument only
        raise ConfigError(f"{name}: unknown parameter 'constants'")
    if entry.kind == "maxwell":
        kwargs["constants"] = constants
    try:
        return entry.builder(**kwargs)
    except (TypeError, BmkitError) as exc:
        if isinstance(exc, ConfigError):
            raise
        msg = str(exc)
        raise ConfigError(msg if msg.startswith(f"{name} ") else f"{name}: {msg}") from exc


def _coerce_param(name, pname, ptype, raw):
    """raw, a value or a spec word, as parameter pname of entry name, converted by ptype."""
    if isinstance(ptype, dict):
        if isinstance(raw, str) and raw in ptype:
            return raw
        raise ConfigError(f"{name}.{pname}: expected one of {list(ptype)}, got {raw!r}")
    if ptype == "int":
        value = raw
        try:
            if isinstance(raw, str):  # an integer literal converts exactly
                value = int(raw) if raw.lstrip("+-").isdigit() else float(raw)
            if int(value) == value:  # 2.0 and 1e3 are integers; 1.7 is not
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        raise ConfigError(f"{name}.{pname}: expected an integer, got {raw!r}")
    if ptype == "float":
        try:
            value = float(raw)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"{name}.{pname}: expected a finite number, got {raw!r}")
        return value
    if raw is None or isinstance(raw, BeltramiForm):  # "beltrami": None is v's default
        return raw
    if isinstance(raw, str):  # a bare catalog name, as at top level
        raw = (raw, {})
    if isinstance(raw, tuple) and len(raw) == 2:
        sub = build_catalog_field(*raw)
        if not isinstance(sub, BeltramiForm):
            raise ConfigError(f"{name}.{pname}: {raw[0]} is not a Beltrami form")
        return sub
    raise ConfigError(f"{name}.{pname}: expected a Beltrami form spec")
