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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .bessel import j0_field, j1_field
from .charts import Chart, euclidean3, solid_torus, spacetime, torus3
from .errors import BmkitError, ConfigError, SingularFieldError
from .forms import DifferentialForm, _rk4_advance, dx, lift_form, make_form, restrict_form, wedge
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


_SCAN_ROWS = 16384  # about this many lattice points per plan run of the singularity scan
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
        """(min, max) of g^{-1}(v, v) over the singularity scan lattice, computed on first use.

        Folded, exactly, over blocks of whole slabs (points sharing their first
        coordinate), so no table of the whole lattice is held.
        """
        n, axes = self.scan_n, self.chart.axes
        first = Chart("", axes[:1]).lattice((n,))[:, 0]
        slab = Chart("", axes[1:]).lattice((n,) * (len(axes) - 1))
        k = max(1, _SCAN_ROWS // len(slab))
        plan = Plan([norm_sq_field(self.metric, self.form)])
        low, high = math.inf, -math.inf
        for xs in (first[i:i + k] for i in range(0, n, k)):
            block = np.empty((len(xs), len(slab), len(axes)))
            block[..., 0], block[..., 1:] = xs[:, None], slab
            (norm_sq,) = plan(block.reshape(-1, len(axes)))
            low, high = np.minimum(low, np.min(norm_sq)), np.maximum(high, np.max(norm_sq))
        return float(low), float(high)

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


def t3_mode(n: int = 1, c: float = 1.0) -> BeltramiForm:
    """Constant-norm eigenmode on the flat 3-torus.

    v = c (cos(n x3) dx1 + sin(n x3) dx2), with star3 d v = -n v and
    g^{-1}(v, v) = c^2 everywhere.
    """
    n = int(n)
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


def solid_torus_mode(k_c: float = 2.0, beta: float = 1.0, sign: str = "minus",
                     a: float = 1.0) -> BeltramiForm:
    """Bessel cavity mode on the solid torus D^2 x S^1.

    star3 d v = -k v for sign="minus" and +k v for sign="plus", with
    k = sqrt(beta^2 + k_c^2).  Components are stored on the coordinate
    coframe, so the dphi coefficient carries an explicit factor r.
    """
    if not k_c > 0:
        raise BmkitError("solid_torus_mode needs k_c > 0")
    if sign not in ("minus", "plus"):
        raise BmkitError("sign must be 'minus' or 'plus'")
    chart = solid_torus(a=a)
    metric = solid_torus_metric(chart)
    k = math.sqrt(beta * beta + k_c * k_c)
    s = -1.0 if sign == "minus" else 1.0
    form = make_form(chart, 1, {
        (0,): (beta / k_c) * j1_field(0, k_c) * sin_wave({2: beta}),
        (1,): (s * k / k_c) * j1_field(0, k_c) * wave({2: beta}) * monomial(0, 1),
        (2,): j0_field(0, k_c) * wave({2: beta}),
    })
    return BeltramiForm("solid_torus_mode",
                        {"k_c": k_c, "beta": beta, "sign": sign, "a": a},
                        form, s * k, chart, metric, 24)


# -- Maxwell field sets -------------------------------------------------------


def _energy_forms(metric3: MetricField, constants: Constants, e: DifferentialForm,
                  h: DifferentialForm) -> tuple[DifferentialForm, DifferentialForm]:
    """(eps0/2) e ^ *3 e and (mu0/2) h ^ *3 h, on a 3-chart or fibrewise on spacetime."""
    ee = (0.5 * constants.eps0) * wedge(e, spatial_hodge(metric3, e))
    eh = (0.5 * constants.mu0) * wedge(h, spatial_hodge(metric3, h))
    return ee, eh


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
        """Vacuum energy density 3-forms on the slice."""
        return _energy_forms(self.metric, self.constants, self.e, self.h)


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
        """e, h, B and D restricted to the slice x0 = const (`forms.restrict_form`)."""
        return MaxwellSlice(float(x0), self.metric3,
                            *(restrict_form(self.chart3, f, x0)
                              for f in (self.e, self.h, self.B, self.D)), self.constants)

    def energy_forms(self) -> tuple[DifferentialForm, DifferentialForm]:
        """Vacuum energy density 3-forms (eps0/2) e ^ *3 e and (mu0/2) h ^ *3 h."""
        return _energy_forms(self.metric3, self.constants, self.e, self.h)

    def energy_forms_kappa(self) -> tuple[DifferentialForm, DifferentialForm]:
        """Media-form energies (1/2) e ^ D and (1/2) h ^ B (equal to vacuum ones here)."""
        return 0.5 * wedge(self.e, self.D), 0.5 * wedge(self.h, self.B)

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


_PROFILES = {"sin": (sin_wave, wave), "cos": (wave, lambda c: sin_wave(c, 0.0, -1.0))}


def traveling_wave(profile: str = "sin", constants: Constants = NONDIMENSIONAL,
                   chart: str = "t3") -> MaxwellFieldSet:
    """Plane traveling wave along x3: e = f(x3 - x0) dx1, h = f(x3 - x0) dx2 / c0 mu0.

    F0 = f dx1 ^ d(x3 - x0) is Maxwell but nowhere symplectic (F0 ^ F0 = 0).
    """
    if profile not in _PROFILES:
        raise ConfigError("traveling_wave profile must be 'sin' or 'cos'")
    chart3 = torus3() if chart == "t3" else euclidean3()
    chart4 = spacetime(chart3)
    metric3 = euclidean_metric(chart3)
    make_f, _ = _PROFILES[profile]
    f = make_f({0: -1.0, 3: 1.0})
    e = make_form(chart4, 1, {(1,): f})
    h = make_form(chart4, 1, {(2,): (1.0 / (constants.c0 * constants.mu0)) * f})
    return maxwell_from_eh("traveling_wave", {"profile": profile, "chart": chart},
                           metric3, e, h, constants)


def constant_field(e0: float = 1.0, h0: float = 1.0,
                   constants: Constants = NONDIMENSIONAL,
                   chart: str = "r3") -> MaxwellFieldSet:
    """Time-independent uniform field along dx1 (straight, non-closed field lines)."""
    if not (e0 > 0 and h0 > 0):
        raise BmkitError("constant_field needs e0, h0 > 0")
    chart3 = euclidean3() if chart == "r3" else torus3()
    chart4 = spacetime(chart3)
    metric3 = euclidean_metric(chart3)
    e = make_form(chart4, 1, {(1,): constant(e0)})
    h = make_form(chart4, 1, {(1,): constant(h0)})
    return maxwell_from_eh("constant_field", {"e0": e0, "h0": h0, "chart": chart},
                           metric3, e, h, constants)


def parallel_nonbeltrami(e0: float = 1.0, k: float = 1.0, f3: str = "sin",
                         constants: Constants = NONDIMENSIONAL) -> MaxwellFieldSet:
    """e || h Maxwell fields whose shared profile is not a Beltrami form.

    e = e0 f3(x3) w and h = (eps0 c0 / k) e0 f3'(x3) w with the rotating
    polarization w = cos(k x0) dx1 - sin(k x0) dx2 and f3'' = -k^2 f3.
    The Poynting form vanishes identically, yet star3 d(e) is nowhere
    proportional to e, so these are not Beltrami-Maxwell fields.
    """
    if k == 0:
        raise BmkitError("parallel_nonbeltrami needs k != 0")
    if f3 not in _PROFILES:
        raise ConfigError("f3 must be 'sin' or 'cos'")
    chart3 = torus3()
    chart4 = spacetime(chart3)
    metric3 = euclidean_metric(chart3)
    if f3 == "sin":
        prof, dprof = sin_wave({3: k}), wave({3: k}, 0.0, k)
    else:
        prof, dprof = wave({3: k}), sin_wave({3: k}, 0.0, -k)
    f01 = wave({0: k})                        # cos(k x0)
    f02 = wave({0: k}, 0.5 * math.pi)         # -sin(k x0)
    amp_h = constants.eps0 * constants.c0 / k * e0
    e = make_form(chart4, 1, {(1,): e0 * prof * f01, (2,): e0 * prof * f02})
    h = make_form(chart4, 1, {(1,): amp_h * dprof * f01, (2,): amp_h * dprof * f02})
    return maxwell_from_eh("parallel_nonbeltrami", {"e0": e0, "k": k, "f3": f3},
                           metric3, e, h, constants)


def beltrami_nonparallel(profile: str = "sin",
                         constants: Constants = NONDIMENSIONAL) -> MaxwellFieldSet:
    """Circularly polarized wave: e and h each rotational Beltrami, never parallel.

    With xi = x3 + x0 and f'' = -f:
    e = f(xi) dx1 + f'(xi) dx2,  h = (f'(xi) dx1 - f(xi) dx2) / c0 mu0.
    Both spatial profiles satisfy star3 d(.) = (.), and the Poynting form
    e ^ h = -(f^2 + f'^2) dx1 ^ dx2 / c0 mu0 never vanishes.
    """
    if profile not in _PROFILES:
        raise ConfigError("beltrami_nonparallel profile must be 'sin' or 'cos'")
    chart3 = torus3()
    chart4 = spacetime(chart3)
    metric3 = euclidean_metric(chart3)
    coeffs = {0: 1.0, 3: 1.0}
    if profile == "sin":
        f, fp = sin_wave(coeffs), wave(coeffs)
    else:
        f, fp = wave(coeffs), sin_wave(coeffs, 0.0, -1.0)
    amp = 1.0 / (constants.c0 * constants.mu0)
    e = make_form(chart4, 1, {(1,): f, (2,): fp})
    h = make_form(chart4, 1, {(1,): amp * fp, (2,): -amp * f})
    return maxwell_from_eh("beltrami_nonparallel", {"profile": profile},
                           metric3, e, h, constants)


# -- amplitude dynamics -------------------------------------------------------


@dataclass(frozen=True)
class AmplitudePair:
    """Amplitudes (f_e, f_h) of an e || h Beltrami-Maxwell field at one instant."""

    f_e: float
    f_h: float
    x0: float

    def energy(self, eps0: float = 1.0, mu0: float = 1.0) -> float:
        """The conserved quadratic (eps0 f_e^2 + mu0 f_h^2) / 2."""
        return 0.5 * (eps0 * self.f_e ** 2 + mu0 * self.f_h ** 2)


def amplitude_closed_form(k: float, eps0: float, mu0: float,
                          f_e0: float, f_h0: float) -> Callable[[float], AmplitudePair]:
    """Trigonometric solution of d f_e/dx0 = (k/eps0) f_h, d f_h/dx0 = -(k/mu0) f_e."""
    omega = abs(k) / math.sqrt(eps0 * mu0)

    def sol(x0: float) -> AmplitudePair:
        cw, sw = math.cos(omega * x0), math.sin(omega * x0)
        fe = f_e0 * cw + (k / (eps0 * omega)) * f_h0 * sw
        fh = f_h0 * cw - (k / (mu0 * omega)) * f_e0 * sw
        return AmplitudePair(fe, fh, x0)

    return sol


def amplitude_ode(k: float, eps0: float, mu0: float, f_e0: float, f_h0: float,
                  x0_grid) -> list[AmplitudePair]:
    """RK4 solution of the amplitude system, sampled at the given x0 values.

    Compare against :func:`amplitude_closed_form`; the quadratic invariant
    (eps0 f_e^2 + mu0 f_h^2)/2 is conserved by the system.
    """
    if k == 0:
        raise BmkitError("amplitude_ode needs k != 0")
    grid = [float(x) for x in x0_grid]
    if not grid:
        raise BmkitError("amplitude_ode needs a non-empty x0 grid")

    def rhs(y):
        return np.array([(k / eps0) * y[1], -(k / mu0) * y[0]])

    omega = abs(k) / math.sqrt(eps0 * mu0)
    h_max = (2.0 * math.pi / omega) / 1024.0
    out = []
    y = np.array([f_e0, f_h0], dtype=float)
    x = grid[0]
    # integrate from the first grid point through the rest, in order
    if len(grid) > 1 and any(g2 < g1 for g1, g2 in zip(grid, grid[1:])):
        raise BmkitError("x0 grid must be non-decreasing")
    out.append(AmplitudePair(y[0], y[1], x))
    for target in grid[1:]:
        y = _rk4_advance(rhs, y, target - x, h_max)
        x = target
        out.append(AmplitudePair(float(y[0]), float(y[1]), x))
    return out


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


def _register(name, kind, builder, params, identity, summary):
    CATALOG[name] = CatalogEntry(name, kind, builder, params, identity, summary)


_register("t3_mode", "beltrami", t3_mode,
          {"n": ("int", 1), "c": ("float", 1.0)},
          "*3 dv = -n v", "constant-norm torus eigenmode")
_register("abc_flow", "beltrami", abc_flow,
          {"A": ("float", 1.0), "B": ("float", 1.0), "C": ("float", 1.0)},
          "*3 dv = v", "Arnold-Beltrami-Childress flow")
_register("solid_torus_mode", "beltrami", solid_torus_mode,
          {"k_c": ("float", 2.0), "beta": ("float", 1.0),
           "sign": ("choice:minus,plus", "minus"), "a": ("float", 1.0)},
          "*3 dv = -/+ sqrt(beta^2 + k_c^2) v", "Bessel mode on the solid torus")
_register("beltrami_maxwell", "maxwell", beltrami_maxwell,
          {"v": ("beltrami", "t3_mode{n=1,c=1}"), "e0": ("float", 1.0)},
          "e = e0 cos(k x0) v, h = (e0/c0 mu0) sin(k x0) v",
          "time-dependent e || h Beltrami-Maxwell field")
_register("traveling_wave", "maxwell", traveling_wave,
          {"profile": ("choice:sin,cos", "sin"), "chart": ("choice:t3,r3", "t3")},
          "F0 = f dx1 ^ d(x3 - x0), F0 ^ F0 = 0",
          "traveling plane wave (Maxwell, not symplectic)")
_register("constant_field", "maxwell", constant_field,
          {"e0": ("float", 1.0), "h0": ("float", 1.0),
           "chart": ("choice:r3,t3", "r3")},
          "e = e0 dx1, h = h0 dx1 (d e = d h = 0)",
          "uniform static field; straight open field lines")
_register("parallel_nonbeltrami", "maxwell", parallel_nonbeltrami,
          {"e0": ("float", 1.0), "k": ("float", 1.0),
           "f3": ("choice:sin,cos", "sin")},
          "e ^ h = 0 with *3 de never proportional to e",
          "parallel fields that are not Beltrami-Maxwell")
_register("beltrami_nonparallel", "maxwell", beltrami_nonparallel,
          {"profile": ("choice:sin,cos", "sin")},
          "*3 d(e) = e, *3 d(h) = h, e ^ h != 0",
          "Beltrami-Maxwell fields that are nowhere parallel")


def build_catalog_field(name: str, params: dict | None = None,
                        constants: Constants = NONDIMENSIONAL):
    """Instantiate a catalog entry from a name and a parameter map.

    Nested entries (the ``v`` of beltrami_maxwell) may be given as
    (name, params) tuples or already-built BeltramiForm objects.
    """
    if name not in CATALOG:
        raise ConfigError(f"unknown catalog entry {name!r}; "
                          f"known: {', '.join(sorted(CATALOG))}")
    entry = CATALOG[name]
    params = dict(params or {})
    kwargs = {}
    for pname, raw in params.items():
        if pname not in entry.params:
            raise ConfigError(f"{name}: unknown parameter {pname!r}")
        ptype, _ = entry.params[pname]
        kwargs[pname] = _coerce_param(name, pname, ptype, raw, constants)
    if entry.kind == "maxwell":
        kwargs.setdefault("constants", constants)
    try:
        return entry.builder(**kwargs)
    except (TypeError, BmkitError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{name}: {exc}") from exc


def _coerce_param(name, pname, ptype, raw, constants):
    if ptype == "int":
        try:
            value = int(raw)
            if isinstance(raw, str) or value == raw:  # 2.0 is 2; 1.7 is not
                return value
        except (TypeError, ValueError, OverflowError):
            pass
        raise ConfigError(f"{name}.{pname}: expected an integer, got {raw!r}")
    if ptype == "float":
        try:
            value = float(raw)
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"{name}.{pname}: expected a finite number, got {raw!r}")
        return value
    if ptype.startswith("choice:"):
        choices = ptype.split(":", 1)[1].split(",")
        if str(raw) not in choices:
            raise ConfigError(f"{name}.{pname}: expected one of {choices}, got {raw!r}")
        return str(raw)
    if ptype == "beltrami":
        if isinstance(raw, BeltramiForm):
            return raw
        if isinstance(raw, str):  # a bare catalog name, as at top level
            raw = (raw, {})
        if isinstance(raw, tuple) and len(raw) == 2:
            sub = build_catalog_field(raw[0], raw[1], constants)
            if not isinstance(sub, BeltramiForm):
                raise ConfigError(f"{name}.{pname}: {raw[0]} is not a Beltrami form")
            return sub
        raise ConfigError(f"{name}.{pname}: expected a Beltrami form spec")
    raise ConfigError(f"{name}.{pname}: unhandled parameter type {ptype}")
