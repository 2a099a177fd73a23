"""Bessel functions J0 and J1 in double precision on |z| <= 50.

Two regimes:

* |z| < 8: the ascending power series, 36 terms in w = z^2 summed by
  Horner's rule over coefficients computed once at import.  Worst-case
  cancellation at z = 8 amplifies round-off by about the largest term over
  J0(8), keeping the absolute error near 2e-14.
* 8 <= |z| <= 50: the integral representation
  J_n(z) = (1/pi) int_0^pi cos(n t - z sin t) dt evaluated with the
  composite trapezoid rule.  For these integrands the trapezoid sum is
  exact up to Bessel-function aliases of order >= 2N - n, which for
  N = 96 nodes and z <= 50 are far below double precision.

The Hankel asymptotic series was rejected for the outer regime: truncated
optimally at z = 8 its error bottoms out near 1e-7, short of the 1e-10
contract here.

``J0`` and ``J1`` are the kernels of :mod:`bmkit.scalars` leaves
amplitude * J_n(phase + sum_a coeffs[a] * x_a); :func:`j0_field` and
:func:`j1_field` build the leaves J_n(scale * x_axis).  Their partials are
built from leaves again (J0' = -J1, J1'(u) = J0(u) - J1(u)/u), so they lift,
slice and differentiate like any other leaf.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .scalars import Kernel, ScalarField, leaf, power_kernel

Z_MAX = 50.0
_SERIES_CUT = 8.0
_SERIES_TERMS = 36
_QUAD_NODES = 96
_QUAD_T = (np.arange(_QUAD_NODES + 1) * np.pi / _QUAD_NODES)
_QUAD_SIN = np.sin(_QUAD_T)
_QUAD_W = np.full(_QUAD_NODES + 1, 1.0 / _QUAD_NODES)
_QUAD_W[0] = _QUAD_W[-1] = 0.5 / _QUAD_NODES


# J0(z) = sum_m a_m w^m and J1(z) = z sum_m b_m w^m in w = z^2, with
# a_m = (-1/4)^m / m!^2 and b_m = a_m / (2 (m + 1)), each rounded once from
# its exact value (a quotient of Python ints is correctly rounded); stored
# highest power first for Horner's rule
_J0_COEFFS = tuple((-1) ** m / (4 ** m * math.factorial(m) ** 2)
                   for m in reversed(range(_SERIES_TERMS)))
_J1_COEFFS = tuple((-1) ** m / (2 * 4 ** m * math.factorial(m) * math.factorial(m + 1))
                   for m in reversed(range(_SERIES_TERMS)))


def _horner(coeffs, w):
    out = np.full_like(w, coeffs[0])
    for a in coeffs[1:]:
        out *= w
        out += a
    return out


def _series_j0(z):
    return _horner(_J0_COEFFS, z * z)


def _series_j1(z):
    return z * _horner(_J1_COEFFS, z * z)


def _quad_j(order, z):
    # a sum per row, unlike a matrix product, rounds each value alike in any call
    phase = order * _QUAD_T[None, :] - z[:, None] * _QUAD_SIN[None, :]
    return (np.cos(phase) * _QUAD_W).sum(axis=1)


def bessel_j(order: int, z) -> np.ndarray | float:
    """J0 or J1 at z (scalar or array), |z| <= 50, relative error < 1e-10."""
    if order not in (0, 1):
        raise DomainError("bessel_j supports orders 0 and 1")
    arr = np.asarray(z, dtype=float)
    scalar_input = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.abs(arr) <= Z_MAX):
        raise DomainError(f"bessel_j argument out of range |z| <= {Z_MAX}")
    sign = np.where((order == 1) & (arr < 0), -1.0, 1.0)
    az = np.abs(arr)
    out = np.empty_like(az)
    small = az < _SERIES_CUT
    if np.any(small):
        out[small] = (_series_j0 if order == 0 else _series_j1)(az[small])
    if np.any(~small):
        out[~small] = _quad_j(order, az[~small])
    out = sign * out
    return float(out[0]) if scalar_input else out


def _j1_derivative(coeffs, phase, amplitude, c):
    # c (J0(u) - J1(u)/u) with c/u = 1/(u/c), which is 1/x_axis for u = c x_axis; adding
    # (-a J1(u))/(u/c), bitwise the subtraction, keeps this leaf (a cycle) out of its partial
    u_over_c = leaf(power_kernel(1), {a: b / c for a, b in coeffs.items()}, phase / c)
    return leaf(J0, coeffs, phase, amplitude * c) + leaf(J1, coeffs, phase, -amplitude) / u_over_c


# bessel_j is looked up at evaluation time, so a wrapper installed on the
# module attribute sees every kernel evaluation
J0 = Kernel(lambda u: bessel_j(0, u),
            lambda coeffs, phase, amplitude, c: leaf(J1, coeffs, phase, -(amplitude * c)))
J1 = Kernel(lambda u: bessel_j(1, u), _j1_derivative)


def j0_field(axis: int, scale: float = 1.0) -> ScalarField:
    """J0(scale * x_axis), a leaf with analytic partials (d/dz J0 = -J1)."""
    return leaf(J0, {axis: scale})


def j1_field(axis: int, scale: float = 1.0) -> ScalarField:
    """J1(scale * x_axis), a leaf with analytic partials (d/dz J1 = J0 - J1/z).

    The partial divides by x_axis, so it is only usable on charts whose axis
    stays away from 0 (r >= r_min here).
    """
    return leaf(J1, {axis: scale})
