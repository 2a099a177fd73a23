"""Scalar coefficient fields: one expression tree with analytic partials.

Every differential-form coefficient, metric entry, and vector-field component
in this package is a :class:`ScalarField`, a vectorized map from points of
shape (N, dim) to values of shape (N,).  Each field is a tree node: its
``op`` is ``const``, ``leaf``, ``fn`` (a plain function, no partials), or
``add``/``neg``/``mul``/``div`` of the fields in ``args``.  A leaf is
amplitude * k(phase + sum_a coeffs[a] * x_a) for a kernel k: cos (wave),
u**p (monomial) or J0/J1 (:mod:`bmkit.bessel`).  The partial of a leaf is
another leaf or a constant, and composites follow the calculus rules, so
derived quantities (Hodge duals, Reeb normalizations) stay analytic whenever
their ingredients are; otherwise the form operations fall back to
chart-aware finite differences.  ``lift_spatial`` and ``restrict_time``
rewrite the leaves (re-indexed axes; x0 folded into the phase) and rebuild
composites through the operators, so a field sliced at x0 is the same few
leaves as one built on the slice.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Optional

import numpy as np

ValueFn = Callable[[np.ndarray], np.ndarray]


class Kernel(NamedTuple):
    """k(u), and derivative(coeffs, phase, amplitude, c) = d/dx_a of the leaf when c = du/dx_a."""

    value: ValueFn
    derivative: Callable[..., "ScalarField"]


class ScalarField:
    """A node of the expression tree; ``fn`` evaluates it from its children's values."""

    __slots__ = ("op", "args", "fn", "const", "has_partials", "_partial_cache")

    def __init__(self, op: str, args: tuple, fn: ValueFn, const: float | None = None):
        self.op = op
        self.args = args
        self.fn = fn
        self.const = const
        self.has_partials = op in ("const", "leaf") or (
            op != "fn" and all(a.has_partials for a in args))
        self._partial_cache: dict[int, ScalarField] = {}

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(pts, dtype=float))

    # -- analytic structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.const == 0.0

    def partial(self, axis: int) -> Optional["ScalarField"]:
        """Analytic d(self)/dx_axis as a ScalarField, or None if unknown."""
        if self.const is not None:
            return ZERO
        if not self.has_partials:
            return None
        if axis not in self._partial_cache:
            self._partial_cache[axis] = self._derive(axis)
        return self._partial_cache[axis]

    def _derive(self, axis: int) -> "ScalarField":
        if self.op == "leaf":
            kernel, coeffs, phase, amplitude = self.args
            c = coeffs.get(axis)
            return ZERO if c is None else kernel.derivative(coeffs, phase, amplitude, c)
        if self.op == "neg":
            return -self.args[0].partial(axis)
        a, b = self.args
        pa, pb = a.partial(axis), b.partial(axis)
        if self.op == "add":
            return pa + pb
        if self.op == "mul":
            return pa * b + a * pb
        return (pa * b - a * pb) / (b * b)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.const is not None and other.const is not None:
            return constant(self.const + other.const)
        return ScalarField("add", (self, other), lambda pts: self(pts) + other(pts))

    __radd__ = __add__

    def __neg__(self):
        if self.const is not None:
            return constant(-self.const)
        return ScalarField("neg", (self,), lambda pts: -self(pts))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        if self.const is not None and other.const is not None:
            return constant(self.const * other.const)
        if self.const == 1.0:
            return other
        if other.const == 1.0:
            return self
        return ScalarField("mul", (self, other), lambda pts: self(pts) * other(pts))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.const is not None:
            return self * (1.0 / other.const)
        if self.is_zero:
            return ZERO
        return ScalarField("div", (self, other), lambda pts: self(pts) / other(pts))


def _coerce(x):
    if isinstance(x, ScalarField):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return constant(float(x))
    return NotImplemented


def constant(c: float) -> ScalarField:
    c = float(c)
    return ScalarField("const", (), lambda pts: np.full(pts.shape[:-1], c), c)


ZERO = constant(0.0)


def from_function(fn: ValueFn) -> ScalarField:
    """Wrap a plain numeric function; derivatives fall back to finite differences."""
    return ScalarField("fn", (fn,), lambda pts: np.broadcast_to(
        np.asarray(fn(pts), dtype=float), pts.shape[:-1]))


def leaf(kernel: Kernel, coeffs: dict[int, float], phase: float = 0.0,
         amplitude: float = 1.0) -> ScalarField:
    """amplitude * kernel.value(phase + sum_a coeffs[a] * x_a); a constant if no axis is left."""
    coeffs = {int(a): float(c) for a, c in coeffs.items() if c != 0.0}
    phase, amplitude = float(phase), float(amplitude)
    if amplitude == 0.0:
        return ZERO
    if not coeffs:
        return constant(amplitude * kernel.value(np.float64(phase)))
    terms = tuple(coeffs.items())

    def value(pts):
        u = phase
        for a, c in terms:
            u = u + c * pts[..., a]
        return amplitude * kernel.value(u)

    return ScalarField("leaf", (kernel, coeffs, phase, amplitude), value)


COS = Kernel(np.cos, lambda coeffs, phase, amplitude, c:
             leaf(COS, coeffs, phase + 0.5 * math.pi, amplitude * c))


def power_kernel(p: int) -> Kernel:
    """u**p; the derivative of a leaf of u**1 is a constant."""

    def derivative(coeffs, phase, amplitude, c):
        if p == 1:
            return constant(amplitude * c)
        return leaf(power_kernel(p - 1), coeffs, phase, amplitude * p * c)

    return Kernel(lambda u: u ** p, derivative)


def wave(coeffs: dict[int, float], phase: float = 0.0, amplitude: float = 1.0) -> ScalarField:
    """amplitude * cos(sum_a coeffs[a] * x_a + phase).

    Closed under differentiation (each partial is another wave), so these
    fields carry exact partials to every order.  ``sin`` is the phase shift
    -pi/2: sin(u) = cos(u - pi/2).
    """
    return leaf(COS, coeffs, phase, amplitude)


def sin_wave(coeffs: dict[int, float], phase: float = 0.0, amplitude: float = 1.0) -> ScalarField:
    return wave(coeffs, phase - 0.5 * math.pi, amplitude)


def monomial(axis: int, power: int = 1, amplitude: float = 1.0) -> ScalarField:
    """amplitude * x_axis**power, with exact partials (power may be negative)."""
    power = int(power)
    if power == 0:
        return constant(amplitude)
    return leaf(power_kernel(power), {axis: 1.0}, 0.0, amplitude)


def coordinate(axis: int) -> ScalarField:
    return monomial(axis, 1, 1.0)


_REBUILD = {"add": operator.add, "neg": operator.neg, "mul": operator.mul, "div": operator.truediv}


def _rewrite(sf: ScalarField, on_leaf, pull: ValueFn) -> ScalarField:
    """Rebuild sf with on_leaf(*leaf.args) for each leaf; an fn node sees pull(pts).

    Each shared subtree is rebuilt once.
    """
    memo: dict[int, ScalarField] = {}

    def go(node):
        if id(node) not in memo:
            if node.op == "leaf":
                out = on_leaf(*node.args)
            elif node.op == "fn":
                out = from_function(lambda pts: node(pull(pts)))
            elif node.op == "const":
                out = node
            else:
                out = _REBUILD[node.op](*map(go, node.args))
            memo[id(node)] = out
        return memo[id(node)]

    return go(sf)


def lift_spatial(sf: ScalarField) -> ScalarField:
    """View a 3-d field as a field on the spacetime chart (x0 prepended).

    The lifted field is x0-independent; every leaf axis shifts up by one.
    """
    return _rewrite(sf, lambda kernel, coeffs, phase, amplitude: leaf(
        kernel, {a + 1: c for a, c in coeffs.items()}, phase, amplitude),
        lambda pts: pts[..., 1:])


def restrict_time(sf: ScalarField, x0: float) -> ScalarField:
    """Freeze the x0 coordinate of a spacetime field, yielding a 3-d field.

    Each leaf takes coeffs[0] * x0 into its phase; a leaf of x0 alone is a constant.
    """
    x0 = float(x0)

    def on_leaf(kernel, coeffs, phase, amplitude):
        if 0 in coeffs:
            phase = phase + coeffs[0] * x0
        return leaf(kernel, {a - 1: c for a, c in coeffs.items() if a != 0}, phase, amplitude)

    return _rewrite(sf, on_leaf, lambda pts: np.concatenate(
        [np.full(pts.shape[:-1] + (1,), x0), pts], axis=-1))
