"""Scalar coefficient fields: one expression tree with analytic partials.

Every differential-form coefficient, metric entry, and vector-field component
in this package is a :class:`ScalarField`, a vectorized map from points of
shape (N, dim) to values of shape (N,).  Each field is a node of a DAG: its
``op`` is ``const``, ``leaf``, ``fn`` (a plain function, no partials), ``fd``
(a finite-difference partial of the field in ``args[0]``, see
:func:`bmkit.forms.fd_partial`), or ``add``/``neg``/``mul``/``div`` of the
fields in ``args``.  A leaf is
amplitude * k(phase + sum_a coeffs[a] * x_a) for a kernel k: cos (wave),
u**p (monomial) or J0/J1 (:mod:`bmkit.bessel`).  The partial of a leaf is
another leaf or a constant, and composites follow the calculus rules, so
derived quantities (Hodge duals, Reeb normalizations) stay analytic whenever
their ingredients are; otherwise the form operations fall back to
chart-aware finite differences.  ``lift_spatial`` and ``restrict_time``
rewrite the leaves (re-indexed axes; x0 folded into the phase) and rebuild
composites through the operators, so a field sliced at x0 is the same few
leaves as one built on the slice.

One evaluation call (``field(pts)``, or :func:`value_table` for several
fields) starts with a pre-pass that walks the DAG once per node and counts
each node's parent edges.  Evaluation (``ScalarField._eval``) then computes
each node once: a composite or ``fn`` node with several parents keeps its
value until its last parent has read it.  Leaves share a memo of kernel
values keyed by (kernel, axis terms, phase), so leaves that differ only in
amplitude (the J0 and -c*J1 leaves spread over a Bessel field's coefficients
and partials) run their kernel once; the amplitude is applied after the
lookup, so values are bitwise those of each leaf alone.  The pre-pass also
groups the ``fd`` nodes by stencil plan and evaluates each group with one
table of all its inner fields per stencil grid, so every grid is evaluated
once per call.  Every value is dropped after its last use in the call, and
no value survives from one call to the next.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from typing import Callable, NamedTuple, Optional

import numpy as np

ValueFn = Callable[[np.ndarray], np.ndarray]

_COMPOSITE = ("add", "neg", "mul", "div")


class Kernel(NamedTuple):
    """k(u), and derivative(coeffs, phase, amplitude, c) = d/dx_a of the leaf when c = du/dx_a."""

    value: ValueFn
    derivative: Callable[..., "ScalarField"]


class ScalarField:
    """A node of the expression tree; a call evaluates it with one memo."""

    __slots__ = ("op", "args", "const", "has_partials", "_partial_cache")

    def __init__(self, op: str, args: tuple, const: float | None = None):
        self.op = op
        self.args = args
        self.const = const
        self.has_partials = op in ("const", "leaf") or (
            op in _COMPOSITE and all(a.has_partials for a in args))
        self._partial_cache: dict[int, ScalarField] = {}

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        op = self.op
        if op == "leaf":
            # a root leaf has nothing to share its kernel value with
            kernel, coeffs, phase, amplitude = self.args
            return amplitude * kernel.value(_argument(pts, coeffs, phase))
        if op == "const":
            return np.full(pts.shape[:-1], self.const)
        return self._eval(pts, _memo(_walk([self]), pts))

    def _eval(self, pts: np.ndarray, memo: dict):
        """Value at pts, sharing values through memo; a const gives its float."""
        op = self.op
        if op == "const":
            return self.const
        if op == "leaf":
            kernel, coeffs, phase, amplitude = self.args
            entry = memo[_leaf_key(self.args)]
            value = entry[1]
            if value is None:
                value = kernel.value(_argument(pts, coeffs, phase))
            entry[0] -= 1
            entry[1] = value if entry[0] else None   # dropped after its last visit
            return amplitude * value
        entry = memo.get(_fd_key(self.args) if op == "fd" else id(self))
        if entry is None:   # a node with one parent in the call
            return self._compute(pts, memo)
        value = entry[1]
        if value is None:   # an fd value is filled in by the pre-pass
            value = self._compute(pts, memo)
        entry[0] -= 1
        entry[1] = value if entry[0] else None
        return value

    def _compute(self, pts: np.ndarray, memo: dict):
        op = self.op
        if op == "fn":
            return np.broadcast_to(np.asarray(self.args[0](pts), dtype=float), pts.shape[:-1])
        if op == "neg":
            return -self.args[0]._eval(pts, memo)
        left, right = self.args
        a, b = left._eval(pts, memo), right._eval(pts, memo)
        if op == "add":
            return a + b
        if op == "mul":
            return a * b
        return a / b

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
        return ScalarField("add", (self, other))

    __radd__ = __add__

    def __neg__(self):
        if self.const is not None:
            return constant(-self.const)
        return ScalarField("neg", (self,))

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
        return ScalarField("mul", (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.const is not None:
            return self * (1.0 / other.const)
        if self.is_zero:
            return ZERO
        return ScalarField("div", (self, other))


def _coerce(x):
    if isinstance(x, ScalarField):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return constant(float(x))
    return NotImplemented


def constant(c: float) -> ScalarField:
    return ScalarField("const", (), float(c))


ZERO = constant(0.0)


def from_function(fn: ValueFn) -> ScalarField:
    """Wrap a plain numeric function; derivatives fall back to finite differences."""
    return ScalarField("fn", (fn,))


def value_table(fields, pts: np.ndarray) -> np.ndarray:
    """Values of several fields at pts, shape (N, len(fields)), in one evaluation call.

    A leaf kernel, a shared subtree or a stencil grid used by several fields
    is evaluated once; each column is bitwise what calling its field alone gives.
    """
    fields = list(fields)
    return _table(fields, _walk(fields), np.asarray(pts, dtype=float))


def _argument(pts: np.ndarray, coeffs: dict[int, float], phase: float):
    """phase + sum_a coeffs[a] * x_a, summed in the order of coeffs."""
    u = phase
    for a, c in coeffs.items():
        u = u + c * pts[..., a]
    return u


def _leaf_key(args: tuple) -> tuple:
    # the phase's sign is part of the key: -0.0 + c*x and 0.0 + c*x differ where c*x is -0.0
    kernel, coeffs, phase, _ = args
    return kernel, tuple(coeffs.items()), phase, math.copysign(1.0, phase)


def _fd_key(args: tuple) -> tuple:
    inner, plan = args
    return plan, id(inner)


def _walk(fields) -> tuple[dict, list]:
    """The point-independent half of an evaluation call's pre-pass: (visits, fd groups).

    The DAG is walked once per node, counting parent edges (a column is one);
    evaluation then computes each node once and visits it once per edge.
    visits maps a memo key to its visits: a leaf shares its entry with the
    leaves of its kernel key, an fd node with the fd nodes of its (plan,
    inner field), and a composite or fn node with several parents has its
    own.  The fd groups hold one (plan, inner fields, their walk, memo keys)
    per stencil plan.
    """
    edges = Counter(map(id, fields))
    nodes: dict[int, ScalarField] = {}
    stack = list(fields)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            if node.op in _COMPOSITE:
                edges.update(map(id, node.args))
                stack.extend(node.args)
    visits: Counter = Counter()
    groups: dict = {}
    for i, node in nodes.items():
        if node.op == "leaf":
            visits[_leaf_key(node.args)] += edges[i]
        elif node.op == "fd":
            inner, plan = node.args
            groups.setdefault(plan, {})[id(inner)] = inner
            visits[_fd_key(node.args)] += edges[i]
        elif node.op != "const" and edges[i] > 1:
            visits[i] = edges[i]
    return visits, [(plan, list(inner.values()), _walk(inner.values()),
                     [(plan, i) for i in inner]) for plan, inner in groups.items()]


def _memo(walk: tuple[dict, list], pts: np.ndarray) -> dict:
    """The memo of one evaluation at pts: key -> [visits left, value or None].

    Every fd group is evaluated here: its plan runs one table of all the
    group's inner fields per stencil grid.
    """
    visits, fd_groups = walk
    memo = {key: [n, None] for key, n in visits.items()}
    for plan, inner, inner_walk, keys in fd_groups:
        rows = plan(lambda grid: _table(inner, inner_walk, grid), pts, len(inner))
        for key, row in zip(keys, rows):
            memo[key][1] = row
    return memo


def _table(fields: list, walk: tuple[dict, list], pts: np.ndarray) -> np.ndarray:
    memo = _memo(walk, pts)
    table = np.empty(pts.shape[:-1] + (len(fields),))
    for col, f in enumerate(fields):
        table[..., col] = f._eval(pts, memo)
    return table


def leaf(kernel: Kernel, coeffs: dict[int, float], phase: float = 0.0,
         amplitude: float = 1.0) -> ScalarField:
    """amplitude * kernel.value(phase + sum_a coeffs[a] * x_a); a constant if no axis is left."""
    coeffs = {int(a): float(c) for a, c in coeffs.items() if c != 0.0}
    phase, amplitude = float(phase), float(amplitude)
    if amplitude == 0.0:
        return ZERO
    if not coeffs:
        return constant(amplitude * kernel.value(np.float64(phase)))
    return ScalarField("leaf", (kernel, coeffs, phase, amplitude))


COS = Kernel(np.cos, lambda coeffs, phase, amplitude, c:
             leaf(COS, coeffs, phase + 0.5 * math.pi, amplitude * c))


@functools.cache
def power_kernel(p: int) -> Kernel:
    """u**p, one kernel per p so that equal leaves share a memo key.

    The derivative of a leaf of u**1 is a constant.
    """

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
    """Rebuild sf with on_leaf(*leaf.args) for each leaf; an fn or fd node sees pull(pts).

    Each shared subtree is rebuilt once.
    """
    memo: dict[int, ScalarField] = {}

    def go(node):
        if id(node) not in memo:
            if node.op == "leaf":
                out = on_leaf(*node.args)
            elif node.op in ("fn", "fd"):
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
