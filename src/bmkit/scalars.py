"""Scalar coefficient fields: one expression tree with analytic partials.

Every differential-form coefficient, metric entry, and vector-field component
in this package is a :class:`ScalarField`, a vectorized map from points of
shape (N, dim) to values of shape (N,).  Each field is a node of a DAG: its
``op`` is ``const``, ``leaf``, ``fn`` (a plain function, no partials; a
finite-difference partial from :func:`bmkit.forms.fd_partial` is one), or
``add``/``neg``/``mul``/``div`` of the fields in ``args``.  A leaf is
amplitude * k(phase + sum_a coeffs[a] * x_a) for a kernel k: cos (wave),
u**p (monomial) or J0/J1 (:mod:`bmkit.bessel`).  The partial of a leaf is
another leaf or a constant, and composites follow the calculus rules, so
derived quantities (Hodge duals, Reeb normalizations) stay analytic whenever
their ingredients are; otherwise the form operations fall back to
chart-aware finite differences.  ``lift_spatial`` and ``restrict_time``
rewrite the leaves (re-indexed axes; x0 folded into the phase) and rebuild
composites through the operators, so a field sliced at x0 is the same few
leaves as one built on the slice.  Equal structure is one node: nodes are made
through one table of weak refs to the live ones, each holding its key: op and
the ids of the args (an fn node's arg is its function), or the numbers of a
constant or leaf (coefficients in order, a zero with its sign); a dead node's
callback drops its entry only if it is still its ref.  So equal partials, Hodge
duals and slices are one node; a composite, not a leaf, caches its partials.

Every evaluation runs a :class:`Plan`, a straight-line program that returns
the values of a list of root fields at a point set: per-axis coordinate
columns that broadcast to its shape, whose C-order flattening is the point
order (an (N, dim) array's :func:`columns` are the one-axis case).  A value
has the shape of the columns its node reads.  :func:`as_table` tables them for
:func:`value_table` (``field(pts)`` is its one-column case) and for
``VectorField.evaluate``, which keeps the plan of its components.  Each node
is one step, which applies one function to one or two slots and writes one.
A leaf's step scales a kernel step, which sums the phase and axis terms and
applies the kernel and is shared by the leaves of one (kernel, axis terms,
phase): a Bessel field's J0 and -c*J1 leaves run their kernel once.
Arithmetic is that of each field alone, on the same operands in any shape, so
every value is bitwise what its field gives by itself.  A run drops each value
after its last reader unless it is a root's, so a plan holds no values between
calls and is safe to share between threads.  :func:`plan_source` writes one run
of a plan as straight-line source, from which ``VectorField.flow`` is generated.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import weakref
from typing import Callable, NamedTuple, Optional

import numpy as np

ValueFn = Callable[[np.ndarray], np.ndarray]

_OPS = {"add": operator.add, "neg": operator.neg, "mul": operator.mul, "div": operator.truediv}
_NODES: dict = {}   # key -> a _Ref to its live node
nodes_made = 0      # the nodes _node has made in this process


class _Ref(weakref.ref):
    __slots__ = ("key",)   # the node's key in _NODES


def _drop(ref: _Ref) -> None:   # a dead node's callback
    if _NODES.get(ref.key) is ref:   # not replaced by a newer node of its key
        del _NODES[ref.key]


class Kernel(NamedTuple):
    """k(u), and derivative(coeffs, phase, amplitude, c) = d/dx_a of the leaf when c = du/dx_a."""

    value: ValueFn
    derivative: Callable[..., "ScalarField"]


class ScalarField:
    """A node of the expression tree; a call evaluates it with a one-column plan."""

    __slots__ = ("op", "args", "const", "has_partials", "_partial_cache", "__weakref__")

    def __init__(self, op: str, args: tuple, const: float | None = None):
        self.op = op
        self.args = args
        self.const = const
        self.has_partials = op in ("const", "leaf") or (   # a neg's args[-1] is its args[0]
            op in _OPS and args[0].has_partials and args[-1].has_partials)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return value_table([self], pts)[..., 0]

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
        if self.op == "leaf":   # uncached: a J1 leaf and its partial's -J1 leaf read each other
            return self._derive(axis)
        cache = getattr(self, "_partial_cache", None)
        if cache is None:   # made on the first partial: most nodes never take one
            cache = self._partial_cache = {}
        if axis not in cache:
            cache[axis] = self._derive(axis)
        return cache[axis]

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
        return _node("add", (self, other))

    __radd__ = __add__

    def __neg__(self):
        if self.const is not None:
            return constant(-self.const)
        return _node("neg", (self,))

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
        return _node("mul", (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.const is not None:
            return self * (1.0 / other.const)
        if self.is_zero:
            return ZERO
        return _node("div", (self, other))


def _coerce(x):
    if isinstance(x, ScalarField):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return constant(float(x))
    return NotImplemented


def _node(op: str, args: tuple, const: float | None = None, key: tuple = ()) -> ScalarField:
    """The live node of op over args, keyed by key or by the ids of args (alive while it is)."""
    global nodes_made
    key = (op, *(key or map(id, args)))
    ref = _NODES.get(key)
    node = ref and ref()   # None also for a dead node whose callback has not run yet
    if node is None:
        node = ScalarField(op, args, const)
        _NODES[key] = ref = _Ref(node, _drop)
        ref.key, nodes_made = key, nodes_made + 1
    return node


def constant(c: float) -> ScalarField:
    return _node("const", (), float(c), (float(c), math.copysign(1.0, c)))


ZERO = constant(0.0)


def from_function(fn: ValueFn) -> ScalarField:
    """Wrap a plain numeric function; derivatives fall back to finite differences."""
    return _node("fn", (fn,))


def value_table(fields, pts: np.ndarray) -> np.ndarray:
    """Values of several fields at pts, shape (N, len(fields)), in one evaluation call.

    A leaf kernel or a shared subtree used by several fields is evaluated
    once; each column is bitwise what calling its field alone gives.
    """
    pts = np.asarray(pts, dtype=float)
    return as_table(Plan(fields)(columns(pts)), pts)


def columns(pts: np.ndarray) -> list:
    """The point set of an (..., dim) array of points: its columns pts[..., a]."""
    return [pts[..., a] for a in range(pts.shape[-1])]


def points(cols) -> np.ndarray:
    """The (..., dim) array of a point set's points, of its columns broadcast together."""
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def as_table(columns, pts: np.ndarray) -> np.ndarray:
    """The (N, k) table of k columns at pts (N, dim), each an array or a constant's float."""
    out = np.empty(pts.shape[:-1] + (len(columns),))
    for j, column in enumerate(columns):
        out[..., j] = column
    return out


class Plan:
    """A straight-line program for the values of several root fields.

    ``plan(cols)`` is the list of their values at the point set cols, one per root
    in order: an array of the broadcast shape of the columns its node reads, or a
    constant's float; an ``fn`` step reads the points (:func:`points`), made for a
    run that has one.  The plan holds structure only: each of its ``steps`` reads
    one or two slots and writes one; every value lives in the slots of one run,
    each dropped after its last reader unless a root's.
    """

    __slots__ = ("_slots", "steps", "_roots", "_reads")

    def __init__(self, fields):
        slots: list = [None, None]   # the points and the columns; a constant's slot holds its float
        steps: list = []             # (out, fn, a, b): fn(vals[a]) or fn(vals[a], vals[b])
        done: dict = {}              # node id or kernel key -> slot
        roots = [_compile(f, slots, steps, done) for f in fields]
        kept = set(roots)
        last = {slot: i for i, (_, _, a, b) in enumerate(steps) for slot in (a, b)
                if slot is not None and slot not in kept}
        dead: list[list[int]] = [[] for _ in steps]
        for slot, i in last.items():
            dead[i].append(slot)
        self._slots, self._roots = slots, roots
        masks = {0: -1}   # the axes each slot's value reads, as bits; the points read all
        for out, fn, a, b in steps:
            kernel = getattr(fn, "func", None) is _run_kernel
            masks[out] = sum(1 << t[0] for t in fn.args[1]) if kernel else \
                masks.get(a, 0) | masks.get(b, 0)
        self._reads = collections.Counter(masks[out] for out, *_ in steps)
        self.steps = [(*st, tuple(d)) for st, d in zip(steps, dead)]

    def values(self, cols) -> int:
        """The values a run on the point set cols (columns of one rank) computes, summed over
        its steps: each has the largest extent of the columns it reads on each dimension."""
        shapes = [np.shape(c) for c in cols]
        return sum(n * math.prod(map(max, zip(*(s for a, s in enumerate(shapes) if m >> a & 1))))
                   for m, n in self._reads.items())

    def __call__(self, cols) -> list:
        vals = self._slots.copy()
        vals[0] = points(cols) if -1 in self._reads else None
        vals[1] = cols
        for out, fn, a, b, dead in self.steps:
            vals[out] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
            for i in dead:
                vals[i] = None
        return [vals[r] for r in self._roots]


def _step(slots: list, steps: list, fn, a: int, b: int | None = None) -> int:
    slots.append(None)
    steps.append((len(slots) - 1, fn, a, b))
    return len(slots) - 1


def _compile(node: ScalarField, slots: list, steps: list, done: dict) -> int:
    """Append the steps of node to a plan's program; returns the slot of its value.

    Not a closure over itself, so that a compile leaves no reference cycle.
    """
    if id(node) in done:
        return done[id(node)]
    op = node.op
    if op == "leaf":   # leaves differing only in amplitude share one kernel step
        kernel, coeffs, phase, amplitude = node.args
        # the phase's sign is in the key: -0.0 + c*x and 0.0 + c*x differ where c*x is -0.0
        key = kernel, tuple(coeffs.items()), phase, math.copysign(1.0, phase)
        if key not in done:
            done[key] = _step(slots, steps, _kernel_step(kernel, coeffs, phase), 1)
        out = _step(slots, steps, functools.partial(operator.mul, amplitude), done[key])
    elif op == "const":
        slots.append(node.const)
        out = len(slots) - 1
    elif op == "fn":
        out = _step(slots, steps, _fn_step(node.args[0]), 0)
    else:
        a = _compile(node.args[0], slots, steps, done)
        b = _compile(node.args[1], slots, steps, done) if len(node.args) == 2 else None
        out = _step(slots, steps, _OPS[op], a, b)
    done[id(node)] = out
    return out


def _kernel_step(kernel: Kernel, coeffs: dict[int, float], phase: float):
    """cols -> kernel.value(phase + sum_a coeffs[a] * cols[a]); `plan_source` reads its args."""
    return functools.partial(_run_kernel, kernel.value, tuple(coeffs.items()), phase)


def _run_kernel(value: ValueFn, terms: tuple, phase: float, cols) -> np.ndarray:
    u = phase   # summed in the order of the leaf's coefficients
    for a, c in terms:
        u = u + c * cols[a]
    return value(u)


_OP_SOURCE = {operator.add: "{} + {}", operator.neg: "-{}", operator.mul: "{} * {}",
              operator.truediv: "{} / {}"}


def plan_source(plan: Plan, bind: dict) -> tuple[list[str], list[str]]:
    """One run of plan as source on the points p: lines of one numpy operation each, root names.

    A kernel step is its c * p[..., a] terms (each (a, c) once per run), the sum of the
    phase and those terms, and the kernel; any other step is its operator or a call.
    Numbers and functions are globals added to bind, so the lines depend on the plan's
    structure alone, and each value is bitwise what the plan gives.  A number is bound
    as a 0-d float64 array: numpy takes an array operand of a call on a faster path than
    a Python float, which it must first promote as a weak scalar.
    """
    def name(obj) -> str:
        bind[f"g{len(bind)}"] = np.asarray(obj) if isinstance(obj, float) else obj
        return f"g{len(bind) - 1}"

    names = {slot: name(c) for slot, c in enumerate(plan._slots) if c is not None}
    names[0], terms, lines = "p", {}, []
    for out, fn, a, b, _ in plan.steps:   # a partial of an operator binds its first operands
        kind, bound, v = getattr(fn, "func", fn), getattr(fn, "args", ()), f"v{out}"
        if kind is _run_kernel:
            u = name(bound[2])
            for term in bound[1]:
                if term not in terms:
                    terms[term] = f"t{len(terms)}"
                    lines.append(f"{terms[term]} = {name(term[1])} * p[..., {term[0]}]")
                lines.append(f"u{out} = {u} + {terms[term]}")
                u = f"u{out}"
            lines.append(f"{v} = {name(bound[0])}({u})")
        elif kind in _OP_SOURCE:
            args = [*map(name, bound), *(names[s] for s in (a, b) if s is not None)]
            lines.append(f"{v} = " + _OP_SOURCE[kind].format(*args))
        else:
            lines.append(f"{v} = {name(fn)}({names[a]})")
        names[out] = v
    return lines, [names[r] for r in plan._roots]


def _fn_step(fn: ValueFn):
    return lambda pts: np.broadcast_to(np.asarray(fn(pts), dtype=float), pts.shape[:-1])


def leaf(kernel: Kernel, coeffs: dict[int, float], phase: float = 0.0,
         amplitude: float = 1.0) -> ScalarField:
    """amplitude * kernel.value(phase + sum_a coeffs[a] * x_a); a constant if no axis is left."""
    coeffs = {int(a): float(c) for a, c in coeffs.items() if c != 0.0}
    phase, amplitude = float(phase), float(amplitude)
    if amplitude == 0.0:
        return ZERO
    if not coeffs:
        return constant(amplitude * kernel.value(np.float64(phase)))
    return _node("leaf", (kernel, coeffs, phase, amplitude), key=(
        kernel, tuple(coeffs.items()), phase, math.copysign(1.0, phase), amplitude))


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


def periodic_in(fields, axes) -> bool:
    """True when each field is 2pi-periodic in every axis of axes.

    That is read off the leaves: every leaf that reads such an axis is a cos leaf
    whose coefficient there is an exact integer, and no fn node is reached.
    """
    stack, seen = list(fields), set()
    while stack:
        node = stack.pop()
        if node.op == "fn" or node.op == "leaf" and any(
                a in axes and not (node.args[0] is COS and c.is_integer())
                for a, c in node.args[1].items()):
            return False
        if node.op in _OPS and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.args)
    return True


def _rewrite(sf: ScalarField, on_leaf, pull: ValueFn, memo: dict) -> ScalarField:
    """Rebuild sf with on_leaf(*leaf.args) for each leaf; an fn node sees pull(pts).

    Each shared subtree is rebuilt once (memo: node id -> rebuilt node).  A rebuilt
    fn node calls its function on pull(pts) directly; the plan step of the new
    node broadcasts the value.
    """
    if id(sf) not in memo:
        if sf.op == "leaf":
            out = on_leaf(*sf.args)
        elif sf.op == "fn":
            fn = sf.args[0]
            out = from_function(lambda pts: fn(pull(pts)))
        elif sf.op == "const":
            out = sf
        else:
            out = _OPS[sf.op](*(_rewrite(a, on_leaf, pull, memo) for a in sf.args))
        memo[id(sf)] = out
    return memo[id(sf)]


def lift_spatial(sf: ScalarField) -> ScalarField:
    """View a 3-d field as a field on the spacetime chart (x0 prepended).

    The lifted field is x0-independent; every leaf axis shifts up by one.
    """
    return _rewrite(sf, lambda kernel, coeffs, phase, amplitude: leaf(
        kernel, {a + 1: c for a, c in coeffs.items()}, phase, amplitude),
        lambda pts: pts[..., 1:], {})


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
        [np.full(pts.shape[:-1] + (1,), x0), pts], axis=-1), {})
