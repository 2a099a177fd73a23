"""Coordinate charts: axis descriptors, periodic wrapping, minimal images, lattices.

A chart is a box of coordinates, each axis either periodic (a circle of length
2pi, ``TWO_PI``) or an interval (possibly unbounded).  An axis is data only: the
chart holds every circle rule (wrap, minimal image, winding, window).  Charts
carry no metric (see ``bmkit.metrics``).  Spacetime charts put the time coordinate
x0 first, so spatial axes of a 4-d chart are 1..3.  Charts compare by value, and
chart4 is the spacetime of chart3 exactly when chart4 == spacetime(chart3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BmkitError, ChartMismatchError, DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AxisSpec:
    """One coordinate axis: ``periodic`` (a circle of length 2pi) or an ``interval``."""

    label: str
    kind: str  # "periodic" | "interval"
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if self.kind == "interval":
            if not self.lo < self.hi:
                raise BmkitError(f"axis {self.label!r}: need lo < hi")
        elif self.kind != "periodic":
            raise BmkitError(f"axis {self.label!r}: unknown kind {self.kind!r}")

    @property
    def is_periodic(self) -> bool:
        return self.kind == "periodic"


def periodic_axis(label: str) -> AxisSpec:
    return AxisSpec(label, "periodic")


def interval_axis(label: str, lo: float = -math.inf, hi: float = math.inf) -> AxisSpec:
    return AxisSpec(label, "interval", lo=float(lo), hi=float(hi))


@dataclass(frozen=True)
class Chart:
    """A named product of coordinate axes (dimension 3 or 4 in practice)."""

    name: str
    axes: tuple[AxisSpec, ...]
    time_axis: int | None = field(default=None)

    def __post_init__(self):
        if len(self.axes) == 0:
            raise BmkitError("chart needs at least one axis")
        if self.time_axis is not None and not (0 <= self.time_axis < len(self.axes)):
            raise BmkitError("time_axis out of range")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(ax.label for ax in self.axes)

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        """Axis indices excluding the time axis (all axes if none)."""
        return tuple(i for i in range(self.dim) if i != self.time_axis)

    # -- point handling ------------------------------------------------

    def as_points(self, x) -> np.ndarray:
        """Coerce a point or batch of points to a (N, dim) float array."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[-1] != self.dim:
            raise BmkitError(
                f"point dimension {pts.shape[-1]} != chart dim {self.dim}"
            )
        return pts

    @functools.cached_property
    def _wrap_args(self) -> np.ndarray:
        """The periodic mask per axis."""
        return np.array([ax.is_periodic for ax in self.axes])

    def wrap(self, pts: np.ndarray) -> np.ndarray:
        """Map periodic coordinates into their fundamental domain [0, 2pi)."""
        out = np.array(pts, dtype=float, copy=True)
        np.remainder(out, TWO_PI, out=out, where=self._wrap_args)
        return out

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: finite, and inside all interval-axis bounds (periodic always true)."""
        pts = np.asarray(pts, dtype=float)
        ok = np.isfinite(pts).all(axis=-1)
        for i, ax in enumerate(self.axes):
            if not ax.is_periodic:
                ok &= (pts[..., i] >= ax.lo) & (pts[..., i] <= ax.hi)
        return ok

    def require_inside(self, pts: np.ndarray) -> None:
        ok = self.contains(pts)
        if not np.all(ok):
            bad = np.asarray(pts)[~ok]
            raise DomainError(f"point outside chart domain: {bad[0].tolist()}")

    def window(self, axis: int) -> tuple[float, float]:
        """An axis's default sampling window: (0, 2pi), or its interval with [0, 2pi] ends."""
        ax = self.axes[axis]
        if ax.is_periodic:
            return 0.0, TWO_PI
        return (ax.lo if math.isfinite(ax.lo) else 0.0, ax.hi if math.isfinite(ax.hi) else TWO_PI)

    def lattice(self, counts) -> list[np.ndarray]:
        """Regular lattice, one count per axis, as columns: axis a's along dimension a.

        Each axis spans its window; periodic axes omit the duplicate
        endpoint.
        """
        return [np.linspace(*self.window(a), c, endpoint=not ax.is_periodic).reshape(
                    [c if b == a else 1 for b in range(self.dim)])
                for a, (ax, c) in enumerate(zip(self.axes, counts))]

    def delta(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Coordinate difference p - q, each circle's reduced to [-pi, pi) (minimal image)."""
        d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
        for i, ax in enumerate(self.axes):
            if ax.is_periodic:
                d[..., i] = (d[..., i] + math.pi) % TWO_PI - math.pi
        return d

    def distance(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Euclidean coordinate distance with periodic minimal images."""
        return np.linalg.norm(self.delta(p, q), axis=-1)

    def winding(self, unwrapped_end: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Integer winding numbers of a displacement, per periodic axis (0 elsewhere)."""
        d = np.asarray(unwrapped_end, dtype=float) - np.asarray(start, dtype=float)
        w = np.zeros(d.shape, dtype=int)
        for i, ax in enumerate(self.axes):
            if ax.is_periodic:
                w[..., i] = np.rint(d[..., i] / TWO_PI).astype(int)
        return w


# -- standard charts ----------------------------------------------------


def torus3() -> Chart:
    """Flat 3-torus chart "T3", three circles."""
    return Chart("T3", tuple(periodic_axis(f"x{i}") for i in (1, 2, 3)))


def euclidean3() -> Chart:
    """Unbounded Cartesian chart "R3" for R^3."""
    return Chart("R3", tuple(interval_axis(f"x{i}") for i in (1, 2, 3)))


def solid_torus(a: float = 1.0, r_min: float | None = None) -> Chart:
    """Solid torus "D2xS1", D^2 x S^1 in (r, phi, x3) coordinates.

    The radial axis is the interval [r_min, a]; the floor r_min (default
    1e-3 * a) keeps evaluations away from the coordinate singularity at r=0.
    """
    if a <= 0:
        raise BmkitError("solid torus radius a must be > 0")
    if r_min is None:
        r_min = 1e-3 * a
    if not 0 < r_min < a:
        raise BmkitError("need 0 < r_min < a")
    return Chart(
        "D2xS1",
        (
            interval_axis("r", r_min, a),
            periodic_axis("phi"),
            periodic_axis("x3"),
        ),
    )


def spacetime(spatial: Chart) -> Chart:
    """Extend a 3-d chart by an unbounded x0 axis placed first, named "IxR_" + its name."""
    if spatial.time_axis is not None:
        raise BmkitError("chart already has a time axis")
    axes = (interval_axis("x0"),) + spatial.axes
    return Chart(f"IxR_{spatial.name}", axes, time_axis=0)


def require_spacetime(chart4: Chart, chart3: Chart) -> None:
    """Raise ChartMismatchError unless chart4 == spacetime(chart3)."""
    if chart4 != spacetime(chart3):
        raise ChartMismatchError(f"{chart4.name} is not the spacetime chart of {chart3.name}")
