"""Coordinate charts: axis descriptors, periodic wrapping, minimal images, lattices.

A chart is a box of coordinates, each axis either periodic (circle of given
period) or an interval (possibly unbounded).  Charts carry no metric; see
``bmkit.metrics`` for that.  Spacetime charts put the time coordinate x0
first, so spatial axes of a 4-d chart are 1..3.  Charts compare by value, and
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
    """One coordinate axis: ``periodic`` with a period or an ``interval``."""

    label: str
    kind: str  # "periodic" | "interval"
    period: float = 0.0
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if self.kind == "periodic":
            if not self.period > 0.0:
                raise BmkitError(f"axis {self.label!r}: period must be > 0")
        elif self.kind == "interval":
            if not self.lo < self.hi:
                raise BmkitError(f"axis {self.label!r}: need lo < hi")
        else:
            raise BmkitError(f"axis {self.label!r}: unknown kind {self.kind!r}")

    @property
    def is_periodic(self) -> bool:
        return self.kind == "periodic"

    def fd_scale(self) -> float:
        """Finite-difference step scale: period / 2pi on circles, 1 elsewhere."""
        return self.period / TWO_PI if self.is_periodic else 1.0

    def minimal_image(self, u):
        """Coordinate difference u reduced to [-period/2, period/2) on a circle."""
        if not self.is_periodic:
            return u
        return (u + 0.5 * self.period) % self.period - 0.5 * self.period

    @property
    def window(self) -> tuple[float, float]:
        """Default sampling window: the period, or the interval with [0, 2pi] ends."""
        if self.is_periodic:
            return 0.0, self.period
        return (self.lo if math.isfinite(self.lo) else 0.0,
                self.hi if math.isfinite(self.hi) else TWO_PI)


def periodic_axis(label: str, period: float = TWO_PI) -> AxisSpec:
    return AxisSpec(label, "periodic", period=float(period))


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
    def _wrap_args(self) -> tuple[np.ndarray, np.ndarray]:
        """(periods, periodic mask) per axis; an interval axis has period 1, masked out."""
        return (np.array([ax.period if ax.is_periodic else 1.0 for ax in self.axes]),
                np.array([ax.is_periodic for ax in self.axes]))

    def wrap(self, pts: np.ndarray) -> np.ndarray:
        """Map periodic coordinates into their fundamental domain [0, period)."""
        periods, periodic = self._wrap_args
        out = np.array(pts, dtype=float, copy=True)
        np.remainder(out, periods, out=out, where=periodic)
        return out

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: inside all interval-axis bounds (periodic always true)."""
        pts = np.asarray(pts, dtype=float)
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for i, ax in enumerate(self.axes):
            if not ax.is_periodic:
                ok &= (pts[..., i] >= ax.lo) & (pts[..., i] <= ax.hi)
        return ok

    def require_inside(self, pts: np.ndarray) -> None:
        ok = self.contains(pts)
        if not np.all(ok):
            bad = np.asarray(pts)[~ok]
            raise DomainError(f"point outside chart domain: {bad[0].tolist()}")

    def lattice(self, counts) -> list[np.ndarray]:
        """Regular lattice, one count per axis, as columns: axis a's along dimension a.

        Each axis spans its window; periodic axes omit the duplicate
        endpoint.
        """
        return [np.linspace(*ax.window, c, endpoint=not ax.is_periodic).reshape(
                    [c if b == a else 1 for b in range(self.dim)])
                for a, (ax, c) in enumerate(zip(self.axes, counts))]

    def delta(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Coordinate difference p - q under the minimal-image convention."""
        d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
        for i, ax in enumerate(self.axes):
            if ax.is_periodic:
                d[..., i] = ax.minimal_image(d[..., i])
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
                w[..., i] = np.rint(d[..., i] / ax.period).astype(int)
        return w


# -- standard charts ----------------------------------------------------


def torus3() -> Chart:
    """Flat 3-torus chart "T3" with periods 2pi."""
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
            periodic_axis("phi", TWO_PI),
            periodic_axis("x3", TWO_PI),
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
