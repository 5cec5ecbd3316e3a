"""Finite-difference derivatives for time series and gridded fields.

time_derivative is the one definition of the targets the estimators regress
on their model matrices; central_diff and full_diff are TimeSeries views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatch, TooFewPoints


@dataclass(frozen=True)
class TimeSeries:
    """Chronologically ordered states: times (n,), states (n, d)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if times.ndim != 1 or states.ndim != 2:
            raise ShapeMismatch("times must be 1-D and states 2-D")
        if times.shape[0] != states.shape[0]:
            raise ShapeMismatch(
                f"{times.shape[0]} times for {states.shape[0]} state rows"
            )
        if times.shape[0] >= 2 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
            raise ValueError("series contains non-finite entries")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class GridField:
    """Scalar field sampled on a uniform grid: values[i, j] = f(x_i, y_j)."""

    values: np.ndarray
    dx: float
    dy: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ShapeMismatch("grid field values must be 2-D")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid spacings must be positive")
        object.__setattr__(self, "values", values)


def time_derivative(times, states, mode: str) -> np.ndarray:
    """dx/dt of series states (..., T, n) on one time axis, times (T,).

    "interior": (x_{i+1} - x_{i-1}) / (t_{i+1} - t_{i-1}) at samples 1..T-2,
    non-uniform spans included. "full": np.gradient at every sample, central
    inside and first-order one-sided at both ends. An unknown mode raises
    ValueError, then T < 3 raises TooFewPoints.
    """
    if mode not in ("interior", "full"):
        raise ValueError(f"unknown derivative mode {mode!r}")
    if len(times) < 3:
        raise TooFewPoints(f"{mode} difference needs n >= 3, got {len(times)}")
    if mode == "full":
        return np.gradient(states, times, axis=-2, edge_order=1)
    span = (times[2:] - times[:-2])[:, None]
    return central_difference(states[..., 2:, :], states[..., :-2, :], 0.5 * span)


def central_diff(series: TimeSeries) -> TimeSeries:
    """The "interior" time_derivative, on samples 1..n-2 of the input."""
    derivative = time_derivative(series.times, series.states, "interior")
    return TimeSeries(series.times[1:-1], derivative)


def full_diff(series: TimeSeries) -> TimeSeries:
    """The "full" time_derivative, at every sample including both endpoints."""
    return TimeSeries(series.times, time_derivative(series.times, series.states, "full"))


class Neighbours(NamedTuple):
    """Values of a field at each stencil node and its four grid neighbours.

    east is the +x neighbour (i + 1), north the +y neighbour (j + 1). The
    five arrays share one shape; the stencils below work on any shape.
    """

    center: np.ndarray
    east: np.ndarray
    west: np.ndarray
    north: np.ndarray
    south: np.ndarray


def interior_neighbours(values: np.ndarray) -> Neighbours:
    """Views of every strictly interior node of the last two (x, y) axes."""
    return Neighbours(
        values[..., 1:-1, 1:-1],
        values[..., 2:, 1:-1],
        values[..., :-2, 1:-1],
        values[..., 1:-1, 2:],
        values[..., 1:-1, :-2],
    )


def central_difference(ahead, behind, spacing, out=None):
    """Second-order first derivative (f[k+1] - f[k-1]) / (2 h).

    Written into `out` when given, an array of the broadcast shape.
    """
    out = np.subtract(ahead, behind, out=out)
    return np.divide(out, 2.0 * spacing, out=out)


def five_point_laplacian(f: Neighbours, dx: float, dy: float, out=None, work=None):
    """Second-order Laplacian ((E - 2C) + W) / dx^2 + ((N - 2C) + S) / dy^2.

    2C is computed once. `out` receives the result and `work` is scratch;
    either, when given, is an array of the stencil values' common shape.
    """
    work = np.multiply(2.0, f.center, out=work)
    out = np.subtract(f.east, work, out=out)
    out += f.west
    out /= dx**2
    np.subtract(f.north, work, out=work)
    work += f.south
    work /= dy**2
    out += work
    return out


def _require_interior(field: GridField):
    nx, ny = field.values.shape
    if nx < 3 or ny < 3:
        raise TooFewPoints(f"grid {nx}x{ny} has no interior for central stencils")


def spatial_gradient(field: GridField):
    """Central d/dx and d/dy on interior nodes.

    Returns two GridFields shaped like the input with the boundary ring set
    to NaN (invalid), so node indices stay aligned.
    """
    _require_interior(field)
    f = interior_neighbours(field.values)
    gx = np.full_like(field.values, np.nan)
    gy = np.full_like(field.values, np.nan)
    gx[1:-1, 1:-1] = central_difference(f.east, f.west, field.dx)
    gy[1:-1, 1:-1] = central_difference(f.north, f.south, field.dy)
    return GridField(gx, field.dx, field.dy), GridField(gy, field.dx, field.dy)


def spatial_laplacian(field: GridField) -> GridField:
    """Five-point Laplacian on interior nodes, NaN boundary ring."""
    _require_interior(field)
    lap = np.full_like(field.values, np.nan)
    lap[1:-1, 1:-1] = five_point_laplacian(
        interior_neighbours(field.values), field.dx, field.dy
    )
    return GridField(lap, field.dx, field.dy)
