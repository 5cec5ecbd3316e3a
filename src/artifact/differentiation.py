"""Finite-difference derivatives for time series and gridded fields."""

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

    @property
    def dim(self) -> int:
        return self.states.shape[1]


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


def central_diff(series: TimeSeries) -> TimeSeries:
    """Central-difference derivative on interior samples.

    dx_i/dt ~ (x_{i+1} - x_{i-1}) / (t_{i+1} - t_{i-1}); the two endpoints
    are dropped, so the output covers indices 1..n-2 of the input. The
    two-point span in the denominator also handles non-uniform sampling.
    """
    n = len(series)
    if n < 3:
        raise TooFewPoints(f"central difference needs n >= 3, got {n}")
    span = (series.times[2:] - series.times[:-2])[:, None]
    derivative = (series.states[2:] - series.states[:-2]) / span
    return TimeSeries(series.times[1:-1], derivative)


def full_diff(series: TimeSeries) -> TimeSeries:
    """Full-length derivative: central inside, first-order one-sided ends.

    Opt-in alternative to central_diff for callers that need a derivative at
    every sample, including both endpoints.
    """
    n = len(series)
    if n < 3:
        raise TooFewPoints(f"full-length difference needs n >= 3, got {n}")
    derivative = np.gradient(series.states, series.times, axis=0, edge_order=1)
    return TimeSeries(series.times, derivative)


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
