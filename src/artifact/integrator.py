"""Fixed-step explicit fourth-order Runge-Kutta simulation.

The step size doubles as the output sampling interval: every solver step is
stored. Parameter schedules are evaluated once at the start of each step and
held constant through the four stages. States are never clipped; a step
fails with NonFiniteState when it produces NaN or Inf, or with whatever
error the model's builder raises.

simulate and simulate_draws share one RK4 loop driven by omega_at(t):
simulate is its one-draw case, stepped as one state through
model.build_matrix; a batch of draws takes one build_matrices call per
stage, and a failing draw stops alone. Builder shapes and the parameter
width are checked once, on the initial state, before the first step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .differentiation import TimeSeries
from .errors import EstimationError, NonFiniteState, ShapeMismatch
from .models import ParameterLinearModel, build_matrices, check_parameters


class ConstantSchedule:
    """Time-invariant parameter vector."""

    def __init__(self, omega):
        self.omega = np.asarray(omega, dtype=float)

    def omega_at(self, t: float) -> np.ndarray:
        return self.omega


class PiecewiseSchedule:
    """Step-function schedule: omega_at(t) is the row of the latest t_i <= t.

    Before the first table time the first row applies.
    """

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.values.ndim != 2:
            raise ShapeMismatch("need times (n,) and values (n, k)")
        if self.times.shape[0] != self.values.shape[0]:
            raise ShapeMismatch("schedule table lengths differ")
        if self.times.shape[0] == 0:
            raise ShapeMismatch("schedule table is empty")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("schedule times must be strictly increasing")

    def omega_at(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[max(idx, 0)]


class SinusoidalBetaSchedule:
    """Sinusoidal modulation of one parameter around a mean.

    omega[index] = amplitude * sin(2 pi t / period) + mean; all other entries
    come from the base vector.
    """

    def __init__(self, base_omega, mean, amplitude, period, index: int = 0):
        self.base = np.asarray(base_omega, dtype=float)
        self.mean = float(mean)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.index = int(index)
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= self.index < self.base.shape[0]:
            raise ShapeMismatch("modulated index outside the parameter vector")

    def value_at(self, t: float) -> float:
        return self.amplitude * np.sin(2.0 * np.pi * t / self.period) + self.mean

    def omega_at(self, t: float) -> np.ndarray:
        omega = self.base.copy()
        omega[self.index] = self.value_at(t)
        return omega


@dataclass(frozen=True)
class SimulationConfig:
    t0: float
    t_end: float
    step: float
    initial_state: np.ndarray
    schedule: object

    def __post_init__(self):
        if not np.isfinite([self.t0, self.t_end, self.step]).all():
            raise ValueError(
                f"t0, t_end and step must be finite: {self.t0}, {self.t_end}, {self.step}"
            )
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if not 0 < self.step <= self.t_end - self.t0:
            raise ValueError("step must be positive and at most the horizon")
        object.__setattr__(
            self, "initial_state", np.asarray(self.initial_state, dtype=float)
        )


def _rk4(build, state, t, omega, h):
    """Classical RK4 update of states (..., n) under parameters (..., k).

    build(states, t) returns the matrices (..., n, k); omega is held fixed
    across the stages.
    """
    column = omega[..., None]
    half = t + 0.5 * h
    k1 = (build(state, t) @ column)[..., 0]
    k2 = (build(state + 0.5 * h * k1, half) @ column)[..., 0]
    k3 = (build(state + 0.5 * h * k2, half) @ column)[..., 0]
    k4 = (build(state + h * k3, t + h) @ column)[..., 0]
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def erk4_step(
    model: ParameterLinearModel, state: np.ndarray, t: float, omega, h: float
) -> np.ndarray:
    """One classical RK4 update of one state with omega held fixed across the stages."""
    if h <= 0:
        raise ValueError("step must be positive")
    build = functools.partial(build_matrices, model)
    new_state = _rk4(build, state, t, check_parameters(model, omega), h)
    if not np.all(np.isfinite(new_state)):
        raise NonFiniteState(f"non-finite state after step from t={t}")
    return new_state


def time_grid(config: SimulationConfig) -> np.ndarray:
    """Sample times t0, t0 + step, ... up to t_end within half a step."""
    n_steps = int(np.floor((config.t_end - config.t0) / config.step + 0.5))
    return config.t0 + config.step * np.arange(n_steps + 1)


def _integrate(model, config, omega_at, draws):
    """The one RK4 loop: (times, states, failures) as simulate_draws documents.

    omega_at(t) gives (n_params,) for one draw, else (draws, n_params).
    """
    x = config.initial_state
    if x.shape != (model.n_states,):
        raise ShapeMismatch(
            f"initial state has shape {x.shape}, model wants ({model.n_states},)"
        )
    times, h = time_grid(config), config.step
    states = np.empty((draws, len(times), model.n_states))
    states[:, 0] = x
    build = model.build_matrix
    if draws > 1:
        x, build = states[:, 0].copy(), functools.partial(build_matrices, model)
    # a wrong matrix or parameter shape would broadcast in the stages: it
    # fails every draw (simulate_draws checks its own parameters)
    build_matrices(model, x, times[0])
    if draws == 1:
        check_parameters(model, omega_at(times[0]))
    failures = {}
    active, rows = np.arange(draws), slice(None)  # the draws still stepping
    # a dying draw may overflow; its rows are checked after each step
    with np.errstate(all="ignore"):
        for i in range(len(times) - 1):
            t = times[i]
            omega = np.asarray(omega_at(t), dtype=float)[rows]
            try:
                x = _rk4(build, x, t, omega, h)
            except EstimationError:
                # find the draws that raised by stepping each one alone
                x, omega = x.reshape(len(active), -1), omega.reshape(len(active), -1)
                stepped = np.full_like(x, np.nan)
                for row in range(len(x)):
                    try:
                        stepped[row] = _rk4(model.build_matrix, x[row], t, omega[row], h)
                    except EstimationError as exc:
                        failures[int(active[row])] = exc
                x = stepped
            if not np.isfinite(x).all():
                finite = np.isfinite(x.reshape(len(active), -1)).all(axis=1)
                message = f"non-finite state at step {i + 1} (t={t})"
                for row in np.flatnonzero(~finite):
                    failures.setdefault(int(active[row]), NonFiniteState(message))
                active = rows = active[finite]
                if active.size == 0:
                    break
                x = x[finite]
            states[rows, i + 1] = x
    return times, states, failures


def simulate(model: ParameterLinearModel, config: SimulationConfig) -> TimeSeries:
    """Integrate from t0 to t_end inclusive (within half-step tolerance)."""
    times, states, failures = _integrate(model, config, config.schedule.omega_at, 1)
    if failures:
        raise failures[0]
    return TimeSeries(times, states[0])


def simulate_draws(model: ParameterLinearModel, config: SimulationConfig, omegas):
    """Integrate one constant parameter vector per draw, all draws together.

    omegas has shape (draws, n_params); the grid and the initial state come
    from config, whose schedule is not used. Every draw's trajectory equals
    simulate() under ConstantSchedule(omegas[d]) bit for bit. A draw that
    raises an EstimationError or turns non-finite stops there and is
    reported with the error simulate() would raise; no draw affects another.
    The builder's error at the shared initial state is raised for all.

    Returns (times, states, failures): states has shape
    (draws, len(times), n_states), and failures maps a draw index to its
    error (the rows of a failed draw past its failing step are undefined).
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 2 or omegas.shape[1] != model.n_params:
        raise ShapeMismatch(
            f"expected omegas of shape (draws, {model.n_params}), got {omegas.shape}"
        )
    omega = omegas[0] if len(omegas) == 1 else omegas
    return _integrate(model, config, lambda t: omega, len(omegas))
