"""Fixed-step explicit fourth-order Runge-Kutta simulation.

The step size doubles as the output sampling interval: every solver step is
stored. Parameter schedules are evaluated once at the start of each step and
held constant through the four stages. States are never clipped; a step
fails with NonFiniteState when it produces NaN or Inf, or with whatever
error the model's features or builder raise.

Every stage evaluates the one right-hand-side form of models.py:
features(x, t) @ M with M = coefficients . omega, one table M per step.
Constant parameters give one table for every step (one per draw for a
batch); any other schedule is read with omega_at once per step time before
those steps run, STEP_BLOCK steps to one parameter_table call.

simulate and simulate_draws share one RK4 loop: simulate is its one-draw
case, stepped as one state; a batch of draws takes one features call per
stage, and a failing draw stops alone. The state's width is checked once,
and the features' shape once by models.library_features on the initial
state, before the first step; each omega's width before the steps that read
it. The stages then call the library features as they are; a built-in's are
its unchecked kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .differentiation import TimeSeries
from .errors import EstimationError, NonFiniteState, ShapeMismatch
from .models import (
    ParameterLinearModel,
    check_parameters,
    check_states,
    library_features,
    parameter_table,
    rates,
)

# _integrate builds a schedule's step tables this many steps at a time, so a
# long run holds no more tables than that (S3I3R: 448 bytes a step)
STEP_BLOCK = 1 << 10


class ConstantSchedule:
    """Time-invariant parameter vector."""

    def __init__(self, omega):
        self.omega = np.asarray(omega, dtype=float)
        if not np.isfinite(self.omega).all():
            raise ValueError("omega must be finite")

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
        if not np.isfinite(self.values).all():
            raise ValueError("schedule values must be finite")

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
        fields = {"base_omega": self.base, "mean": self.mean, "amplitude": self.amplitude,
                  "period": self.period}
        for name, value in fields.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
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


def _rk4(features, state, t, table, h):
    """Classical RK4 update of states (..., n) under parameter tables (..., F, n).

    features(states, t) returns (..., F); the table is held fixed across the
    stages. Nothing is checked here: the callers check the state's width and
    the features' shape once, before the first step.
    """
    half = t + 0.5 * h
    k1 = rates(features(state, t), table)
    k2 = rates(features(state + 0.5 * h * k1, half), table)
    k3 = rates(features(state + 0.5 * h * k2, half), table)
    k4 = rates(features(state + h * k3, t + h), table)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def erk4_step(
    model: ParameterLinearModel, state: np.ndarray, t: float, omega, h: float
) -> np.ndarray:
    """One classical RK4 update of one state with omega held fixed across the stages."""
    if not 0 < h < np.inf:
        raise ValueError("step must be finite and positive")
    state = check_states(state, model.n_states, model.name)
    # an overflow is the step's verdict (NonFiniteState), as in _integrate
    with np.errstate(all="ignore"):
        features, coefficients, _ = library_features(model, state, t)
        table = parameter_table(coefficients, check_parameters(model, omega))
        new_state = _rk4(features, state, t, table, h)
    if not np.all(np.isfinite(new_state)):
        raise NonFiniteState(f"non-finite state after step from t={t}")
    return new_state


def time_grid(config: SimulationConfig) -> np.ndarray:
    """Sample times t0, t0 + step, ... up to t_end within half a step."""
    n_steps = int(np.floor((config.t_end - config.t0) / config.step + 0.5))
    return config.t0 + config.step * np.arange(n_steps + 1)


def _schedule_tables(model, coefficients, schedule, times):
    """Each step's table (F, n): omega_at read once per time, a block before its steps."""
    for block in np.split(times, range(STEP_BLOCK, len(times), STEP_BLOCK)):
        omegas = [check_parameters(model, schedule.omega_at(t)) for t in block]
        yield from parameter_table(coefficients, np.array(omegas))


def _integrate(model, config, omegas=None):
    """The one RK4 loop: (times, states, failures) as simulate_draws documents.

    omegas, of shape (draws, n_params), holds each draw's constant
    parameters; without it one draw follows config.schedule.
    """
    x = config.initial_state
    if x.shape != (model.n_states,):
        raise ShapeMismatch(
            f"initial state has shape {x.shape}, model wants ({model.n_states},)"
        )
    times, h = time_grid(config), config.step
    draws = 1 if omegas is None else len(omegas)
    states = np.empty((draws, len(times), model.n_states))
    states[:, 0] = x
    if draws > 1:
        x = states[:, 0].copy()
    # a wrong features or parameter shape would broadcast in the stages: it
    # fails every draw (simulate_draws checks its own parameters); an
    # overflowing initial state fails at the first step's finiteness check
    with np.errstate(all="ignore"):
        features, coefficients, _ = library_features(model, x, times[0])
    if omegas is None and isinstance(config.schedule, ConstantSchedule):
        omegas = check_parameters(model, config.schedule.omega)[None]
    if omegas is None:
        tables = _schedule_tables(model, coefficients, config.schedule, times[:-1])
    else:  # one table that every step reads
        table = parameter_table(coefficients, omegas[0] if draws == 1 else omegas)
        tables = repeat(table, len(times) - 1)
    failures = {}
    active, rows = np.arange(draws), slice(None)  # the draws still stepping
    # a dying draw may overflow; its rows are checked after each step
    with np.errstate(all="ignore"):
        for i, table in enumerate(tables):
            t = times[i]
            step_table = table[rows]
            try:
                x = _rk4(features, x, t, step_table, h)
            except EstimationError:
                # find the draws that raised by stepping each one alone
                x = x.reshape(len(active), -1)
                step_table = step_table.reshape((len(active),) + step_table.shape[-2:])
                stepped = np.full_like(x, np.nan)
                for row in range(len(x)):
                    try:
                        stepped[row] = _rk4(features, x[row], t, step_table[row], h)
                    except EstimationError as exc:
                        failures[int(active[row])] = exc
                x = stepped
            # isfinite(x).all(), without the Python wrapper of .all()
            if np.count_nonzero(np.isfinite(x)) < x.size:
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
    times, states, failures = _integrate(model, config)
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
    return _integrate(model, config, omegas)
