"""Parameter-linear model descriptors and the three built-in systems.

A model is parameter-linear when its right-hand side factors as
dx/dt = A(x; t) @ omega with A independent of omega. Estimation then reduces
to linear regression on stacked A blocks. Built-ins:

- lotka_volterra: prey/predator, 2 states, parameters (alpha, beta, gamma, delta)
- sir: susceptible/infected/recovered, parameters (beta, gamma)
- s3i3r: 7 compartments (S, I1, I2, I3, R1, R2, R3) with hospital, ICU,
  vaccination and death flows, parameters
  (beta, gamma1, gamma2, gamma3, tau, theta, phi1, phi2)

The epidemic matrices have zero column sums by construction, so the total
population is conserved for any parameter vector.

Batched contract: build_matrix(states, t) maps states of shape
(..., n_states) to matrices of shape (..., n_states, n_params), one matrix
per state along the leading axes. A single state is the case with no leading
axes. The built-in builders broadcast; a custom builder that only takes one
state still works through build_matrices, which probes each builder once and
calls a one-state builder once per state.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateDenominator,
    NonPositivePopulation,
    ShapeMismatch,
)


@dataclass(frozen=True)
class ParameterLinearModel:
    """Named model with a builder for the system matrix A(x; t).

    build_matrix(states, t) takes states of shape (..., n_states) and
    returns matrices of shape (..., n_states, n_params); t is a float or an
    array matching the leading axes. A builder that only takes one state of
    shape (n_states,) and a float t is also accepted: build_matrices compares
    its result for a small batch with one-state calls, once per builder, and
    then loops over the states.
    """

    name: str
    state_names: tuple
    parameter_names: tuple
    build_matrix: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    population: float | None = None

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_params(self) -> int:
        return len(self.parameter_names)

    def parameter_index(self, name: str) -> int:
        try:
            return self.parameter_names.index(name)
        except ValueError:
            raise ShapeMismatch(
                f"model {self.name} has no parameter {name!r}"
            ) from None


def _as_states(states, expected: int) -> np.ndarray:
    states = np.asarray(states, dtype=float)
    if states.ndim == 0 or states.shape[-1] != expected:
        raise ShapeMismatch(
            f"expected states of shape (..., {expected}), got {states.shape}"
        )
    return states


def lotka_volterra_matrix(states) -> np.ndarray:
    """(..., 2, 4) system matrices for prey x and predator y."""
    states = _as_states(states, 2)
    x, y = states[..., 0], states[..., 1]
    a = np.zeros(states.shape[:-1] + (2, 4))
    a[..., 0, 0] = x
    a[..., 0, 1] = -x * y
    a[..., 1, 2] = -y
    a[..., 1, 3] = x * y
    return a


def sir_matrix(states, population: float) -> np.ndarray:
    """(..., 3, 2) system matrices; columns (beta, gamma) each sum to zero."""
    if population <= 0:
        raise NonPositivePopulation(f"population {population} must be positive")
    states = _as_states(states, 3)
    s, i = states[..., 0], states[..., 1]
    si = s * i / population
    a = np.zeros(states.shape[:-1] + (3, 2))
    a[..., 0, 0] = -si
    a[..., 1, 0] = si
    a[..., 1, 1] = -i
    a[..., 2, 1] = i
    return a


def s3i3r_matrix(states, population: float) -> np.ndarray:
    """(..., 7, 8) system matrices with columns (beta, gamma1, gamma2, gamma3, tau, theta, phi1, phi2).

    The vaccination column (tau) moves people out of S, I1 and R1 in
    proportion to their share of the vaccinatable pool V = S + I1 + R1, and
    into R2 at unit rate, so the column sums to zero like all others.
    """
    if population <= 0:
        raise NonPositivePopulation(f"population {population} must be positive")
    states = _as_states(states, 7)
    s, i1, i2, i3, r1 = (states[..., k] for k in range(5))
    pool = s + i1 + r1
    if not pool.all():
        raise DegenerateDenominator("vaccinatable pool S + I1 + R1 is zero")
    si = s * i1 / population
    a = np.zeros(states.shape[:-1] + (7, 8))
    a[..., 0, 0] = -si
    a[..., 0, 4] = -s / pool
    a[..., 1, 0] = si
    a[..., 1, 1] = -i1
    a[..., 1, 4] = -i1 / pool
    a[..., 1, 6] = -i1
    a[..., 2, 2] = -i2
    a[..., 2, 6] = i1
    a[..., 2, 7] = -i2
    a[..., 3, 3] = -i3
    a[..., 3, 5] = -i3
    a[..., 3, 7] = i2
    a[..., 4, 1] = i1
    a[..., 4, 2] = i2
    a[..., 4, 3] = i3
    a[..., 4, 4] = -r1 / pool
    a[..., 5, 4] = 1.0
    a[..., 6, 5] = i3
    return a


# builder -> whether it honours the batched contract. A cache of a property
# of the builder function: weak keys, so it ends with the builder's model.
_BROADCASTS = weakref.WeakKeyDictionary()


def _broadcasts(model: ParameterLinearModel, states: np.ndarray, t) -> bool:
    """Whether model.build_matrix maps a batch of states to one matrix per state.

    Decided once per builder on a probe of leading shape (2, 3) drawn from
    states (..., n_states) and t: the builder broadcasts when its result for
    the probe equals the six one-state calls bit for bit. The result of a
    one-state builder cannot pass by having the right shape by chance, as it
    can for a batch whose length equals n_states: indexing the state axis of
    the probe gives arrays of leading shape (3,), so its result never has
    leading shape (2, 3). An error of a one-state call propagates and leaves
    the question open.
    """
    build = model.build_matrix
    try:
        return _BROADCASTS[build]
    except (KeyError, TypeError):
        pass
    rows, times = _rows_and_times(states, t)
    pick = np.linspace(0, len(rows) - 1, 6).astype(int)
    probe, probe_times = rows[pick], times[pick]
    expected = np.array(
        [build(x, float(tt)) for x, tt in zip(probe, probe_times)], dtype=float
    )
    try:
        batched = build(probe.reshape(2, 3, -1), probe_times.reshape(2, 3))
        verdict = np.shape(batched) == (2, 3) + expected.shape[1:] and np.array_equal(
            np.reshape(batched, expected.shape), expected, equal_nan=True
        )
    except (ValueError, TypeError, IndexError, ShapeMismatch):
        # how a one-state builder typically rejects a batch
        verdict = False
    try:
        _BROADCASTS[build] = verdict
    except TypeError:
        pass  # not weakly referenceable: probed again on the next call
    return verdict


def _rows_and_times(states: np.ndarray, t):
    """States (..., n) as rows (m, n), and t broadcast to one float per row."""
    rows = states.reshape(-1, states.shape[-1])
    times = np.broadcast_to(np.asarray(t, dtype=float), states.shape[:-1]).reshape(-1)
    return rows, times


def build_matrices(model: ParameterLinearModel, states, t) -> np.ndarray:
    """A(x; t) for states of shape (..., n_states), shaped (..., n_states, n_params).

    t is a float or an array matching the leading axes of states. A builder
    that broadcasts (see _broadcasts) gets the whole batch in one call; any
    other builder is called once per state with a float t.
    """
    states = np.asarray(states, dtype=float)
    shape = states.shape[:-1] + (model.n_states, model.n_params)
    if states.ndim > 1 and 0 in states.shape[:-1]:
        # an empty batch has nothing to build, nor to probe the builder with
        return np.empty(shape)
    if states.ndim > 1 and _broadcasts(model, states, t):
        matrices = model.build_matrix(states, t)
    else:
        rows, times = _rows_and_times(states, t)
        matrices = np.array(
            [model.build_matrix(x, float(tt)) for x, tt in zip(rows, times)],
            dtype=float,
        )
    if np.shape(matrices) == shape:
        return matrices
    if np.shape(matrices) != (int(np.prod(shape[:-2])),) + shape[-2:]:
        raise ShapeMismatch(
            f"model {model.name} built matrices of shape {np.shape(matrices)}, "
            f"expected {shape}"
        )
    return matrices.reshape(shape)


def eval_rhs(model: ParameterLinearModel, state, omega, t: float = 0.0) -> np.ndarray:
    """Right-hand side A(x; t) @ omega."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (model.n_params,):
        raise ShapeMismatch(
            f"expected {model.n_params} parameters, got shape {omega.shape}"
        )
    return model.build_matrix(np.asarray(state, dtype=float), t) @ omega


def lotka_volterra() -> ParameterLinearModel:
    return ParameterLinearModel(
        name="lotka_volterra",
        state_names=("prey", "predator"),
        parameter_names=("alpha", "beta", "gamma", "delta"),
        build_matrix=lambda state, t: lotka_volterra_matrix(state),
    )


def sir(population: float) -> ParameterLinearModel:
    if population <= 0:
        raise NonPositivePopulation(f"population {population} must be positive")
    return ParameterLinearModel(
        name="sir",
        state_names=("S", "I", "R"),
        parameter_names=("beta", "gamma"),
        build_matrix=lambda state, t: sir_matrix(state, population),
        population=population,
    )


def s3i3r(population: float) -> ParameterLinearModel:
    if population <= 0:
        raise NonPositivePopulation(f"population {population} must be positive")
    return ParameterLinearModel(
        name="s3i3r",
        state_names=("S", "I1", "I2", "I3", "R1", "R2", "R3"),
        parameter_names=(
            "beta",
            "gamma1",
            "gamma2",
            "gamma3",
            "tau",
            "theta",
            "phi1",
            "phi2",
        ),
        build_matrix=lambda state, t: s3i3r_matrix(state, population),
        population=population,
    )


_REGISTRY: dict = {
    "lotka_volterra": lotka_volterra,
    "sir": sir,
    "s3i3r": s3i3r,
}


def register_model(name: str, factory: Callable) -> None:
    """Add a custom model factory to the registry used by the CLI."""
    _REGISTRY[name] = factory


def get_model(name: str, population: float | None = None) -> ParameterLinearModel:
    """Look a model up by registry name."""
    if name not in _REGISTRY:
        raise ShapeMismatch(
            f"unknown model {name!r}; registered: {sorted(_REGISTRY)}"
        )
    factory = _REGISTRY[name]
    if name == "lotka_volterra":
        return factory()
    if population is None:
        raise NonPositivePopulation(f"model {name!r} needs a population constant")
    return factory(population)
