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

Batched contract: a model declared batched=True has a build_matrix(states,
t) that maps states of shape (..., n_states) to matrices of shape
(..., n_states, n_params), one matrix per state along the leading axes; a
single state is the case with no leading axes. The built-in builders are
declared batched. An undeclared builder takes one state at a time, and
build_matrices calls it once per state.
"""

from __future__ import annotations

import math
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

    build_matrix(state, t) takes one state of shape (n_states,) and a float t
    and returns a matrix of shape (n_states, n_params). With batched=True it
    also takes states of shape (..., n_states) and t as a float or an array
    matching the leading axes, and returns matrices of shape
    (..., n_states, n_params). Undeclared builders are called once per state.
    """

    name: str
    state_names: tuple
    parameter_names: tuple
    build_matrix: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    population: float | None = None
    batched: bool = False

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


def check_population(population: float) -> None:
    """NonPositivePopulation unless 0 < population < inf (NaN fails too).

    A float comparison, no numpy: the matrix builders run once per RK4 stage.
    """
    if not 0.0 < population < math.inf:
        raise NonPositivePopulation(f"population {population} must be finite and positive")


def sir_matrix(states, population: float) -> np.ndarray:
    """(..., 3, 2) system matrices; columns (beta, gamma) each sum to zero."""
    check_population(population)
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
    check_population(population)
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


def build_matrices(model: ParameterLinearModel, states, t) -> np.ndarray:
    """A(x; t) for states of shape (..., n_states), shaped (..., n_states, n_params).

    t is a float or an array matching the leading axes of states. A batched
    model, or a single state, takes one builder call; an undeclared builder
    is called once per state with a float t.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim == 0 or states.shape[-1] != model.n_states:
        raise ShapeMismatch(
            f"model {model.name} wants states of shape (..., {model.n_states}), "
            f"got {states.shape}"
        )
    shape = states.shape[:-1] + (model.n_states, model.n_params)
    if 0 in states.shape[:-1]:
        return np.empty(shape)  # an empty batch has nothing to build
    if model.batched or states.ndim == 1:
        matrices = model.build_matrix(states, t)
    else:
        rows = states.reshape(-1, model.n_states)
        times = np.broadcast_to(np.asarray(t, dtype=float), states.shape[:-1]).reshape(-1)
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


def check_parameters(model: ParameterLinearModel, omega) -> np.ndarray:
    """omega as a float vector; ShapeMismatch unless its shape is (n_params,)."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (model.n_params,):
        raise ShapeMismatch(
            f"expected {model.n_params} parameters, got shape {omega.shape}"
        )
    return omega


def eval_rhs(model: ParameterLinearModel, state, omega, t: float = 0.0) -> np.ndarray:
    """Right-hand side A(x; t) @ omega."""
    return build_matrices(model, state, t) @ check_parameters(model, omega)


def lotka_volterra() -> ParameterLinearModel:
    return ParameterLinearModel(
        name="lotka_volterra",
        state_names=("prey", "predator"),
        parameter_names=("alpha", "beta", "gamma", "delta"),
        build_matrix=lambda state, t: lotka_volterra_matrix(state),
        batched=True,
    )


def sir(population: float) -> ParameterLinearModel:
    check_population(population)
    return ParameterLinearModel(
        name="sir",
        state_names=("S", "I", "R"),
        parameter_names=("beta", "gamma"),
        build_matrix=lambda state, t: sir_matrix(state, population),
        batched=True,
        population=population,
    )


def s3i3r(population: float) -> ParameterLinearModel:
    check_population(population)
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
        batched=True,
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
