"""Parameter-linear model descriptors and the three built-in systems.

A model is parameter-linear when its right-hand side factors as
dx/dt = A(x; t) @ omega with A independent of omega. Estimation then reduces
to linear regression on stacked A blocks. Built-ins:

- lotka_volterra: prey/predator, 2 states, parameters (alpha, beta, gamma, delta)
- sir: susceptible/infected/recovered, parameters (beta, gamma)
- s3i3r: 7 compartments (S, I1, I2, I3, R1, R2, R3) with hospital, ICU,
  vaccination and death flows, parameters
  (beta, gamma1, gamma2, gamma3, tau, theta, phi1, phi2)

Every built-in A(x) is a signed copy of a few state features:
A[..., i, j] = sum over f of features[..., f] * coefficients[f, i, j], with a
constant table of entries in {-1, 0, 1} (the Theta(x) Xi factorization of
SINDy, with Xi known instead of fitted). Lotka-Volterra has 3 features
(x, x*y, y), SIR 2 (S*I/N, I) and S3I3R 8 (S*I1/N, S/V, I1/V, R1/V, I1, I2,
I3, 1) with V = S + I1 + R1. Each A entry is one signed feature, so the
product is exact. The epidemic tables sum to zero over the state axis,
except in the vaccination column, where S/V + I1/V + R1/V = 1 balances the
constant feature; so the total population is conserved for any parameter
vector.

One contract for batches: every model is features(states, t), mapping
(..., n_states) to (..., F), times a table, fixed when the model is built.
Any model that declares no features has its build_matrix looped once per
state, the matrices flattened as the features of the identity table.

Checks happen where a call enters the package. The public *_features
functions check their states and population on every call; the built-in
factories bind private kernels with the same arithmetic and no checks, since
the factory has checked the population and every entry point checks the
states once (check_states) and reads the library through library_features,
which checks the features' shape. The one per-call check a kernel keeps is
S3I3R's zero pool, which depends on the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    DegenerateDenominator,
    NonPositivePopulation,
    ShapeMismatch,
)

# einsum's C entry, which np.einsum calls unchanged when optimize is False
# (its default), without the Python wrapper around it
try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy 1.x
    try:
        from numpy.core.multiarray import c_einsum as _c_einsum
    except ImportError:
        _c_einsum = np.einsum


@dataclass(frozen=True)
class ParameterLinearModel:
    """Named model with a builder for the system matrix A(x; t).

    build_matrix(state, t) maps one state of shape (n_states,) and a float t
    to a matrix of shape (n_states, n_params). features and coefficients,
    given together, batch the model: features(states, t) maps (..., n_states)
    to (..., F), with t a float or an array matching the leading axes, and
    coefficients, of shape (F, n_states, n_params) checked here once, turns
    them into A; the package then never calls build_matrix.
    """

    name: str
    state_names: tuple
    parameter_names: tuple
    build_matrix: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    population: float | None = None
    features: Callable[[np.ndarray, float | np.ndarray], np.ndarray] | None = None
    coefficients: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if (self.features is None) != (self.coefficients is None):
            raise ShapeMismatch(
                f"model {self.name} must declare features and coefficients together"
            )
        # the library is not a field, so dataclasses.replace builds it anew
        if self.coefficients is None:
            size = self.n_states * self.n_params
            identity = np.eye(size).reshape(size, self.n_states, self.n_params)
            object.__setattr__(self, "_library", (partial(_looped_features, self), identity))
            return
        table = np.array(self.coefficients, dtype=float)
        if table.ndim != 3 or table.shape[1:] != (self.n_states, self.n_params):
            raise ShapeMismatch(
                f"model {self.name} has a coefficient table of shape {table.shape}, "
                f"expected (features, {self.n_states}, {self.n_params})"
            )
        table.setflags(write=False)
        object.__setattr__(self, "coefficients", table)
        object.__setattr__(self, "_library", (self.features, table))

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

    def library(self):
        """(features(states, t), coefficients): the one right-hand-side form.

        Without declared features: the builder looped once per state, its
        matrices flattened to (..., n_states * n_params), and the identity table.
        """
        return self._library


def check_states(states, n_states: int, name: str | None = None) -> np.ndarray:
    """states as floats; ShapeMismatch, naming model `name` if given, unless (..., n_states)."""
    states = np.asarray(states, dtype=float)
    if states.ndim == 0 or states.shape[-1] != n_states:
        wants = "expected" if name is None else f"model {name} wants"
        raise ShapeMismatch(f"{wants} states of shape (..., {n_states}), got {states.shape}")
    return states


def _flow_table(features, states, parameters, flows) -> np.ndarray:
    """Read-only (F, n_states, n_params) table of sign entries, from named flows.

    Each flow (feature, parameter, source, target) moves feature * parameter
    out of the source state and into the target state; None is outside the
    system.
    """
    table = np.zeros((len(features), len(states), len(parameters)))
    for feature, parameter, source, target in flows:
        f, p = features.index(feature), parameters.index(parameter)
        if source is not None:
            table[f, states.index(source), p] = -1.0
        if target is not None:
            table[f, states.index(target), p] = 1.0
    table.setflags(write=False)
    return table


def matrices_from_features(features, coefficients) -> np.ndarray:
    """A = features (..., F) times the table (F, n, k), shaped (..., n, k)."""
    flat = coefficients.reshape(len(coefficients), -1)
    return (features @ flat).reshape(np.shape(features)[:-1] + coefficients.shape[1:])


def parameter_table(coefficients, omega) -> np.ndarray:
    """M = coefficients . omega, shaped (..., F, n) for omega of shape (..., k).

    Every omega goes through the same matrix-vector product, so a batch of
    parameter vectors gives each one's table bit for bit.
    """
    count, n_states, n_params = coefficients.shape
    product = coefficients.reshape(count * n_states, n_params) @ omega[..., None]
    return product.reshape(omega.shape[:-1] + (count, n_states))


def rates(features, table) -> np.ndarray:
    """dx/dt = features (..., F) times M (..., F, n), shaped (..., n).

    einsum rounds each product before adding them in feature order, for
    one state and a batch alike. A BLAS product (matmul) fuses
    multiply-adds instead, which moves the last bits of rates such as
    Lotka-Volterra's x*alpha - x*y*beta that the sweep tests pin.
    """
    return _c_einsum("...f,...fn->...n", features, table)


def library_features(model: ParameterLinearModel, states, t) -> tuple:
    """(features, coefficients, values = features(states, t)) of the model's library;
    ShapeMismatch unless values has shape states.shape[:-1] + (F,). The caller
    has checked the states (check_states)."""
    features, coefficients = model.library()
    values = features(states, t)
    expected = states.shape[:-1] + (len(coefficients),)
    if np.shape(values) != expected:
        raise ShapeMismatch(
            f"model {model.name} built features of shape {np.shape(values)}, "
            f"expected {expected}"
        )
    return features, coefficients, values


LOTKA_VOLTERRA_STATES = ("prey", "predator")
LOTKA_VOLTERRA_PARAMETERS = ("alpha", "beta", "gamma", "delta")
LOTKA_VOLTERRA_FEATURES = ("x", "x*y", "y")
LOTKA_VOLTERRA_COEFFICIENTS = _flow_table(
    LOTKA_VOLTERRA_FEATURES,
    LOTKA_VOLTERRA_STATES,
    LOTKA_VOLTERRA_PARAMETERS,
    [
        ("x", "alpha", None, "prey"),
        ("x*y", "beta", "prey", None),
        ("y", "gamma", "predator", None),
        ("x*y", "delta", None, "predator"),
    ],
)

SIR_STATES = ("S", "I", "R")
SIR_PARAMETERS = ("beta", "gamma")
SIR_FEATURES = ("S*I/N", "I")
SIR_COEFFICIENTS = _flow_table(
    SIR_FEATURES,
    SIR_STATES,
    SIR_PARAMETERS,
    [("S*I/N", "beta", "S", "I"), ("I", "gamma", "I", "R")],
)

S3I3R_STATES = ("S", "I1", "I2", "I3", "R1", "R2", "R3")
S3I3R_PARAMETERS = ("beta", "gamma1", "gamma2", "gamma3", "tau", "theta", "phi1", "phi2")
S3I3R_FEATURES = ("S*I1/N", "S/V", "I1/V", "R1/V", "I1", "I2", "I3", "1")
# vaccination (tau) takes each of S, I1 and R1 in proportion to its share of
# V = S + I1 + R1 and adds their sum, tau * 1, to R2
S3I3R_COEFFICIENTS = _flow_table(
    S3I3R_FEATURES,
    S3I3R_STATES,
    S3I3R_PARAMETERS,
    [
        ("S*I1/N", "beta", "S", "I1"),
        ("I1", "gamma1", "I1", "R1"),
        ("I2", "gamma2", "I2", "R1"),
        ("I3", "gamma3", "I3", "R1"),
        ("S/V", "tau", "S", None),
        ("I1/V", "tau", "I1", None),
        ("R1/V", "tau", "R1", None),
        ("1", "tau", None, "R2"),
        ("I3", "theta", "I3", "R3"),
        ("I1", "phi1", "I1", "I2"),
        ("I2", "phi2", "I2", "I3"),
    ],
)


def _lotka_volterra_kernel(states) -> np.ndarray:
    """lotka_volterra_features of float states (..., 2), unchecked."""
    features = np.empty(states.shape[:-1] + (3,))
    features[..., 0::2] = states
    features[..., 1] = states[..., 0] * states[..., 1]
    return features


def lotka_volterra_features(states) -> np.ndarray:
    """(..., 3) features (x, x*y, y) for prey x and predator y."""
    return _lotka_volterra_kernel(check_states(states, 2))


def lotka_volterra_matrix(states) -> np.ndarray:
    """(..., 2, 4) system matrices for prey x and predator y."""
    return matrices_from_features(lotka_volterra_features(states), LOTKA_VOLTERRA_COEFFICIENTS)


def check_population(population: float) -> None:
    """NonPositivePopulation unless 0 < population < inf (NaN fails too).

    A float comparison, no numpy: the public feature functions run it on
    every call (the factories run it once and bind unchecked kernels).
    """
    if not 0.0 < population < math.inf:
        raise NonPositivePopulation(f"population {population} must be finite and positive")


def _sir_kernel(states, population: float) -> np.ndarray:
    """sir_features of float states (..., 3), unchecked."""
    features = np.empty(states.shape[:-1] + (2,))
    features[..., 0] = states[..., 0] * states[..., 1] / population
    features[..., 1] = states[..., 1]
    return features


def sir_features(states, population: float) -> np.ndarray:
    """(..., 2) features (S*I/N, I)."""
    check_population(population)
    return _sir_kernel(check_states(states, 3), population)


def sir_matrix(states, population: float) -> np.ndarray:
    """(..., 3, 2) system matrices; columns (beta, gamma) each sum to zero."""
    return matrices_from_features(sir_features(states, population), SIR_COEFFICIENTS)


_POOL_STATES = np.array([0, 1, 4])  # S, I1 and R1, the terms of V


def _s3i3r_kernel(states, population: float) -> np.ndarray:
    """s3i3r_features of float states (..., 7), unchecked but for the zero pool."""
    s, i1, r1 = states[..., 0], states[..., 1], states[..., 4]
    pool = s + i1 + r1
    if np.count_nonzero(pool) < pool.size:  # pool.all(), without its Python wrapper
        raise DegenerateDenominator("vaccinatable pool S + I1 + R1 is zero")
    features = np.empty(states.shape[:-1] + (8,))
    features[..., 0] = s * i1 / population
    np.divide(states[..., _POOL_STATES], pool[..., None], out=features[..., 1:4])
    features[..., 4:7] = states[..., 1:4]
    features[..., 7] = 1.0
    return features


def s3i3r_features(states, population: float) -> np.ndarray:
    """(..., 8) features (S*I1/N, S/V, I1/V, R1/V, I1, I2, I3, 1), V = S + I1 + R1.

    Raises DegenerateDenominator when V is zero for any state.
    """
    check_population(population)
    return _s3i3r_kernel(check_states(states, 7), population)


def s3i3r_matrix(states, population: float) -> np.ndarray:
    """(..., 7, 8) system matrices with columns (beta, gamma1, gamma2, gamma3, tau, theta, phi1, phi2).

    The vaccination column (tau) moves people out of S, I1 and R1 in
    proportion to their share of the vaccinatable pool V = S + I1 + R1, and
    into R2 at unit rate, so the column sums to zero like all others.
    """
    return matrices_from_features(s3i3r_features(states, population), S3I3R_COEFFICIENTS)


def _looped_features(model: ParameterLinearModel, states, t) -> np.ndarray:
    """build_matrix called once per state with a float t, flattened to (..., n * k)."""
    states = check_states(states, model.n_states, model.name)
    rows = states.reshape(-1, model.n_states)
    times = np.broadcast_to(np.asarray(t, dtype=float), states.shape[:-1]).reshape(-1)
    matrices = np.empty((len(rows), model.n_states, model.n_params))
    for row, (x, tt) in enumerate(zip(rows, times)):
        matrix = model.build_matrix(x, float(tt))
        if np.shape(matrix) != matrices.shape[1:]:
            raise ShapeMismatch(
                f"model {model.name} built matrices of shape {np.shape(matrix)}, "
                f"expected {matrices.shape[1:]}"
            )
        matrices[row] = matrix
    return matrices.reshape(states.shape[:-1] + (model.n_states * model.n_params,))


def build_matrices(model: ParameterLinearModel, states, t) -> np.ndarray:
    """A(x; t) for states of shape (..., n_states), shaped (..., n_states, n_params).

    t is a float or an array matching the leading axes of states. One call
    of the model's library features per batch, times its table.
    """
    states = check_states(states, model.n_states, model.name)
    if 0 in states.shape[:-1]:  # an empty batch has nothing to build
        return np.empty(states.shape[:-1] + (model.n_states, model.n_params))
    _, coefficients, values = library_features(model, states, t)
    return matrices_from_features(values, coefficients)


def check_parameters(model: ParameterLinearModel, omega) -> np.ndarray:
    """omega as a float vector; ShapeMismatch unless its shape is (n_params,)."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (model.n_params,):
        raise ShapeMismatch(
            f"expected {model.n_params} parameters, got shape {omega.shape}"
        )
    return omega


def eval_rhs(model: ParameterLinearModel, state, omega, t: float = 0.0) -> np.ndarray:
    """Right-hand side A(x; t) @ omega, as features(x; t) @ (coefficients . omega)."""
    state = check_states(state, model.n_states, model.name)
    _, coefficients, values = library_features(model, state, t)
    return rates(values, parameter_table(coefficients, check_parameters(model, omega)))


def lotka_volterra() -> ParameterLinearModel:
    return ParameterLinearModel(
        name="lotka_volterra",
        state_names=LOTKA_VOLTERRA_STATES,
        parameter_names=LOTKA_VOLTERRA_PARAMETERS,
        build_matrix=lambda state, t: lotka_volterra_matrix(state),
        features=lambda states, t: _lotka_volterra_kernel(states),
        coefficients=LOTKA_VOLTERRA_COEFFICIENTS,
    )


def sir(population: float) -> ParameterLinearModel:
    check_population(population)
    return ParameterLinearModel(
        name="sir",
        state_names=SIR_STATES,
        parameter_names=SIR_PARAMETERS,
        build_matrix=lambda state, t: sir_matrix(state, population),
        population=population,
        features=lambda states, t: _sir_kernel(states, population),
        coefficients=SIR_COEFFICIENTS,
    )


def s3i3r(population: float) -> ParameterLinearModel:
    check_population(population)
    return ParameterLinearModel(
        name="s3i3r",
        state_names=S3I3R_STATES,
        parameter_names=S3I3R_PARAMETERS,
        build_matrix=lambda state, t: s3i3r_matrix(state, population),
        population=population,
        features=lambda states, t: _s3i3r_kernel(states, population),
        coefficients=S3I3R_COEFFICIENTS,
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
