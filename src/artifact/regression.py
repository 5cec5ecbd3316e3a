"""Closed-form least-squares machinery.

Solvers
-------
- solve_ols: ordinary least squares, min ||A omega - b||_2
- solve_ridge: Tikhonov-regularized least squares, (A'A + lambda I)^-1 A'b

Implementation
--------------
Every OLS and ridge system takes one path: a system with a NaN or Inf
entry is rejected with NonFiniteSystem before any solve; otherwise the
columns are optionally scaled to unit norm, a ridge system is stacked as
[A; sqrt(lambda) I] over [b; 0], and one LAPACK least-squares call
(np.linalg.lstsq, an SVD) returns the solution and the singular values.
The condition number on the normal-matrix scale, (s_max / s_min)^2, is
exact. A condition number that overflows means the system does too, and
raises NonFiniteSystem; above 1e12 (OLS) or at a numerical rank below the
column count (ridge) the system is declared rank deficient.

Stacking
--------
Per-sample residual blocks are concatenated vertically into one tall system
(stack_systems). Known parameters are eliminated before solving by moving
their contribution to the right-hand side (apply_partition); the estimate is
recombined afterwards so callers always see the full parameter vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroColumn,
    IndexOutOfRange,
    NonFiniteSystem,
    RankDeficient,
    ShapeMismatch,
)

RANK_DEFICIENT_CONDITION = 1e12


@dataclass(frozen=True)
class StackedSystem:
    """A tall linear system A omega = b of stacked scalar equations."""

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if matrix.ndim != 2:
            raise ShapeMismatch(f"matrix must be 2-D, got ndim={matrix.ndim}")
        if rhs.ndim != 1:
            raise ShapeMismatch(f"rhs must be 1-D, got ndim={rhs.ndim}")
        if matrix.shape[0] != rhs.shape[0]:
            raise ShapeMismatch(
                f"matrix has {matrix.shape[0]} rows but rhs has {rhs.shape[0]}"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class ParameterPartition:
    """Split of the parameter vector into known (fixed) and unknown entries."""

    known_indices: tuple
    known_values: np.ndarray
    unknown_indices: tuple

    def __post_init__(self):
        known_indices = tuple(int(i) for i in self.known_indices)
        unknown_indices = tuple(int(i) for i in self.unknown_indices)
        known_values = np.asarray(self.known_values, dtype=float)
        if known_values.shape != (len(known_indices),):
            raise ShapeMismatch("known_values must align with known_indices")
        if set(known_indices) & set(unknown_indices):
            raise ShapeMismatch("known and unknown index sets overlap")
        object.__setattr__(self, "known_indices", known_indices)
        object.__setattr__(self, "unknown_indices", unknown_indices)
        object.__setattr__(self, "known_values", known_values)

    @classmethod
    def from_known(cls, total: int, known: dict) -> "ParameterPartition":
        """Build a partition for `total` parameters from {index: value}."""
        for i in known:
            if not 0 <= int(i) < total:
                raise IndexOutOfRange(f"known index {i} outside 0..{total - 1}")
        known_indices = tuple(sorted(int(i) for i in known))
        known_values = np.array([known[i] for i in known_indices], dtype=float)
        unknown = tuple(i for i in range(total) if i not in set(known_indices))
        return cls(known_indices, known_values, unknown)

    @classmethod
    def all_unknown(cls, total: int) -> "ParameterPartition":
        return cls((), np.zeros(0), tuple(range(total)))

    @property
    def total(self) -> int:
        return len(self.known_indices) + len(self.unknown_indices)


@dataclass(frozen=True)
class ParameterEstimate:
    """Estimated parameter vector with solver diagnostics."""

    values: np.ndarray
    residual_norm: float
    condition_estimate: float
    ridge_lambda: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def _column_scales(matrix: np.ndarray) -> np.ndarray:
    # zero columns are left unscaled so the rank check still sees them
    with np.errstate(over="ignore"):
        scales = np.linalg.norm(matrix, axis=0)
    if not np.all(np.isfinite(scales)):
        raise NonFiniteSystem("a column norm of the system is not finite")
    scales[scales == 0.0] = 1.0
    return scales


def _solve_least_squares(
    system: StackedSystem, ridge_lambda: float, normalize: bool
) -> ParameterEstimate:
    if not (np.isfinite(system.matrix).all() and np.isfinite(system.rhs).all()):
        raise NonFiniteSystem("the system has a non-finite entry")
    cols = system.cols
    scales = _column_scales(system.matrix) if normalize else np.ones(cols)
    matrix = system.matrix / scales
    rhs = system.rhs
    if ridge_lambda > 0:
        matrix = np.vstack([matrix, math.sqrt(ridge_lambda) * np.eye(cols)])
        rhs = np.concatenate([rhs, np.zeros(cols)])
    omega, _, rank, singular = np.linalg.lstsq(matrix, rhs, rcond=None)
    s_max, s_min = float(singular[0]), float(singular[-1])
    # an exactly singular system is rank deficient, not overflowing
    if s_min == 0.0:
        raise RankDeficient("zero singular value")
    # Python floats overflow to inf without a numpy warning
    ratio = s_max / s_min
    cond = ratio * ratio
    if not math.isfinite(cond):
        raise NonFiniteSystem(f"condition number {cond} of the system is not finite")
    if ridge_lambda == 0.0 and cond > RANK_DEFICIENT_CONDITION:
        raise RankDeficient(f"condition number {cond:.3e} exceeds 1e12")
    if rank < cols:
        raise RankDeficient(
            f"numerical rank {rank} < {cols} (lambda={ridge_lambda:.3e})"
        )
    omega = omega / scales
    norm = float(np.linalg.norm(system.matrix @ omega - system.rhs))
    if not math.isfinite(norm):
        raise NonFiniteSystem(f"non-finite solve: residual norm {norm}")
    return ParameterEstimate(omega, norm, cond, ridge_lambda)


def solve_ols(system: StackedSystem, normalize: bool = False) -> ParameterEstimate:
    """Minimize ||A omega - b||_2 for a tall, full-column-rank system.

    Raises NonFiniteSystem when an entry or the condition number is not
    finite, and RankDeficient when rows < cols or when the condition number
    of the normal matrix A'A exceeds 1e12. `normalize` rescales columns of A
    to unit norm before solving and rescales the estimate back afterwards.
    """
    if system.cols == 0:
        raise ShapeMismatch("system has no parameter columns")
    if system.rows < system.cols:
        raise RankDeficient(
            f"{system.rows} equations for {system.cols} unknowns (need rows >= cols)"
        )
    return _solve_least_squares(system, 0.0, normalize)


def solve_ridge(
    system: StackedSystem, ridge_lambda: float, normalize: bool = False
) -> ParameterEstimate:
    """Solve (A'A + lambda I) omega = A'b.

    For lambda > 0 the normal matrix is invertible in exact arithmetic and a
    single row suffices; RankDeficient is raised only when lambda is too
    small to give [A; sqrt(lambda) I] full numerical rank. lambda = 0
    delegates to solve_ols.
    """
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be nonnegative")
    if ridge_lambda == 0.0:
        return solve_ols(system, normalize=normalize)
    if system.cols == 0:
        raise ShapeMismatch("system has no parameter columns")
    if system.rows < 1:
        raise ShapeMismatch("ridge solve needs at least one equation")
    return _solve_least_squares(system, ridge_lambda, normalize)


def solve_single_column(system: StackedSystem, ridge_lambda: float = 0.0) -> float:
    """Scalar normal equation sum(a*b) / (sum(a*a) + lambda) for 1-column systems."""
    if system.cols != 1:
        raise ShapeMismatch(f"expected a single column, got {system.cols}")
    a = system.matrix[:, 0]
    denominator = float(a @ a) + ridge_lambda
    if denominator == 0.0:
        raise AllZeroColumn("regressor column is identically zero")
    return float(a @ system.rhs) / denominator


def stack_systems(blocks) -> StackedSystem:
    """Vertically concatenate (matrix, rhs) blocks, preserving order."""
    pairs = [
        (
            np.atleast_2d(np.asarray(matrix, dtype=float)),
            np.atleast_1d(np.asarray(rhs, dtype=float)),
        )
        for matrix, rhs in blocks
    ]
    if not pairs:
        raise ShapeMismatch("need at least one block to stack")
    matrices, vectors = zip(*pairs)
    widths = sorted({matrix.shape[1] for matrix in matrices})
    if len(widths) > 1:
        raise ShapeMismatch(f"blocks have differing column counts {widths}")
    return StackedSystem(np.vstack(matrices), np.concatenate(vectors))


def apply_partition(
    system: StackedSystem, partition: ParameterPartition
) -> StackedSystem:
    """Reduce a system to its unknown columns.

    The known columns' contribution A_known @ known_values is subtracted from
    the right-hand side. With every parameter known the result has zero
    columns and the rhs is the residual vector itself.
    """
    indices = partition.known_indices + partition.unknown_indices
    if sorted(indices) != list(range(system.cols)):
        raise IndexOutOfRange(
            f"partition indices {sorted(indices)} do not cover 0..{system.cols - 1}"
        )
    unknown = list(partition.unknown_indices)
    rhs = system.rhs
    if partition.known_indices:
        known_block = system.matrix[:, list(partition.known_indices)]
        rhs = rhs - known_block @ partition.known_values
    return StackedSystem(system.matrix[:, unknown], rhs)


def recombine_partition(
    partition: ParameterPartition, unknown_estimate: ParameterEstimate
) -> ParameterEstimate:
    """Merge known values and an unknown-block estimate into a full vector."""
    values = np.empty(partition.total)
    values[list(partition.known_indices)] = partition.known_values
    values[list(partition.unknown_indices)] = unknown_estimate.values
    return ParameterEstimate(
        values,
        unknown_estimate.residual_norm,
        unknown_estimate.condition_estimate,
        unknown_estimate.ridge_lambda,
    )


def solve_partitioned(
    system: StackedSystem,
    partition: ParameterPartition,
    ridge_lambda: float = 0.0,
    normalize: bool = False,
) -> ParameterEstimate:
    """apply_partition, solve, recombine in one call."""
    reduced = apply_partition(system, partition)
    if ridge_lambda > 0:
        unknown = solve_ridge(reduced, ridge_lambda, normalize=normalize)
    else:
        unknown = solve_ols(reduced, normalize=normalize)
    return recombine_partition(partition, unknown)
