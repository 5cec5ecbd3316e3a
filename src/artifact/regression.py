"""Closed-form least-squares machinery.

Solvers
-------
- solve_ols: plain ordinary least squares via the normal equations
- solve_ridge: Tikhonov-regularized least squares, (A'A + lambda I)^-1 A'b

Implementation
--------------
Parameter counts here are tiny (k <= 16 covers every supported model), so
the normal equations are formed explicitly and factorized with Cholesky.
The condition of the normal matrix is estimated from the squared ratio of
the extreme factor diagonals; this is a cheap proxy, not an exact condition
number. When the proxy exceeds 1e8 the solve falls back to a QR
factorization of the raw matrix, and above 1e12 the system is declared rank
deficient. A solve whose residual norm or condition proxy is not finite (a
NaN or Inf entry, or a normal matrix that overflows) raises NonFiniteSystem
instead of returning NaN.

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

QR_FALLBACK_CONDITION = 1e8
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
    scales = np.linalg.norm(matrix, axis=0)
    if not np.all(np.isfinite(scales)):
        raise NonFiniteSystem("a column norm of the system is not finite")
    scales[scales == 0.0] = 1.0
    return scales


def _reject_non_finite(normal: np.ndarray) -> None:
    # some LAPACK builds stop Cholesky at a NaN pivot, others let it through
    # to the residual check; both must raise the same error
    if not np.isfinite(normal).all():
        raise NonFiniteSystem("the normal matrix of the system is not finite")


def _estimate_from_solution(
    system: StackedSystem, omega: np.ndarray, cond: float, lam: float
) -> ParameterEstimate:
    residual = system.matrix @ omega - system.rhs
    norm = float(np.linalg.norm(residual))
    # a NaN or Inf anywhere in the system, or an overflowing normal matrix,
    # reaches one of these two scalars
    if not (math.isfinite(norm) and math.isfinite(cond)):
        raise NonFiniteSystem(
            f"non-finite solve: residual norm {norm}, condition estimate {cond}"
        )
    return ParameterEstimate(omega, norm, cond, lam)


def _solve_qr(system: StackedSystem, normalize: bool) -> ParameterEstimate:
    matrix = system.matrix
    scales = _column_scales(matrix) if normalize else np.ones(system.cols)
    q, r = np.linalg.qr(matrix / scales)
    diag = np.abs(np.diag(r))
    if diag.min() == 0.0:
        raise RankDeficient("zero pivot in orthogonal factorization")
    # squared ratio keeps the proxy on the normal-matrix scale
    cond = float((diag.max() / diag.min()) ** 2)
    if cond > RANK_DEFICIENT_CONDITION:
        raise RankDeficient(f"condition estimate {cond:.3e} exceeds 1e12")
    omega = np.linalg.solve(r, q.T @ system.rhs) / scales
    return _estimate_from_solution(system, omega, cond, 0.0)


def solve_ols(system: StackedSystem, normalize: bool = False) -> ParameterEstimate:
    """Minimize ||A omega - b||_2 for a tall, full-column-rank system.

    Raises RankDeficient when rows < cols or when the condition proxy of the
    normal matrix exceeds 1e12. `normalize` rescales columns of A to unit
    norm before solving and rescales the estimate back afterwards.
    """
    if system.cols == 0:
        raise ShapeMismatch("system has no parameter columns")
    if system.rows < system.cols:
        raise RankDeficient(
            f"{system.rows} equations for {system.cols} unknowns (need rows >= cols)"
        )
    scales = _column_scales(system.matrix) if normalize else np.ones(system.cols)
    matrix = system.matrix / scales
    normal = matrix.T @ matrix
    try:
        factor = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError:
        _reject_non_finite(normal)
        return _solve_qr(system, normalize)
    diag = np.diag(factor)
    cond = float((diag.max() / diag.min()) ** 2)
    if cond > RANK_DEFICIENT_CONDITION:
        raise RankDeficient(f"condition estimate {cond:.3e} exceeds 1e12")
    if cond > QR_FALLBACK_CONDITION:
        return _solve_qr(system, normalize)
    aty = matrix.T @ system.rhs
    omega = np.linalg.solve(factor.T, np.linalg.solve(factor, aty)) / scales
    return _estimate_from_solution(system, omega, cond, 0.0)


def solve_ridge(
    system: StackedSystem, ridge_lambda: float, normalize: bool = False
) -> ParameterEstimate:
    """Solve (A'A + lambda I) omega = A'b.

    For lambda > 0 the normal matrix is invertible in exact arithmetic and a
    single row suffices; RankDeficient is raised only when lambda is too
    small to make it numerically positive definite. lambda = 0 delegates to
    solve_ols.
    """
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be nonnegative")
    if ridge_lambda == 0.0:
        return solve_ols(system, normalize=normalize)
    if system.cols == 0:
        raise ShapeMismatch("system has no parameter columns")
    if system.rows < 1:
        raise ShapeMismatch("ridge solve needs at least one equation")
    scales = _column_scales(system.matrix) if normalize else np.ones(system.cols)
    matrix = system.matrix / scales
    normal = matrix.T @ matrix + ridge_lambda * np.eye(system.cols)
    try:
        factor = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError:
        _reject_non_finite(normal)
        raise RankDeficient(
            f"ridge normal matrix is not positive definite (lambda={ridge_lambda:.3e})"
        ) from None
    diag = np.diag(factor)
    cond = float((diag.max() / diag.min()) ** 2)
    aty = matrix.T @ system.rhs
    omega = np.linalg.solve(factor.T, np.linalg.solve(factor, aty)) / scales
    return _estimate_from_solution(system, omega, cond, ridge_lambda)


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
    blocks = list(blocks)
    if not blocks:
        raise ShapeMismatch("need at least one block to stack")
    matrices = []
    vectors = []
    cols = None
    for matrix, rhs in blocks:
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if cols is None:
            cols = matrix.shape[1]
        elif matrix.shape[1] != cols:
            raise ShapeMismatch(
                f"block has {matrix.shape[1]} columns, expected {cols}"
            )
        matrices.append(matrix)
        vectors.append(rhs)
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
