"""Closed-form least-squares machinery.

Solvers
-------
- solve_batch: B systems of one shape in one pass, one verdict per system
- solve_ols: ordinary least squares, min ||A omega - b||_2
- solve_ridge: Tikhonov-regularized least squares, (A'A + lambda I)^-1 A'b

Implementation
--------------
solve_ols and solve_ridge are the batch-of-one case of solve_batch, so every
OLS and ridge system takes one path. A system with a NaN or Inf entry (or,
under normalize, a non-finite column norm) is rejected with NonFiniteSystem
and reaches LAPACK only as zeros. Columns are optionally scaled to unit
norm, and a ridge system is stacked as [A; sqrt(lambda) I] over [b; 0]. One
QR factorization of the augmented stack [A | b] (np.linalg.qr, mode "r";
Golub & Van Loan, Matrix Computations, sec. 5.3) gives the triangle R and
Q'b, and omega solves R omega = Q'b. The singular values of R are those of
A, so the condition number on the normal-matrix scale, (s_max / s_min)^2, is
exact, and the numerical rank follows np.linalg.lstsq's rule (singular
values above eps * max(rows, cols) * s_max). The residual norm is
||A omega - b|| of the unscaled, unstacked system. A condition number that
overflows means the system does too, and raises NonFiniteSystem; a zero
singular value, a condition number above 1e12 (OLS) or a numerical rank
below the column count is declared rank deficient. A batch gives these
verdicts per system, in this order, so one failed system fails no other.

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
_EPS = float(np.finfo(float).eps)


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

    def combine(self, unknown_values) -> np.ndarray:
        """Full parameter vectors (..., total) from unknown values (..., n_unknown)."""
        unknown_values = np.asarray(unknown_values, dtype=float)
        values = np.empty(unknown_values.shape[:-1] + (self.total,))
        values[..., list(self.known_indices)] = self.known_values
        values[..., list(self.unknown_indices)] = unknown_values
        return values


@dataclass(frozen=True)
class ParameterEstimate:
    """Estimated parameter vector with solver diagnostics."""

    values: np.ndarray
    residual_norm: float
    condition_estimate: float
    ridge_lambda: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def _check_ridge_lambda(ridge_lambda: float) -> None:
    if not 0.0 <= ridge_lambda < math.inf:
        raise ValueError(f"ridge_lambda must be finite and nonnegative: {ridge_lambda}")


@dataclass(frozen=True)
class BatchSolution:
    """Solutions of a stack of systems with one verdict per system.

    values (B, k), residual_norms (B,) and conditions (B,) are NaN for a
    system whose verdict in `errors` is an EstimationError; a solved system
    has verdict None.
    """

    values: np.ndarray
    residual_norms: np.ndarray
    conditions: np.ndarray
    errors: list
    ridge_lambda: float

    def estimate(self, index: int) -> ParameterEstimate:
        """The estimate of system `index`; raises its verdict if it failed."""
        error = self.errors[index]
        if error is not None:
            raise error
        return ParameterEstimate(
            self.values[index],
            float(self.residual_norms[index]),
            float(self.conditions[index]),
            self.ridge_lambda,
        )


def _shape_error(rows: int, cols: int, ridge_lambda: float):
    if cols == 0:
        return ShapeMismatch("system has no parameter columns")
    if ridge_lambda == 0.0 and rows < cols:
        return RankDeficient(f"{rows} equations for {cols} unknowns (need rows >= cols)")
    if rows < 1:
        return ShapeMismatch("ridge solve needs at least one equation")
    return None


def _verdict(
    matrix,
    rhs,
    norms_finite: bool,
    singular,
    residual_norm,
    ridge_lambda: float,
    rows: int,
):
    """The error of one system that solve_batch flagged, checks in their order.

    `norms_finite` tells whether its column norms are finite (True without
    normalize), `singular` holds the singular values of its scaled (and, for
    ridge, stacked) matrix of `rows` rows, and `residual_norm` is the
    unscaled ||A omega - b||; a value is not read once an earlier check fails.
    """
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        return NonFiniteSystem("the system has a non-finite entry")
    if not norms_finite:
        return NonFiniteSystem("a column norm of the system is not finite")
    s_max, s_min = float(singular[0]), float(singular[-1])
    # an exactly singular system is rank deficient, not overflowing
    if s_min == 0.0:
        return RankDeficient("zero singular value")
    # Python floats overflow to inf without a numpy warning
    ratio = s_max / s_min
    cond = ratio * ratio
    if not math.isfinite(cond):
        return NonFiniteSystem(f"condition number {cond} of the system is not finite")
    if ridge_lambda == 0.0 and cond > RANK_DEFICIENT_CONDITION:
        return RankDeficient(f"condition number {cond:.3e} exceeds 1e12")
    # the numerical rank np.linalg.lstsq reports with rcond=None
    cols = len(singular)
    rank = int(np.count_nonzero(singular > _EPS * max(rows, cols) * s_max))
    if rank < cols:
        return RankDeficient(
            f"numerical rank {rank} < {cols} (lambda={ridge_lambda:.3e})"
        )
    return NonFiniteSystem(f"non-finite solve: residual norm {float(residual_norm)}")


def _unsolved(cols: int, errors: list, ridge_lambda: float) -> BatchSolution:
    count = len(errors)
    return BatchSolution(
        np.full((count, cols), np.nan),
        np.full(count, np.nan),
        np.full(count, np.nan),
        errors,
        ridge_lambda,
    )


def solve_batch(
    matrices, rhs, ridge_lambda: float = 0.0, normalize: bool = False
) -> BatchSolution:
    """Least-squares solutions of B systems of one shape: matrices (B, m, k), rhs (B, m).

    Each system gets the verdict that solve_ols (ridge_lambda = 0) or
    solve_ridge raises for it alone, and its values equal that batch-of-one
    call bit for bit. A system with a non-finite entry or column norm is
    replaced by zeros before any LAPACK call.
    """
    _check_ridge_lambda(ridge_lambda)
    matrices = np.asarray(matrices, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    count, rows, cols = matrices.shape
    if rhs.shape != (count, rows):
        raise ShapeMismatch(f"rhs of shape {rhs.shape} for matrices {matrices.shape}")
    if _shape_error(rows, cols, ridge_lambda) is not None:
        errors = [_shape_error(rows, cols, ridge_lambda) for _ in range(count)]
        return _unsolved(cols, errors, ridge_lambda)

    stacked = rows + cols if ridge_lambda > 0 else rows
    augmented = np.zeros((count, stacked, cols + 1))
    augmented[:, :rows, :cols] = matrices
    augmented[:, :rows, cols] = rhs
    screened = np.isfinite(augmented).all(axis=(1, 2))
    norms_finite = None
    if normalize:
        with np.errstate(over="ignore"):
            scales = np.linalg.norm(matrices, axis=1)
        norms_finite = np.isfinite(scales).all(axis=1)
        screened &= norms_finite
        # zero columns are left unscaled so the rank check still sees them
        scales[~screened[:, None] | (scales == 0.0)] = 1.0
        augmented[:, :rows, :cols] /= scales[:, None, :]

    def verdicts(failed, singular=None, residual_norms=None):
        errors = [None] * count
        for i in np.flatnonzero(failed):
            errors[i] = _verdict(
                matrices[i],
                rhs[i],
                norms_finite is None or norms_finite[i],
                None if singular is None else singular[i],
                None if residual_norms is None else residual_norms[i],
                ridge_lambda,
                stacked,
            )
        return errors

    if not screened.all():
        if not screened.any():
            return _unsolved(cols, verdicts(~screened), ridge_lambda)
        # systems that fail the screen reach LAPACK as zeros
        augmented[~screened] = 0.0
    # one QR of the augmented [A | b] (ridge: [A; sqrt(lambda) I] over
    # [b; 0]) gives R and Q'b; the singular values of R are those of A
    if ridge_lambda > 0:
        augmented[:, rows:, :cols] = math.sqrt(ridge_lambda) * np.eye(cols)
    factor = np.linalg.qr(augmented, mode="r")
    triangle = factor[:, :cols, :cols]
    singular = np.linalg.svd(triangle, compute_uv=False)
    s_max, s_min = singular[:, 0], singular[:, -1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = s_max / s_min
        conditions = ratio * ratio
    # _verdict's checks as masks: full numerical rank and a finite condition
    # number, at most 1e12 without ridge
    if ridge_lambda == 0.0:
        well_posed = conditions <= RANK_DEFICIENT_CONDITION
    else:
        well_posed = conditions < math.inf
    solvable = screened & well_posed & (s_min > _EPS * max(stacked, cols) * s_max)
    every = bool(solvable.all())
    if not every:
        triangle = np.where(solvable[:, None, None], triangle, np.eye(cols))
    values = np.linalg.solve(triangle, factor[:, :cols, cols:])[..., 0]
    if normalize:
        values /= scales
    if not every:
        values[~solvable] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = (matrices @ values[..., None])[..., 0] - rhs
        residual_norms = np.sqrt((residuals * residuals).sum(axis=1))
    solved = solvable & np.isfinite(residual_norms)
    errors = [None] * count
    if not solved.all():
        errors = verdicts(~solved, singular, residual_norms)
        for array in (values, residual_norms, conditions):
            array[~solved] = np.nan
    return BatchSolution(values, residual_norms, conditions, errors, ridge_lambda)


def solve_ols(system: StackedSystem, normalize: bool = False) -> ParameterEstimate:
    """Minimize ||A omega - b||_2 for a tall, full-column-rank system.

    Raises NonFiniteSystem when an entry or the condition number is not
    finite, and RankDeficient when rows < cols or when the condition number
    of the normal matrix A'A exceeds 1e12. `normalize` rescales columns of A
    to unit norm before solving and rescales the estimate back afterwards.
    The batch-of-one case of solve_batch.
    """
    return solve_ridge(system, 0.0, normalize=normalize)


def solve_ridge(
    system: StackedSystem, ridge_lambda: float, normalize: bool = False
) -> ParameterEstimate:
    """Solve (A'A + lambda I) omega = A'b.

    For lambda > 0 the normal matrix is invertible in exact arithmetic and a
    single row suffices; RankDeficient is raised only when lambda is too
    small to give [A; sqrt(lambda) I] full numerical rank. lambda = 0 is
    solve_ols; a negative or non-finite lambda raises ValueError.
    """
    batch = solve_batch(system.matrix[None], system.rhs[None], ridge_lambda, normalize)
    return batch.estimate(0)


def solve_single_column(system: StackedSystem, ridge_lambda: float = 0.0) -> float:
    """Scalar normal equation sum(a*b) / (sum(a*a) + lambda) for 1-column systems."""
    if system.cols != 1:
        raise ShapeMismatch(f"expected a single column, got {system.cols}")
    _check_ridge_lambda(ridge_lambda)
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
    return ParameterEstimate(
        partition.combine(unknown_estimate.values),
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
    unknown = solve_ridge(reduced, ridge_lambda, normalize=normalize)
    return recombine_partition(partition, unknown)
