"""Closed-form least-squares machinery.

Solvers
-------
- solve_batch: B systems of one shape in one pass, one verdict per system
- solve_windows: every window of consecutive per-sample blocks, from Gram sums
- solve_ols: ordinary least squares, min ||A omega - b||_2
- solve_ridge: Tikhonov-regularized least squares, (A'A + lambda I)^-1 A'b
- solve_single_column: a'b / (a'a + lambda) of one column, from column_sums
  and solve_column_sums, which the Reynolds fits (vorticity) call directly

Implementation
--------------
solve_ols and solve_ridge are the batch-of-one case of solve_batch, so every
OLS and ridge system takes one path. Columns are optionally scaled to unit
norm, and a ridge system is stacked as [A; sqrt(lambda) I] over [b; 0]. One
QR factorization of the augmented stack [A | b] (np.linalg.qr, mode "r";
Golub & Van Loan, Matrix Computations, sec. 5.3) gives the triangle R and
Q'b, and omega solves R omega = Q'b. The singular values of R are those of
A, so the condition number on the normal-matrix scale, (s_max / s_min)^2, is
exact, and the numerical rank follows np.linalg.lstsq's rule (singular
values above eps * max(rows, cols) * s_max). The residual norm is
||A omega - b|| of the unscaled, unstacked system. Verdicts are decided in
one place, the ordered check list of solve_batch (shape, non-finite entries,
non-finite QR factor, singular values, condition number, rank, residual
norm): a system gets the error of its first failing check, a failed system
fails no other, and one with non-finite entries meets LAPACK as zeros.

solve_windows solves every window from its summed per-sample B'B and B'r in
one batched eigvalsh and solve, and sends to solve_batch each window whose
normal matrix is not finite, not positive definite or above GRAM_CONDITION_CUT.
Each block's B'B and B'r share one buffer, so summing a window takes one add
per block. A certified window's residual norm reads its rows in place, from a
strided view of the blocks; only the windows sent to QR have their rows copied.

Stacking
--------
Per-sample residual blocks are concatenated vertically into one tall system
(stack_systems). Known parameters are eliminated before solving by moving
their contribution to the right-hand side: ParameterPartition.reduce does it
for blocks with any leading axes, and apply_partition for one StackedSystem.
ParameterPartition.combine puts the known values back, so callers always see
the full parameter vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    AllZeroColumn,
    IndexOutOfRange,
    NonFiniteSystem,
    RankDeficient,
    ShapeMismatch,
)

RANK_DEFICIENT_CONDITION = 1e12
_EPS = float(np.finfo(float).eps)

# solve_windows reads its windows' rows in place and takes their residual norms,
# and their QR fallbacks, in chunks of windows whose rows hold at most this many
# float64 values (256 KiB), so the residual temporaries and the rows that
# solve_batch copies stay small
SOLVE_BLOCK_VALUES = 1 << 15

# a window whose normal matrix has a condition number above this is solved by
# QR (solve_batch) instead of its Gram sums: the normal equations lose about
# condition * eps of relative accuracy, 2.2e-10 at the cut
GRAM_CONDITION_CUT = 1e6


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

    def reduce(self, matrices, rhs):
        """Systems (..., m, total), (..., m) reduced to their unknown columns.

        The rhs loses the known columns' share A_known @ known_values; with
        every parameter known it is the residual vector itself.
        """
        matrices = np.asarray(matrices, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        cols = matrices.shape[-1]
        indices = sorted(self.known_indices + self.unknown_indices)
        if indices != list(range(cols)):
            raise IndexOutOfRange(f"partition indices {indices} do not cover 0..{cols - 1}")
        if rhs.shape != matrices.shape[:-1]:
            raise ShapeMismatch(f"rhs of shape {rhs.shape} for matrices {matrices.shape}")
        if self.known_indices:
            known = matrices[..., list(self.known_indices)]
            # a non-finite entry is the solver's verdict (NonFiniteSystem), not a warning
            with np.errstate(all="ignore"):
                share = known.reshape(-1, len(self.known_indices)) @ self.known_values
                rhs = rhs - share.reshape(rhs.shape)
        return matrices[..., list(self.unknown_indices)], rhs

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


def check_ridge_lambda(ridge_lambda: float) -> None:
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


def solve_batch(
    matrices, rhs, ridge_lambda: float = 0.0, normalize: bool = False
) -> BatchSolution:
    """Least-squares solutions of B systems of one shape: matrices (B, m, k), rhs (B, m).

    Each system gets the verdict that solve_ols (ridge_lambda = 0) or
    solve_ridge raises for it alone, and its values equal that batch-of-one
    call bit for bit. A system with a non-finite entry or column norm is
    replaced by zeros before any LAPACK call, and one whose QR factor
    overflows by the identity before the SVD.
    """
    check_ridge_lambda(ridge_lambda)
    matrices = np.asarray(matrices, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrices.ndim != 3:
        raise ShapeMismatch(f"matrices must be (B, m, k), got shape {matrices.shape}")
    count, rows, cols = matrices.shape
    if rhs.shape != (count, rows):
        raise ShapeMismatch(f"rhs of shape {rhs.shape} for matrices {matrices.shape}")
    stacked = rows + cols if ridge_lambda > 0 else rows
    augmented = np.zeros((count, stacked, cols + 1))
    augmented[:, :rows, :cols] = matrices
    augmented[:, :rows, cols] = rhs
    # every verdict as (passed mask, error type, message), in the order they
    # are decided: a system that does not pass them all gets the error of
    # the first entry it fails, with the message's fields read at that system
    checks = [
        (cols > 0, ShapeMismatch, "system has no parameter columns"),
        (
            ridge_lambda > 0.0 or rows >= cols,
            RankDeficient,
            "{rows} equations for {cols} unknowns (need rows >= cols)",
        ),
        (rows > 0, ShapeMismatch, "ridge solve needs at least one equation"),
        (
            np.logical_and.reduce(np.isfinite(augmented), axis=(1, 2)),
            NonFiniteSystem,
            "the system has a non-finite entry",
        ),
    ]
    if normalize:
        with np.errstate(over="ignore"):
            scales = np.linalg.norm(matrices, axis=1)
        message = "a column norm of the system is not finite"
        checks.append((np.isfinite(scales).all(axis=1), NonFiniteSystem, message))
    passed = True
    for mask, _, _ in checks:
        passed = passed & mask
    screened = np.count_nonzero(passed)
    if not screened:
        # nothing passed the screen: no LAPACK call and no singular values;
        # every value is set to NaN below
        values, singular = np.empty((count, cols)), np.empty((count, 0))
        residual_norms, conditions = np.empty(count), np.empty(count)
        tolerance = np.empty(count)
    else:
        if normalize:
            # zero columns are left unscaled so the rank check still sees them
            scales[~passed[:, None] | (scales == 0.0)] = 1.0
            augmented[:, :rows, :cols] /= scales[:, None, :]
        if screened < count:
            # systems that fail the screen reach LAPACK as zeros
            augmented[~passed] = 0.0
        # one QR of the augmented [A | b] (ridge: [A; sqrt(lambda) I] over
        # [b; 0]) gives R and Q'b; the singular values of R are those of A
        if ridge_lambda > 0:
            augmented[:, rows:, :cols] = math.sqrt(ridge_lambda) * np.eye(cols)
        factor = np.linalg.qr(augmented, mode="r")
        triangle = factor[:, :cols, :cols]
        # finite entries can still overflow a column norm in the factorization
        factored = np.logical_and.reduce(np.isfinite(triangle), axis=(1, 2))
        if not factored.all():
            triangle = np.where(factored[:, None, None], triangle, np.eye(cols))
        singular = np.linalg.svd(triangle, compute_uv=False)
        s_max, s_min = singular[:, 0], singular[:, -1]
        # the checks report overflows and divisions by zero, not numpy warnings
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = s_max / s_min
            conditions = ratio * ratio
            # np.linalg.lstsq's numerical rank counts singular values above this
            tolerance = _EPS * max(stacked, cols) * s_max
            solve_checks = [
                (factored, NonFiniteSystem, "the system's QR factor is not finite"),
                # an exactly singular system is rank deficient, not overflowing
                (s_min != 0.0, RankDeficient, "zero singular value"),
                (
                    np.isfinite(conditions),
                    NonFiniteSystem,
                    "condition number {condition} of the system is not finite",
                ),
                (
                    ridge_lambda > 0.0 or conditions <= RANK_DEFICIENT_CONDITION,
                    RankDeficient,
                    "condition number {condition:.3e} exceeds 1e12",
                ),
                (
                    s_min > tolerance,
                    RankDeficient,
                    "numerical rank {rank} < {cols} (lambda={ridge_lambda:.3e})",
                ),
            ]
            for mask, _, _ in solve_checks:
                passed = passed & mask
            if np.count_nonzero(passed) < count:
                triangle = np.where(passed[:, None, None], triangle, np.eye(cols))
            values = np.linalg.solve(triangle, factor[:, :cols, cols:])[..., 0]
            if normalize:
                values /= scales
            residual_norms = _residual_norms(matrices, values, rhs)
        finite = np.isfinite(residual_norms)
        message = "non-finite solve: residual norm {residual}"
        checks += solve_checks + [(finite, NonFiniteSystem, message)]
        passed = passed & finite
    errors = [None] * count
    if np.count_nonzero(passed) < count:
        failed = ~passed
        first = np.argmin(np.broadcast_arrays(*(mask for mask, _, _ in checks)), axis=0)
        fields = {"rows": rows, "cols": cols, "ridge_lambda": ridge_lambda}
        for i in np.flatnonzero(failed):
            _, kind, message = checks[first[i]]
            fields["condition"] = conditions.item(i)
            fields["rank"] = np.count_nonzero(singular[i] > tolerance[i])
            fields["residual"] = residual_norms.item(i)
            errors[i] = kind(message.format(**fields))
        for array in (values, residual_norms, conditions):
            array[failed] = np.nan
    return BatchSolution(values, residual_norms, conditions, errors, ridge_lambda)


def _residual_norms(matrices, values, rhs) -> np.ndarray:
    """||A omega - b|| of each system: matrices (B, m, k), values (B, k), rhs (B, m)."""
    residuals = (matrices @ values[..., None])[..., 0] - rhs
    return np.sqrt(np.add.reduce(residuals * residuals, axis=1))


def _window_rows(matrices, rhs, length: int):
    """Views of the blocks of every window of `length` consecutive blocks.

    matrices (count, s, k) and rhs (count, s) give (count - length + 1,
    length, s, k) and (count - length + 1, length, s), read in place: window
    j holds blocks j .. j + length - 1. A window's rows keep the blocks'
    memory layout, which solve_batch's residual norms depend on bit for bit;
    a sliding view over the blocks' flattened rows would copy blocks whose
    sample and state axes do not merge (Fortran order) and lose that layout.
    """
    windows = matrices.shape[0] - length + 1
    (block, row, col), (entry, target) = matrices.strides, rhs.strides
    # each window starts one block after the one before it
    return (
        as_strided(
            matrices, (windows, length) + matrices.shape[1:], (block, block, row, col),
            writeable=False,
        ),
        as_strided(rhs, (windows, length, rhs.shape[1]), (entry, entry, target), writeable=False),
    )


def solve_windows(blocks, targets, width: int, ridge_lambda: float = 0.0, normalize: bool = False):
    """Least-squares fit of every window of `width` consecutive blocks.

    blocks (count, s, k) and targets (count, s) are per-sample rows, padded
    with one empty block at each end; the window ending at padded block i
    holds blocks max(i - width, 0) .. min(i, count) - 1, for i = width - 1
    .. count + 1 less the empty windows (width 1's first and last). A window
    is solved from its blocks' B'B and B'r summed left to right, so it
    depends on its own blocks only; a window whose normal matrix is not
    finite, not positive definite or above GRAM_CONDITION_CUT, or whose
    values or residual norm are not finite, gets solve_batch's fit and
    verdict on its rows. Inputs are checked as solve_batch checks them.
    Returns the ends and a BatchSolution of their windows' fits.
    """
    check_ridge_lambda(ridge_lambda)
    blocks, targets = np.asarray(blocks, dtype=float), np.asarray(targets, dtype=float)
    if blocks.ndim != 3 or targets.shape != blocks.shape[:2] or not blocks.shape[0]:
        raise ShapeMismatch(f"blocks {blocks.shape} and targets {targets.shape} for windows")
    count, states, k = blocks.shape
    if not 1 <= width <= count + 2:
        raise ValueError(f"window width {width} for {count} blocks is not 1 .. count + 2")
    ends = np.arange(width - 1, count + 2)
    if width == 1:  # the two padding blocks alone are no window
        ends = ends[1:-1]
    windows = len(ends)
    # one zero block at each end makes every window `width` padded blocks,
    # the one ending at i from i - width + 1: a trimmed window adds exact zeros
    padded, padded_targets = np.zeros((count + 2, states, k)), np.zeros((count + 2, states))
    padded[1:-1], padded_targets[1:-1] = blocks, targets
    first = ends[0] - width + 1
    identity = np.eye(k)
    values, residual_norms = np.full((windows, k), np.nan), np.full(windows, np.nan)
    errors = [None] * windows
    # overflows and zero pivots are not warned about: such a window goes to QR
    with np.errstate(all="ignore"):
        # each block's [B'B | B'r] in one buffer, so a window's sums take one add per block
        sums = np.empty((count + 2, k, k + 1))
        np.einsum("jsa,jsb->jab", padded, padded, out=sums[:, :, :k])
        np.einsum("jsa,js->ja", padded, padded_targets, out=sums[:, :, k])
        window_sums = sums[first : first + windows].copy()
        for offset in range(first + 1, first + width):
            window_sums += sums[offset : offset + windows]
        gram, moment = window_sums[:, :, :k], window_sums[:, :, k]
        if normalize:
            # solve_batch's unit column norms; a zero column stays unscaled
            scales = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
            scales[scales == 0.0] = 1.0
            gram /= scales[:, :, None] * scales[:, None, :]
            moment /= scales
        # added at lambda = 0 too, where it turns a -0.0 entry into +0.0
        gram += ridge_lambda * identity
        finite = np.isfinite(window_sums).all(axis=(1, 2))
        if np.count_nonzero(finite) < windows:
            gram[~finite] = identity
        eigenvalues = np.linalg.eigvalsh(gram)
        # the condition number on solve_batch's normal-matrix scale
        conditions = eigenvalues[:, -1] / eigenvalues[:, 0]
        certified = finite & (eigenvalues[:, 0] > 0.0) & (conditions <= GRAM_CONDITION_CUT)
        solved = np.count_nonzero(certified)
        if solved:  # the screen certified a window: solve, then its residual rows
            if solved < windows:
                gram[~certified] = identity
            values = np.linalg.solve(gram, moment[..., None])[..., 0]
            if normalize:
                values /= scales
            # every window's rows, read in place in slices of at most
            # SOLVE_BLOCK_VALUES values
            rows, rhs = _window_rows(padded[first:], padded_targets[first:], width)
            step = max(1, SOLVE_BLOCK_VALUES // (width * states * (k + 1)))
            for start in range(0, windows, step):
                # width 1's view holds one window more, the padding's last
                part = slice(start, min(start + step, windows))
                # padded is contiguous, so merging a window's blocks copies nothing
                matrices = rows[part].reshape(-1, width * states, k)
                residual_norms[part] = _residual_norms(
                    matrices, values[part], rhs[part].reshape(-1, width * states)
                )
            if solved < windows:
                values[~certified] = residual_norms[~certified] = np.nan
    failed = np.flatnonzero(~(np.isfinite(residual_norms) & np.isfinite(values).all(axis=1)))
    if not len(failed):
        return ends, BatchSolution(values, residual_norms, conditions, errors, ridge_lambda)
    # the failed windows go to QR without the padding, in runs of one length
    starts = np.maximum(ends - width, 0)
    lengths = np.minimum(ends, count) - starts
    for run in np.split(failed, np.flatnonzero(np.diff(lengths[failed])) + 1):
        length = lengths[run[0]]
        rows, rhs = _window_rows(blocks, targets, length)
        step = max(1, SOLVE_BLOCK_VALUES // (length * states * (k + 1)))
        for start in range(0, len(run), step):
            picked = run[start : start + step]
            matrices = rows[starts[picked]].reshape(-1, length * states, k)
            solution = solve_batch(
                matrices, rhs[starts[picked]].reshape(-1, length * states), ridge_lambda, normalize
            )
            values[picked] = solution.values
            residual_norms[picked] = solution.residual_norms
            conditions[picked] = solution.conditions
            for window, error in zip(picked, solution.errors):
                errors[window] = error
    return ends, BatchSolution(values, residual_norms, conditions, errors, ridge_lambda)


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
    """Scalar normal equation sum(a*b) / (sum(a*a) + lambda) for 1-column systems.

    Raises NonFiniteSystem when either sum is not finite.
    """
    if system.cols != 1:
        raise ShapeMismatch(f"expected a single column, got {system.cols}")
    with np.errstate(all="ignore"):  # an overflow is a non-finite sum
        return solve_column_sums(*column_sums(system.matrix, system.rhs), ridge_lambda)


def column_sums(regressor, target) -> tuple:
    """(0.0 + a'a, 0.0 + a'b) of a one-column regressor a and target b, one ddot
    each; an overflow warns unless the caller runs this under np.errstate."""
    a = regressor.reshape(-1)
    return 0.0 + float(a @ a), 0.0 + float(a @ target.reshape(-1))


def solve_column_sums(squares: float, products: float, ridge_lambda: float) -> float:
    """products / (squares + lambda) from the sums a'a and a'b of one column."""
    check_ridge_lambda(ridge_lambda)
    if not (math.isfinite(squares) and math.isfinite(products)):
        raise NonFiniteSystem(f"sums a'a = {squares}, a'b = {products} are not finite")
    if squares + ridge_lambda == 0.0:
        raise AllZeroColumn("regressor column is identically zero")
    return products / (squares + ridge_lambda)


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
    """Reduce a system to its unknown columns (ParameterPartition.reduce)."""
    return StackedSystem(*partition.reduce(system.matrix, system.rhs))


def solve_partitioned(
    system: StackedSystem,
    partition: ParameterPartition,
    ridge_lambda: float = 0.0,
    normalize: bool = False,
) -> ParameterEstimate:
    """apply_partition, solve, and merge the known values back in (combine)."""
    reduced = apply_partition(system, partition)
    unknown = solve_ridge(reduced, ridge_lambda, normalize=normalize)
    return replace(unknown, values=partition.combine(unknown.values))
