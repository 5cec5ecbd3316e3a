"""End-to-end estimation drivers.

Builds stacked regression systems from simulated or observed time series and
solves them with the regression module, for constant or per-day parameter
vectors (solve_windows fits the days' windows). Also houses the noise
injection scheme, error metrics, the randomized parameter sweep, and the
subsample/noise reproduction table.

Derivative modes
----------------
One private function, _formulate, turns series of shape (..., T, n) on one
time axis into per-sample blocks (matrices and right-hand sides), and every
estimator builds its rows there: assemble_from_series picks its window's
blocks out of the window's span, estimate_time_varying slices each day's
blocks out of one formulation, run_sweep formulates a chunk of draws per
call and subsample_noise_table all noisy copies of a subsample in one call.
Its right-hand sides are differentiation.time_derivative's targets, which
subsample_noise_table also reads directly for its clean subsamples. It runs
with numpy's warnings off, so a non-finite feature reaches the solver's
NonFiniteSystem verdict.

"interior" (default): the integral identity
x_{i+1} - x_{i-1} = integral of A(x; t) omega over [t_{i-1}, t_{i+1}],
divided by the span. The right-hand side is the central difference; the
matrix is the Simpson-weighted mean of A at samples i-1, i and i+1, with
weights (1, 4, 1)/6 on a uniform grid and the general three-point Simpson
weights otherwise. Endpoints are dropped. The weights are applied to the
model's (m, F) features, which are then multiplied by its coefficient table
once (models.py).
"full": derivative at every sample of the formulated span (central inside,
first-order one-sided at the two span ends), paired with A at that sample.
The published constant-recovery numbers for the epidemic models were
produced with "full" windows starting at the first sample.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import regression
from .differentiation import TimeSeries, time_derivative
from .errors import (
    EstimationError,
    RankDeficient,
    ShapeMismatch,
    TooFewPoints,
    UnderDetermined,
)
from .integrator import SimulationConfig, simulate_draws, time_grid
from .models import ParameterLinearModel, check_states, library_features, matrices_from_features
from .regression import (
    ParameterEstimate,
    ParameterPartition,
    StackedSystem,
    check_ridge_lambda,
    solve_partitioned,
    solve_windows,
)

SWEEP_THRESHOLDS = (1.0, 0.5, 0.1, 0.05, 0.01)

# run_sweep integrates draws in blocks of at most this many state values
# (8 MiB of float64), so its memory does not grow with sample_count
SWEEP_BLOCK_VALUES = 1 << 20


@dataclass(frozen=True)
class EstimationWindow:
    """Integer sample indices, stacked in their given order, for one estimate."""

    indices: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices)
        if indices.ndim != 1 or indices.size == 0:
            raise ShapeMismatch("window needs a non-empty 1-D index set")
        if indices.dtype.kind not in "iu":  # a float is truncated, a bool is 0 or 1
            raise ShapeMismatch(f"window indices must be integers, got {indices.dtype}")
        object.__setattr__(self, "indices", indices.astype(int, copy=False))

    @classmethod
    def interior(cls, series: TimeSeries) -> "EstimationWindow":
        """Every index with valid central-difference neighbors."""
        if len(series) < 3:
            raise TooFewPoints("series too short for any interior window")
        return cls(np.arange(1, len(series) - 1))

    @classmethod
    def span(cls, start: int, stop: int) -> "EstimationWindow":
        """Inclusive index range start..stop."""
        return cls(np.arange(start, stop + 1))


@dataclass(frozen=True)
class NoiseSpec:
    epsilon: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and nonnegative")


@dataclass(frozen=True)
class SweepSpec:
    """Randomized parameter sweep over per-unknown closed intervals."""

    domain: tuple
    sample_count: int
    fixed: ParameterPartition
    seed: int = 0

    def __post_init__(self):
        domain = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        for lo, hi in domain:
            if not math.isfinite(hi - lo):  # the width uniform draws scale by
                raise ValueError(f"interval [{lo}, {hi}] or its width is not finite")
            if hi < lo:
                raise ValueError(f"interval [{lo}, {hi}] is reversed")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if not self.fixed.unknown_indices:
            raise ValueError("a sweep needs at least one unknown parameter")
        if len(domain) != len(self.fixed.unknown_indices):
            raise ShapeMismatch(
                f"{len(domain)} intervals for {len(self.fixed.unknown_indices)} unknowns"
            )
        object.__setattr__(self, "domain", domain)


def _formulate(model: ParameterLinearModel, times, states, derivative: str):
    """Per-sample regression blocks: matrices (..., m, n, k), rhs (..., m, n).

    states (..., T, n) are series on one time axis, times (T,), which the
    features get broadcast to the leading axes. "interior" gives the m = T - 2
    blocks of samples 1..T-2, each from its own three samples only; "full"
    gives one per sample. rhs is time_derivative's; the matrices weight the
    features and apply the table once.
    """
    states = check_states(states, model.n_states, model.name)
    # a non-finite entry is the solver's verdict (NonFiniteSystem), not a warning
    with np.errstate(all="ignore"):
        rhs = time_derivative(times, states, derivative)
        _, coefficients, values = library_features(
            model, states, np.broadcast_to(times, states.shape[:-1])
        )
        if derivative == "interior":
            h1 = times[1:-1] - times[:-2]
            h2 = times[2:] - times[1:-1]
            span = times[2:] - times[:-2]
            # three-point Simpson rule over [t_{i-1}, t_{i+1}], divided by its span
            values = (
                (2.0 - h2 / h1)[:, None] * values[..., :-2, :]
                + (span * span / (h1 * h2))[:, None] * values[..., 1:-1, :]
                + (2.0 - h1 / h2)[:, None] * values[..., 2:, :]
            ) / 6.0
        return matrices_from_features(values, coefficients), rhs


def assemble_from_series(
    model: ParameterLinearModel,
    series: TimeSeries,
    indices,
    derivative: str = "interior",
) -> StackedSystem:
    """Stack one residual block per window index, in index order.

    Each row is built from its own samples only, so the system of a window
    equals the matching row slice of any larger window's system.
    """
    if not isinstance(indices, EstimationWindow):
        indices = EstimationWindow(indices)
    idx = indices.indices
    first, last = idx.min(), idx.max()
    samples = slice(first, last + 1)
    if derivative == "interior":
        if first < 1 or last > len(series) - 2:
            raise TooFewPoints("interior mode needs indices with both neighbors in range")
        samples = slice(first - 1, last + 2)
    elif derivative == "full":
        if not np.all(np.diff(idx) == 1):
            raise ShapeMismatch("full mode needs contiguous indices")
        if first < 0 or last > len(series) - 1:
            raise TooFewPoints("window indices outside the series")
    matrices, rhs = _formulate(model, series.times[samples], series.states[samples], derivative)
    pick = idx - first
    return StackedSystem(matrices[pick].reshape(-1, model.n_params), rhs[pick].reshape(-1))


def estimate_constant(
    model: ParameterLinearModel,
    series: TimeSeries,
    indices=None,
    partition: ParameterPartition | None = None,
    ridge_lambda: float = 0.0,
    derivative: str = "interior",
    normalize: bool = False,
) -> ParameterEstimate:
    """One estimate over the whole window; known parameters pass through."""
    if indices is None:
        indices = EstimationWindow.interior(series)
    if partition is None:
        partition = ParameterPartition.all_unknown(model.n_params)
    system = assemble_from_series(model, series, indices, derivative=derivative)
    return solve_partitioned(
        system, partition, ridge_lambda=ridge_lambda, normalize=normalize
    )


@dataclass(frozen=True)
class WindowedEstimates:
    """Per-day estimates of estimate_time_varying, held as columns in day order.

    times (d,), values (d, n_params), residual_norms (d,) and conditions (d,)
    hold one row per estimated day; every row was solved with ridge_lambda.
    skipped lists the indices of the days skipped as rank deficient, and
    widened tells whether a width-1 fit was widened to 2. The result is also
    a sequence: r[i] (negative i too) builds (t_i, ParameterEstimate) on
    demand, iteration yields those pairs in day order, and a slice is a
    WindowedEstimates of the sliced rows with the same skipped and widened.
    """

    times: np.ndarray = field(compare=False)
    values: np.ndarray = field(compare=False)
    residual_norms: np.ndarray = field(compare=False)
    conditions: np.ndarray = field(compare=False)
    ridge_lambda: float = 0.0
    skipped: tuple = ()
    widened: bool = False

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return replace(
                self,
                times=self.times[index],
                values=self.values[index],
                residual_norms=self.residual_norms[index],
                conditions=self.conditions[index],
            )
        estimate = ParameterEstimate(
            self.values[index],
            float(self.residual_norms[index]),
            float(self.conditions[index]),
            self.ridge_lambda,
        )
        return float(self.times[index]), estimate

    def __iter__(self):
        return (self[row] for row in range(len(self)))


def estimate_time_varying(
    model: ParameterLinearModel,
    series: TimeSeries,
    window_width: int,
    partition: ParameterPartition | None = None,
    ridge_lambda: float = 0.0,
    normalize: bool = False,
) -> WindowedEstimates:
    """Per-day estimates over the preceding `window_width` days.

    The estimate for day i covers indices {i - d + 1 .. i}, trimmed to
    indices with valid central-difference neighbors; days whose trimmed
    window is empty emit nothing. A day whose system is rank deficient is
    skipped with a warning, except that a rank-deficient width-1 run is
    retried once at width 2 (per-point systems of the seven-compartment
    model are degenerate by construction). Any other failure is raised at
    the first day it hits, the failed days walked in day order. The windows
    are solved by regression.solve_windows, so a day's result depends on its
    own window's samples only, bit for bit. `window_width` must be a Python
    or numpy integer (not a bool).

    Returns a WindowedEstimates: the estimated days' times, values,
    residual norms and conditions as columns in day order, the skipped day
    indices and whether the width was widened. Indexing it gives
    (t_i, ParameterEstimate).
    """
    if isinstance(window_width, (bool, np.bool_)) or not isinstance(
        window_width, (int, np.integer)
    ):
        raise ValueError("window width must be an integer")
    d = int(window_width)
    if d < 1:
        raise ValueError("window width must be at least 1")
    if partition is None:
        partition = ParameterPartition.all_unknown(model.n_params)
    n_unknown = len(partition.unknown_indices)
    if n_unknown == 0:
        raise ShapeMismatch("system has no parameter columns")
    if model.n_states * d < n_unknown:
        raise UnderDetermined(
            f"width {d} gives {model.n_states * d} rows for {n_unknown} unknowns"
        )
    check_ridge_lambda(ridge_lambda)  # also when no window is solved
    n = len(series)
    if n < 3 or d > n:
        nothing = np.empty(0)
        return WindowedEstimates(
            nothing, np.empty((0, model.n_params)), nothing, nothing, ridge_lambda
        )
    matrices, rhs = _formulate(model, series.times, series.states, "interior")
    blocks, block_rhs = partition.reduce(matrices, rhs)

    def fit(width: int):
        # block j is sample j + 1's, so the window ending at padded block i is day i's
        days, solution = solve_windows(blocks, block_rhs, width, ridge_lambda, normalize)
        skipped = []
        # a failed system is the one whose diagnostics are NaN (BatchSolution)
        for index in np.flatnonzero(np.isnan(solution.residual_norms)):
            error = solution.errors[index]
            if not isinstance(error, RankDeficient):
                raise error
            if width == 1:
                return None
            skipped.append(int(days[index]))
            warnings.warn(
                f"skipping day index {skipped[-1]}: rank-deficient window",
                stacklevel=3,
            )
        kept = ~np.isnan(solution.residual_norms)
        return WindowedEstimates(
            series.times[days[kept]],
            partition.combine(solution.values[kept]),
            solution.residual_norms[kept],
            solution.conditions[kept],
            ridge_lambda,
            tuple(skipped),
            width != d,
        )

    results = fit(d)
    if results is None:
        warnings.warn(
            "width-1 system is rank deficient; widening the window to 2", stacklevel=2
        )
        results = fit(2)
    return results


def add_noise(series: TimeSeries, spec: NoiseSpec) -> TimeSeries:
    """Perturb every entry by epsilon * max_t|x(t)| * z with z ~ N(0, 1).

    The magnitude scale is taken per state component over the whole series.
    epsilon = 0 returns the series unchanged (bit-identical states).
    """
    if spec.epsilon == 0.0:
        return TimeSeries(series.times.copy(), series.states.copy())
    rng = np.random.default_rng(spec.seed)
    scale = spec.epsilon * np.abs(series.states).max(axis=0)
    noise = rng.standard_normal(series.states.shape) * scale
    return TimeSeries(series.times.copy(), series.states + noise)


@dataclass(frozen=True)
class ErrorMetrics:
    """Per-parameter signed mean relative error and mean absolute variant."""

    signed_mean: np.ndarray
    absolute_mean: np.ndarray
    skipped: np.ndarray


def relative_error_metrics(true_values, estimated_values) -> ErrorMetrics:
    """Signed MRE (1/n) sum (p - p_hat) / p, plus the mean-|.| variant.

    Entries with p = 0 are skipped and counted rather than raising.
    """
    true_values = np.atleast_2d(np.asarray(true_values, dtype=float))
    estimated_values = np.atleast_2d(np.asarray(estimated_values, dtype=float))
    if true_values.shape != estimated_values.shape:
        raise ShapeMismatch(
            f"true {true_values.shape} vs estimated {estimated_values.shape}"
        )
    k = true_values.shape[1]
    signed = np.empty(k)
    absolute = np.empty(k)
    skipped = np.zeros(k, dtype=int)
    for p in range(k):
        valid = true_values[:, p] != 0.0
        skipped[p] = int(np.count_nonzero(~valid))
        if not np.any(valid):
            signed[p] = np.nan
            absolute[p] = np.nan
            continue
        rel = (true_values[valid, p] - estimated_values[valid, p]) / true_values[
            valid, p
        ]
        signed[p] = float(rel.mean())
        absolute[p] = float(np.abs(rel).mean())
    return ErrorMetrics(signed, absolute, skipped)


@dataclass
class SweepResult:
    """Per-draw error records plus threshold fractions.

    max_errors / mean_errors hold NaN for failed draws; fractions count
    failed draws as not below any threshold (denominator is sample_count).
    failures lists (draw index, "ErrorType: message"); failure_counts maps
    each error type name to its number of failed draws.
    """

    sample_count: int
    max_errors: np.ndarray
    mean_errors: np.ndarray
    failures: list = field(default_factory=list)
    failure_counts: dict = field(default_factory=dict)
    max_errors_normalized: np.ndarray | None = None
    mean_errors_normalized: np.ndarray | None = None

    def fraction_below(self, threshold: float, statistic: str = "mean") -> float:
        table = {
            "max": self.max_errors,
            "mean": self.mean_errors,
            "max_normalized": self.max_errors_normalized,
            "mean_normalized": self.mean_errors_normalized,
        }[statistic]
        if table is None:
            raise ValueError(f"statistic {statistic!r} was not recorded")
        return float(np.count_nonzero(table < threshold)) / self.sample_count

    def threshold_table(self) -> dict:
        statistics = ["max", "mean"]
        if self.max_errors_normalized is not None:
            statistics += ["max_normalized", "mean_normalized"]
        return {
            stat: {thr: self.fraction_below(thr, stat) for thr in SWEEP_THRESHOLDS}
            for stat in statistics
        }


def run_sweep(
    model: ParameterLinearModel,
    sweep: SweepSpec,
    sim_template: SimulationConfig,
    derivative: str = "interior",
    with_normalized: bool = False,
    workers: int = 1,
) -> SweepResult:
    """Draw random parameter vectors, simulate, re-estimate, record errors.

    Draw i is seeded by SeedSequence((seed, i)), so results are order-stable.
    Draws are integrated together (simulate_draws) in blocks of at most
    SWEEP_BLOCK_VALUES state values. A block's draws that neither failed nor
    hold a zero are formulated, reduced and solved per normalize setting in
    one call per chunk of at most regression.SOLVE_BLOCK_VALUES values; a
    chunk whose formulation raises is refitted a draw at a time. Each draw's
    errors equal those of fitting it alone, bit for bit. Failures are
    recorded with a reason, in index order, never fatal; an error of the
    model's features at the shared initial state is raised. `workers` has no
    effect.
    """
    partition, count = sweep.fixed, sweep.sample_count
    k = len(partition.unknown_indices)
    draws = np.empty((count, k))
    low, high = np.array(sweep.domain).T
    for index in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((sweep.seed, index)))
        draws[index] = rng.uniform(low, high)
    omegas = partition.combine(draws)
    times = time_grid(sim_template)
    values = len(times) * model.n_states  # one draw's states
    block = max(1, SWEEP_BLOCK_VALUES // values)
    chunk = max(1, regression.SOLVE_BLOCK_VALUES // (values * (k + 1)))
    # "full" rows keep estimate_constant's default window, samples 1..n-2
    window = slice(1, -1) if derivative == "full" else slice(None)
    # rows: max and mean error, then the normalized pair
    statistics = np.full((4 if with_normalized else 2, count), np.nan)
    zero = np.flatnonzero(np.any(draws == 0.0, axis=1))
    errors = {int(index): EstimationError("zero parameter draw") for index in zero}

    def fit(states, indices) -> None:
        """Record the relative errors, or the failure, of each draw in `indices`."""
        try:
            matrices, rhs = partition.reduce(
                *_formulate(model, times[window], states[:, window], derivative)
            )
        except EstimationError as exc:
            if len(indices) == 1:
                errors[indices[0]] = exc
            else:  # a feature error fails only its own draw
                for row, index in enumerate(indices):
                    fit(states[row : row + 1], [index])
            return
        drawn = draws[indices]
        systems = matrices.reshape(len(indices), -1, k), rhs.reshape(len(indices), -1)
        rows = []
        for normalize in (False, True) if with_normalized else (False,):
            solution = regression.solve_batch(*systems, normalize=normalize)
            relative = np.abs((solution.values - drawn) / drawn)
            rows += [relative.max(axis=1), relative.mean(axis=1)]
            for index, error in zip(indices, solution.errors):
                if error is not None:
                    errors.setdefault(index, error)
        statistics[:, indices] = rows

    for start in range(0, count, block):
        _, states, failed = simulate_draws(model, sim_template, omegas[start : start + block])
        for offset, error in failed.items():
            errors.setdefault(start + offset, error)
        kept = [i for i in range(start, start + len(states)) if i not in errors]
        for first in range(0, len(kept), chunk):
            indices = kept[first : first + chunk]
            fit(states[[index - start for index in indices]], indices)
    recorded = sorted(errors.items())
    statistics[:, [index for index, _ in recorded]] = np.nan
    failures = [(index, f"{type(error).__name__}: {error}") for index, error in recorded]
    failure_counts = Counter(type(error).__name__ for _, error in recorded)
    return SweepResult(count, *statistics[:2], failures, dict(failure_counts), *statistics[2:])


def subsample_noise_table(
    model: ParameterLinearModel,
    series: TimeSeries,
    true_omega,
    points=(5, 10, 50, 100),
    noise_levels=(0.0, 0.01, 0.05, 0.10),
    draws: int = 20,
    seed: int = 0,
) -> np.ndarray:
    """Percent-error table over sample counts and noise levels.

    Each sample count n in 3..len(series) subsamples the trajectory by stride
    (indices arange(n) * (len // n)). Each noise level > 0 draws its `draws`
    perturbed copies as one block; a subsample's copies are formulated in
    "full" mode and solved in one call each, and |percent error| is averaged.
    The perturbation enters the design only: the regressor matrices come from
    the noisy states, the derivative targets from the unperturbed subsample
    (this placement reproduces the published error magnitudes).

    Returns an array of shape (n_params, len(points), len(noise_levels)).
    """
    true_omega = np.asarray(true_omega, dtype=float)
    total = len(series)
    for n in points:
        if not 3 <= n <= total:
            raise TooFewPoints(f"points entry {n} is outside 3..{total}, the series length")
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    scale_unit = np.abs(series.states).max(axis=0)
    rng = np.random.default_rng(seed)
    table = np.empty((model.n_params, len(points), len(noise_levels)))
    subsamples = [np.arange(n) * (total // n) for n in points]
    targets = [
        time_derivative(series.times[idx], series.states[idx], "full").reshape(-1)
        for idx in subsamples
    ]
    for col, level in enumerate(noise_levels):
        copies = series.states[None]  # level 0 draws nothing: one clean copy
        if level != 0.0:
            noise = rng.standard_normal((draws,) + series.states.shape) * (level * scale_unit)
            copies = series.states + noise
        for row, (idx, rhs) in enumerate(zip(subsamples, targets)):
            matrices, _ = _formulate(model, series.times[idx], copies[:, idx], "full")
            solution = regression.solve_batch(
                matrices.reshape(len(copies), -1, model.n_params),
                np.broadcast_to(rhs, (len(copies), len(rhs))),
            )
            for error in filter(None, solution.errors):
                raise error
            percent = np.abs((solution.values - true_omega) / true_omega) * 100.0
            table[:, row, col] = percent.sum(axis=0) / len(copies)
    return table
