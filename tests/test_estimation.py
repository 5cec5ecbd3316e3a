"""System assembly, constant and windowed fits, noise and sweeps."""

import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from artifact import cli, estimation, regression
from artifact.models import build_matrices
from artifact import (
    ConstantSchedule,
    DegenerateDenominator,
    EstimationError,
    EstimationWindow,
    NoiseSpec,
    NonFiniteSystem,
    ParameterLinearModel,
    ParameterPartition,
    RankDeficient,
    ShapeMismatch,
    SimulationConfig,
    SinusoidalBetaSchedule,
    StackedSystem,
    SweepSpec,
    TimeSeries,
    TooFewPoints,
    UnderDetermined,
    WindowedEstimates,
    add_noise,
    assemble_from_series,
    estimate_constant,
    estimate_time_varying,
    eval_rhs,
    full_diff,
    lotka_volterra,
    relative_error_metrics,
    run_sweep,
    s3i3r,
    s3i3r_matrix,
    simulate,
    sir,
    solve_ols,
    subsample_noise_table,
)

LV_OMEGA = np.array([0.7, 1.3, 1.1, 0.9])
SIR_OMEGA = np.array([0.5, 1.0 / 3.0])


def test_assemble_single_index(sir_trajectory):
    system = assemble_from_series(sir(1.0), sir_trajectory, [10])
    assert system.matrix.shape == (3, 2)
    span = sir_trajectory.times[11] - sir_trajectory.times[9]
    expected = (sir_trajectory.states[11] - sir_trajectory.states[9]) / span
    np.testing.assert_array_equal(system.rhs, expected)


def test_assemble_span_shape(sir_trajectory):
    system = assemble_from_series(sir(1.0), sir_trajectory, EstimationWindow.span(1, 50))
    assert system.matrix.shape == (150, 2)
    assert system.rhs.shape == (150,)


def test_analytic_rhs_recovers_exactly(sir_trajectory):
    """With the true derivative on the right the fit is exact to roundoff."""
    model = sir(1.0)
    blocks_matrix = []
    blocks_rhs = []
    for i in range(0, 60):
        state = sir_trajectory.states[i]
        blocks_matrix.append(model.build_matrix(state, float(i)))
        blocks_rhs.append(eval_rhs(model, state, SIR_OMEGA))
    system = StackedSystem(np.vstack(blocks_matrix), np.concatenate(blocks_rhs))
    estimate = solve_ols(system)
    assert np.abs(estimate.values - SIR_OMEGA).max() < 1e-10


def test_assemble_mode_errors(sir_trajectory):
    model = sir(1.0)
    with pytest.raises(ShapeMismatch):
        assemble_from_series(model, sir_trajectory, [3, 5, 7], derivative="full")
    with pytest.raises(ValueError):
        assemble_from_series(model, sir_trajectory, [3, 4], derivative="spline")
    with pytest.raises(TooFewPoints):
        assemble_from_series(model, sir_trajectory, [0, 1, 2])


def test_window_constructors(sir_trajectory):
    np.testing.assert_array_equal(EstimationWindow.span(2, 5).indices, [2, 3, 4, 5])
    interior = EstimationWindow.interior(sir_trajectory)
    np.testing.assert_array_equal(interior.indices, np.arange(1, 79))
    with pytest.raises(ShapeMismatch):
        EstimationWindow([])
    with pytest.raises(TooFewPoints):
        EstimationWindow.interior(TimeSeries([0.0, 1.0], [[1.0], [2.0]]))


@pytest.mark.parametrize(
    "indices", [[1.5, 2.7, 3.9], [True, True], np.array([2.0, 3.0])],
    ids=["fractional", "bool", "whole-floats"],
)
def test_window_indices_must_be_integers(sir_trajectory, indices):
    # a float index was truncated and a bool read as row 0 or 1
    with pytest.raises(ShapeMismatch, match="window indices must be integers"):
        EstimationWindow(indices)
    with pytest.raises(ShapeMismatch, match="window indices must be integers"):
        estimate_constant(sir(1.0), sir_trajectory, indices=indices)


def test_window_keeps_integer_indices_in_their_order():
    for indices in ([7, 3, 5], np.array([40, 2, 78, 2], dtype=np.uint8), range(3, 6)):
        window = EstimationWindow(indices)
        assert window.indices.dtype == int
        np.testing.assert_array_equal(window.indices, list(indices))


@pytest.mark.parametrize("indices", [[], [[1, 2], [3, 4]]], ids=["empty", "2-D"])
def test_raw_index_lists_are_checked_as_windows(sir_trajectory, indices):
    with pytest.raises(ShapeMismatch, match="window needs a non-empty 1-D index set"):
        estimate_constant(sir(1.0), sir_trajectory, indices=indices)


def test_window_nesting(sir_trajectory):
    """Stacking two adjacent windows reproduces the combined system.

    Any interior index set, also non-contiguous and unsorted, gives exactly
    the matching blocks of the whole-interior system, in its own order.
    """
    model = sir(1.0)
    whole = assemble_from_series(model, sir_trajectory, EstimationWindow.span(1, 40))
    left = assemble_from_series(model, sir_trajectory, EstimationWindow.span(1, 20))
    right = assemble_from_series(model, sir_trajectory, EstimationWindow.span(21, 40))
    np.testing.assert_array_equal(
        whole.matrix, np.vstack([left.matrix, right.matrix])
    )
    np.testing.assert_array_equal(whole.rhs, np.concatenate([left.rhs, right.rhs]))
    interior = assemble_from_series(
        model, sir_trajectory, EstimationWindow.interior(sir_trajectory)
    )
    blocks = interior.matrix.reshape(-1, 3, 2), interior.rhs.reshape(-1, 3)
    for indices in ([7, 3, 5], [40, 2, 78, 2], [1, 78], [30]):
        picked = assemble_from_series(model, sir_trajectory, indices)
        rows = np.array(indices) - 1
        np.testing.assert_array_equal(picked.matrix, blocks[0][rows].reshape(-1, 2))
        np.testing.assert_array_equal(picked.rhs, blocks[1][rows].reshape(-1))


def test_interior_rows_integrate_cubic_exactly(sir_trajectory):
    """Interior rows are exact for dx/dt = w t^2, and windows slice them.

    Simpson's rule integrates t^2 exactly on any grid, so x = w t^3 / 3
    gives w back to roundoff on a uniform and a non-uniform grid. Pairing
    A(t_i) with the central difference instead misses by 3.6e-4 and 1.5e-3
    on these grids. Each per-day estimate equals the constant estimate over
    the same trimmed window to 1e-12 relative, at any width and solver
    option: the windowed fit solves its windows' normal equations, the
    constant fit a QR factorization.
    """
    w = 0.75
    cubic = ParameterLinearModel(
        name="cubic",
        state_names=("x",),
        parameter_names=("w",),
        build_matrix=lambda state, t: np.array([[t * t]]),
    )
    rng = np.random.default_rng(7)
    grids = {
        "uniform": np.linspace(0.0, 10.0, 41),
        "non-uniform": np.cumsum(rng.uniform(0.05, 0.45, 40)),
    }
    cases = [(sir(1.0), sir_trajectory)]
    for name, times in grids.items():
        series = TimeSeries(times, w * times**3 / 3.0)
        estimate = estimate_constant(cubic, series)
        assert abs(estimate.values[0] - w) / w < 1e-12, name
        cases.append((cubic, series))
    options = ({}, {"ridge_lambda": 1e-3}, {"normalize": True})
    for width in (1, 2, 5, 14):
        for option in options:
            for model, series in cases:
                n = len(series)
                results = estimate_time_varying(model, series, width, **option)
                days = np.arange(1, n - 1) if width == 1 else np.arange(width - 1, n)
                assert [t for t, _ in results] == list(series.times[days])
                for i, (_, estimate) in zip(days, results):
                    window = EstimationWindow.span(max(i - width + 1, 1), min(i, n - 2))
                    constant = estimate_constant(model, series, window, **option)
                    np.testing.assert_allclose(estimate.values, constant.values, rtol=1e-12)


def test_constant_recovery_sir_daily(sir_trajectory):
    estimate = estimate_constant(
        sir(1.0), sir_trajectory, EstimationWindow.span(0, 49), derivative="full"
    )
    assert abs(estimate.values[0] - 0.5) <= 1e-3
    assert abs(estimate.values[1] - 1.0 / 3.0) <= 2e-3


def test_constant_recovery_lv_subsample(lv_trajectory):
    idx = np.arange(100) * 10
    coarse = TimeSeries(lv_trajectory.times[idx], lv_trajectory.states[idx])
    estimate = estimate_constant(lotka_volterra(), coarse)
    rel = np.abs((estimate.values - LV_OMEGA) / LV_OMEGA)
    assert rel.max() < 0.01


def test_lv_resimulation_tracks_truth(lv_trajectory):
    # 40 points over [0, 10]: the interior rows leave a bias near 6e-5
    idx = np.arange(40) * 25
    coarse = TimeSeries(lv_trajectory.times[idx], lv_trajectory.states[idx])
    estimate = estimate_constant(lotka_volterra(), coarse)
    rel = np.abs((estimate.values - LV_OMEGA) / LV_OMEGA)
    assert rel.max() < 0.02
    config = SimulationConfig(
        0.0, 10.0, 10.0 / 999.0, np.array([1.0, 1.0]), ConstantSchedule(estimate.values)
    )
    resim = simulate(lotka_volterra(), config)
    deviation = np.abs(resim.states - lv_trajectory.states) / np.abs(lv_trajectory.states)
    assert deviation.max() < 0.10
    assert deviation.mean() < 0.05


def test_known_parameter_passes_through(sir_trajectory):
    partition = ParameterPartition.from_known(2, {1: 1.0 / 3.0})
    estimate = estimate_constant(sir(1.0), sir_trajectory, partition=partition)
    assert estimate.values[1] == 1.0 / 3.0


def test_time_varying_underdetermined(lv_trajectory):
    with pytest.raises(UnderDetermined):
        estimate_time_varying(lotka_volterra(), lv_trajectory, 1)
    # two predator-prey states handed to the three-state SIR model
    with pytest.raises(ShapeMismatch):
        estimate_time_varying(sir(1.0), lv_trajectory, 5)


def test_time_varying_on_constant_data():
    """Every windowed estimate agrees with the constant truth, any width."""
    config = SimulationConfig(
        0.0, 40.0, 0.25, np.array([0.9999, 1e-4, 0.0]), ConstantSchedule(SIR_OMEGA)
    )
    series = simulate(sir(1.0), config)
    expected_counts = {2: 160, 5: 157, 14: 148, 56: 106, 160: 2, 161: 1}
    for width, count in expected_counts.items():
        results = estimate_time_varying(sir(1.0), series, width)
        assert len(results) == count
        worst = max(np.abs(e.values - SIR_OMEGA).max() for _, e in results)
        assert worst < 1e-3


def test_time_varying_attributes_window_end():
    config = SimulationConfig(
        0.0, 40.0, 0.25, np.array([0.9999, 1e-4, 0.0]), ConstantSchedule(SIR_OMEGA)
    )
    series = simulate(sir(1.0), config)
    results = estimate_time_varying(sir(1.0), series, 5)
    assert results[0][0] == series.times[4]
    assert results[-1][0] == series.times[-1]


def _daily_s3i3r():
    """Criterion 06's daily S3I3R series under a sinusoidal beta, tau pinned."""
    model = s3i3r(1.0)
    omega = np.array([0.4, 1 / 3, 1 / 20, 1 / 20, 0.0, 1 / 10, 1 / 20, 1 / 20])
    config = SimulationConfig(
        0.0,
        56.0,
        1.0,
        np.array([0.9999, 1e-4, 0, 0, 0, 0, 0]),
        SinusoidalBetaSchedule(omega, 0.4, 0.05, 56.0, 0),
    )
    partition = ParameterPartition.from_known(8, {model.parameter_index("tau"): 0.0})
    return model, simulate(model, config), partition


WIDENED = "width-1 system is rank deficient; widening the window to 2"


def test_time_varying_widens_and_skips_days_in_order():
    # one sample's seven rows have rank at most 6 (the columns sum to zero),
    # so width 1 widens to 2, whose two trimmed end windows are skipped
    model, series, partition = _daily_s3i3r()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = estimate_time_varying(model, series, 1, partition=partition)
    assert [str(w.message) for w in caught] == [
        WIDENED,
        "skipping day index 1: rank-deficient window",
        "skipping day index 56: rank-deficient window",
    ]
    assert {w.filename for w in caught} == {__file__}
    assert [t for t, _ in results] == list(series.times[2:56])


@pytest.mark.parametrize(
    "sample, expected_warnings",
    [
        (1, []),
        (20, [WIDENED, "skipping day index 1: rank-deficient window"]),
        (56, [WIDENED, "skipping day index 1: rank-deficient window"]),
    ],
)
def test_time_varying_raises_the_first_non_finite_day(sample, expected_warnings):
    # a builder that gives NaN at one sample poisons every window holding one
    # of its three interior blocks; the first such day raises, after the
    # warnings of the days before it (a NaN at sample 1 already fails width 1)
    model, series, partition = _daily_s3i3r()

    def build(state, t):
        matrix = s3i3r_matrix(state, 1.0)
        return matrix * np.nan if t == series.times[sample] else matrix

    poisoned = ParameterLinearModel(
        model.name, model.state_names, model.parameter_names, build
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteSystem, match="the system has a non-finite entry"):
            estimate_time_varying(poisoned, series, 1, partition=partition)
    assert [str(w.message) for w in caught] == expected_warnings


def _stacked_tuples(results):
    """The lazy (t, ParameterEstimate) pairs of a windowed fit, stacked as columns."""
    pairs = list(results)
    assert all(estimate.ridge_lambda == results.ridge_lambda for _, estimate in pairs)
    return (
        np.array([t for t, _ in pairs]),
        np.array([estimate.values for _, estimate in pairs]).reshape(len(pairs), -1),
        np.array([estimate.residual_norm for _, estimate in pairs]),
        np.array([estimate.condition_estimate for _, estimate in pairs]),
    )


def test_windowed_columns_equal_the_stacked_lazy_tuples(sir_trajectory):
    model, series, partition = _daily_s3i3r()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        widened = estimate_time_varying(model, series, 1, partition=partition)
    cases = [
        estimate_time_varying(sir(1.0), sir_trajectory, 5),
        estimate_time_varying(sir(1.0), sir_trajectory, 1, ridge_lambda=1e-3),
        estimate_time_varying(sir(1.0), sir_trajectory, 14, normalize=True),
        widened,
    ]
    for results in cases:
        assert isinstance(results, WindowedEstimates)
        columns = (
            results.times,
            results.values,
            results.residual_norms,
            results.conditions,
        )
        for column, stacked in zip(columns, _stacked_tuples(results)):
            assert column.dtype == stacked.dtype and column.shape == stacked.shape
            assert column.tobytes() == stacked.tobytes()


def test_windowed_estimates_index_slice_and_empty(sir_trajectory):
    results = estimate_time_varying(sir(1.0), sir_trajectory, 5)
    t, estimate = results[-1]
    assert t == results.times[len(results) - 1] == results[len(results) - 1][0]
    np.testing.assert_array_equal(estimate.values, results.values[-1])
    with pytest.raises(IndexError):
        results[len(results)]
    part = results[1:3]
    assert isinstance(part, WindowedEstimates) and len(part) == 2
    assert [t for t, _ in part] == [results[1][0], results[2][0]]
    np.testing.assert_array_equal(part.values, results.values[1:3])
    assert (part.skipped, part.widened) == (results.skipped, results.widened)
    short = TimeSeries(sir_trajectory.times[:2], sir_trajectory.states[:2])
    for empty in (
        estimate_time_varying(sir(1.0), short, 1),
        estimate_time_varying(sir(1.0), sir_trajectory, len(sir_trajectory) + 1),
        results[3:3],
    ):
        assert not empty and len(empty) == 0 and list(empty) == []
        assert empty.values.shape == (0, 2)


def test_windowed_fit_builds_no_estimate_objects(sir_trajectory, monkeypatch):
    built = []
    real = estimation.ParameterEstimate

    def counted(*args):
        built.append(args)
        return real(*args)

    def unused(self, index):
        raise AssertionError("the windowed fit reads the solution's columns")

    monkeypatch.setattr(estimation, "ParameterEstimate", counted)
    monkeypatch.setattr(regression.BatchSolution, "estimate", unused)
    results = estimate_time_varying(sir(1.0), sir_trajectory, 5)
    assert len(results) == len(sir_trajectory) - 4 and built == []
    results[7]
    assert len(built) == 1


def test_windowed_fit_solves_each_window_group_in_day_order(sir_trajectory, monkeypatch):
    # 10 SIR samples at width 3 give 8 well-conditioned windows: no QR. Every
    # width-1 and width-2 window of the daily S3I3R fit is above the cut, so
    # each goes to solve_batch, with its own rows, in day order
    plan = []
    solve_batch = regression.solve_batch

    def recorded(matrices, rhs, *args):
        plan.append((matrices.copy(), rhs.copy()))
        return solve_batch(matrices, rhs, *args)

    monkeypatch.setattr(regression, "solve_batch", recorded)
    series = TimeSeries(sir_trajectory.times[:10], sir_trajectory.states[:10])
    results = estimate_time_varying(sir(1.0), series, 3)
    assert plan == []
    np.testing.assert_array_equal(results.times, series.times[2:])
    model, series, partition = _daily_s3i3r()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate_time_varying(model, series, 1, partition=partition)
    assert [matrices.shape for matrices, _ in plan] == [
        (55, 7, 7),
        (1, 7, 7),
        (54, 14, 7),
        (1, 7, 7),
    ]
    windows = [
        regression.apply_partition(
            assemble_from_series(model, series, EstimationWindow.span(max(i - 1, 1), min(i, 55))),
            partition,
        )
        for i in range(1, 57)
    ]
    for matrices, rhs in plan[1:]:
        for window_matrix, window_rhs in zip(matrices, rhs):
            window = windows.pop(0)
            assert window_matrix.tobytes() == window.matrix.tobytes()
            assert window_rhs.tobytes() == window.rhs.tobytes()
    assert windows == []


def _per_window_qr(model, series, width, partition=None, **option):
    """Each day's window of a width-`width` fit solved alone by solve_batch."""
    n = len(series)
    if partition is None:
        partition = ParameterPartition.all_unknown(model.n_params)
    days = np.arange(1, n - 1) if width == 1 else np.arange(width - 1, n)
    solutions = []
    for i in days:
        window = EstimationWindow.span(max(i - width + 1, 1), min(i, n - 2))
        system = regression.apply_partition(assemble_from_series(model, series, window), partition)
        solutions.append(regression.solve_batch(system.matrix[None], system.rhs[None], **option))
    return days, solutions


def test_windowed_fit_agrees_with_qr_on_each_window(sir_trajectory):
    for width in (1, 2, 5, 14):
        for option in ({}, {"ridge_lambda": 1e-3}, {"normalize": True}):
            results = estimate_time_varying(sir(1.0), sir_trajectory, width, **option)
            days, solutions = _per_window_qr(sir(1.0), sir_trajectory, width, **option)
            assert [t for t, _ in results] == list(sir_trajectory.times[days])
            values = np.concatenate([solution.values for solution in solutions])
            norms = np.concatenate([solution.residual_norms for solution in solutions])
            conditions = np.concatenate([solution.conditions for solution in solutions])
            assert conditions.max() <= regression.GRAM_CONDITION_CUT
            np.testing.assert_allclose(results.values, values, rtol=1e-12, atol=0)
            np.testing.assert_allclose(results.residual_norms, norms, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(results.conditions, conditions, rtol=1e-12, atol=0)


def test_windowed_day_depends_only_on_its_window(sir_trajectory):
    # a day's window is blocks of its own samples, summed in one order, so a
    # segment holding just that window gives the day the same bytes
    n = len(sir_trajectory)
    for width in (1, 2, 5, 14):
        for option in ({}, {"ridge_lambda": 1e-3}, {"normalize": True}):
            results = estimate_time_varying(sir(1.0), sir_trajectory, width, **option)
            for row, t in enumerate(results.times):
                i = int(np.flatnonzero(sir_trajectory.times == t)[0])
                samples = slice(max(i - width, 0), min(i + 1, n - 1) + 1)
                segment = TimeSeries(sir_trajectory.times[samples], sir_trajectory.states[samples])
                alone = estimate_time_varying(sir(1.0), segment, width, **option)
                own = int(np.flatnonzero(alone.times == t)[0])
                assert alone.values[own].tobytes() == results.values[row].tobytes()
                assert alone.residual_norms[own] == results.residual_norms[row]
                assert alone.conditions[own] == results.conditions[row]


def test_windowed_s3i3r_fit_is_qr_bit_for_bit():
    # every daily S3I3R window is above the cut: the fit is solve_batch's own
    model, series, partition = _daily_s3i3r()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = estimate_time_varying(model, series, 1, partition=partition)
    days, solutions = _per_window_qr(model, series, 2, partition)
    kept = [(i, s) for i, s in zip(days, solutions) if s.errors[0] is None]
    assert [i for i, _ in kept] == list(range(2, 56))
    assert min(s.conditions[0] for _, s in kept) > regression.GRAM_CONDITION_CUT
    values = partition.combine(np.concatenate([s.values for _, s in kept]))
    assert results.values.tobytes() == values.tobytes()
    norms = np.concatenate([s.residual_norms for _, s in kept])
    assert results.residual_norms.tobytes() == norms.tobytes()
    conditions = np.concatenate([s.conditions for _, s in kept])
    assert results.conditions.tobytes() == conditions.tobytes()


@pytest.mark.parametrize("option", [{}, {"ridge_lambda": 1e-3}, {"normalize": True}])
def test_windowed_fit_screens_bad_windows_without_numpy_warnings(option):
    # an inf entry, a column that is zero up to t = 5 and an entry of 1e200
    # give every window the verdict solve_batch gives it alone, and numpy
    # warns about none of them (the inf sits in a one-entry model; a larger
    # one is test_non_finite_features_get_the_verdict_without_numpy_warnings)
    times = np.linspace(0.0, 10.0, 21)
    series = TimeSeries(times, np.sin(times)[:, None])

    def model(*entries):
        build = lambda state, t: np.array([[entry(state[0], t) for entry in entries]])
        return ParameterLinearModel("bad", ("x",), ("a", "b")[: len(entries)], build)

    cases = {
        "inf": model(lambda x, t: np.inf if t == 6.0 else 1.0 + x),
        "zero column": model(lambda x, t: 1.0 + x, lambda x, t: max(t - 5.0, 0.0)),
        "huge": model(lambda x, t: 1.0 + x, lambda x, t: 1e200 if t == 6.0 else t),
    }
    for name, bad in cases.items():
        days, solutions = _per_window_qr(bad, series, 3, **option)
        errors = [solution.errors[0] for solution in solutions]
        fatal = [e for e in errors if e is not None and not isinstance(e, RankDeficient)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            if fatal:  # the first day that fails other than rank deficient raises
                with pytest.raises(type(fatal[0]), match=re.escape(str(fatal[0]))):
                    estimate_time_varying(bad, series, 3, **option)
                continue
            results = estimate_time_varying(bad, series, 3, **option)
        skipped = tuple(int(i) for i, e in zip(days, errors) if e is not None)
        assert results.skipped == skipped, name
        assert [str(w.message) for w in caught] == [
            f"skipping day index {i}: rank-deficient window" for i in skipped
        ]
        assert (name == "zero column" and "ridge_lambda" not in option) == bool(skipped)


def test_windowed_fit_reports_skips_and_widening(sir_trajectory):
    model, series, partition = _daily_s3i3r()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = estimate_time_varying(model, series, 1, partition=partition)
    assert results.skipped == (1, 56)
    assert results.widened is True
    for width in (1, 14):
        results = estimate_time_varying(sir(1.0), sir_trajectory, width)
        assert results.skipped == () and results.widened is False


@pytest.mark.parametrize("width", [2.7, 3.0, True, np.True_, "3", None])
def test_window_width_must_be_an_integer(sir_trajectory, width):
    with pytest.raises(ValueError, match="window width must be an integer"):
        estimate_time_varying(sir(1.0), sir_trajectory, width)


def test_window_width_accepts_python_and_numpy_integers(sir_trajectory):
    expected = estimate_time_varying(sir(1.0), sir_trajectory, 3)
    for width in (np.int64(3), np.int32(3), np.uint8(3)):
        results = estimate_time_varying(sir(1.0), sir_trajectory, width)
        assert results.times.tobytes() == expected.times.tobytes()
        assert results.values.tobytes() == expected.values.tobytes()


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _cells(t, *values):
    return [repr(float(value)) for value in (t, *values)]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_varying_estimates_csv_equals_rows_of_per_day_estimates(tmp_path):
    conf = str(CONFIGS / "sir_varying.conf")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", conf, "--out", str(out)]) == 0
    data = str(out / "trajectory.csv")
    assert cli.main(["estimate", "--config", conf, "--data", data, "--out", str(out)]) == 0
    series = cli._read_series_csv(data, sir(1.0))
    results = estimate_time_varying(sir(1.0), series, 1)
    expected = [
        _cells(t, *estimate.values, estimate.residual_norm, estimate.condition_estimate)
        for t, estimate in results
    ]
    assert _csv_rows(out / "estimates.csv")[1:] == expected
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["skipped_days"], summary["widened"]) == ([], False)


def test_varying_summary_names_the_skipped_days_and_the_widening(tmp_path):
    # criterion 06's daily S3I3R shape through the CLI: width 1 widens to 2,
    # whose trimmed end windows (days 1 and 56) are rank deficient
    conf = tmp_path / "s3i3r.conf"
    conf.write_text(
        "model.name=s3i3r\n"
        "model.population=1.0\n"
        "sim.t_end=56\n"
        "sim.step=1\n"
        "sim.x0=0.9999,0.0001,0,0,0,0,0\n"
        "schedule.type=sinusoidal\n"
        "schedule.base=0.4,0.3333333333333333,0.05,0.05,0,0.1,0.05,0.05\n"
        "schedule.mean=0.4\n"
        "schedule.amplitude=0.05\n"
        "schedule.period=56\n"
        "estimate.mode=varying\n"
        "estimate.window=1\n"
        "known.tau=0\n"
    )
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    data = str(out / "trajectory.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["estimate", "--config", str(conf), "--data", data, "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["skipped_days"] == [1.0, 56.0]
    assert summary["widened"] is True
    assert summary["estimates"] == 54


def test_covid_beta_csv_equals_rows_of_per_day_estimates(tmp_path):
    out = tmp_path / "out"
    args = ["covid", "--config", str(CONFIGS / "covid.conf")]
    args += ["--data", str(CONFIGS / "covid_daily.csv"), "--out", str(out)]
    assert cli.main(args) == 0
    model = sir(5700000.0)
    series = cli._read_series_csv(out / "states.csv", model)
    partition = ParameterPartition.from_known(2, {1: 0.072})
    results = estimate_time_varying(model, series, 14, partition=partition)
    expected = [
        _cells(t, estimate.values[0], estimate.residual_norm, estimate.condition_estimate)
        for t, estimate in results
    ]
    assert _csv_rows(out / "beta.csv")[1:] == expected
    log = (out / "run.log").read_text().splitlines()
    assert "skipped_days=[]" in log and "widened=False" in log


def test_add_noise_zero_epsilon_identity(lv_trajectory):
    noisy = add_noise(lv_trajectory, NoiseSpec(0.0))
    np.testing.assert_array_equal(noisy.states, lv_trajectory.states)
    assert noisy.states is not lv_trajectory.states


def test_add_noise_scale():
    series = TimeSeries(np.arange(100000.0), np.ones(100000))
    noisy = add_noise(series, NoiseSpec(0.05, seed=3))
    ratio = np.std(noisy.states - series.states) / 0.05
    assert abs(ratio - 1.0) < 0.02


def test_add_noise_deterministic():
    series = TimeSeries(np.arange(1000.0), np.ones(1000))
    a = add_noise(series, NoiseSpec(0.05, seed=9))
    b = add_noise(series, NoiseSpec(0.05, seed=9))
    c = add_noise(series, NoiseSpec(0.05, seed=10))
    np.testing.assert_array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


@pytest.mark.parametrize("epsilon", [-0.1, np.nan, np.inf, -np.inf])
def test_noise_spec_rejects_negative_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
        NoiseSpec(epsilon)


def test_metrics_worked_examples():
    m = relative_error_metrics([[2.0, 2.0]], [[1.0, 1.0]])
    np.testing.assert_allclose(m.signed_mean, [0.5, 0.5])
    m = relative_error_metrics([[1.0]], [[1.5]])
    np.testing.assert_allclose(m.signed_mean, [-0.5])
    m = relative_error_metrics([[0.7, 1.3]], [[0.7, 1.3]])
    np.testing.assert_allclose(m.signed_mean, [0.0, 0.0])
    np.testing.assert_allclose(m.absolute_mean, [0.0, 0.0])


def test_metrics_skips_zero_truth():
    m = relative_error_metrics([[0.0, 2.0]], [[1.0, 1.0]])
    np.testing.assert_array_equal(m.skipped, [1, 0])
    assert np.isnan(m.signed_mean[0])
    assert m.signed_mean[1] == pytest.approx(0.5)


def test_metrics_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        relative_error_metrics([[1.0, 2.0]], [[1.0]])


def test_noise_table_default_lv(lv_trajectory):
    table = subsample_noise_table(lotka_volterra(), lv_trajectory, LV_OMEGA, seed=100)
    assert table.shape == (4, 4, 4)
    # densest noiseless column: every percent error under 1
    assert table[:, 3, 0].max() < 1.0
    # sparse noisy corner sits near the expected order of magnitude
    assert 3.5 <= table[0, 3, 3] <= 14.0
    # more points never hurt at zero noise
    assert np.all(np.diff(table[:, :, 0], axis=1) < 0)


def test_noise_table_deterministic(lv_trajectory):
    a = subsample_noise_table(
        lotka_volterra(), lv_trajectory, LV_OMEGA, points=(5, 10), noise_levels=(0.05,),
        draws=3, seed=4,
    )
    b = subsample_noise_table(
        lotka_volterra(), lv_trajectory, LV_OMEGA, points=(5, 10), noise_levels=(0.05,),
        draws=3, seed=4,
    )
    np.testing.assert_array_equal(a, b)


def _noise_table_reference(model, series, true_omega, points, noise_levels, draws, seed):
    """The table by one build_matrices and solve_ols call per noisy copy.

    Each copy's matrices come from its noisy subsample and its rhs from the
    clean subsample's full_diff; percent errors are summed in draw order.
    """
    total = len(series)
    scale = np.abs(series.states).max(axis=0)
    rng = np.random.default_rng(seed)
    subsamples = [np.arange(n) * (total // n) for n in points]
    targets = [
        full_diff(TimeSeries(series.times[idx], series.states[idx])).states.reshape(-1)
        for idx in subsamples
    ]

    def percent(states, idx, rhs):
        matrices = build_matrices(model, states[idx], series.times[idx])
        estimate = solve_ols(StackedSystem(matrices.reshape(-1, model.n_params), rhs))
        return np.abs((estimate.values - true_omega) / true_omega) * 100.0

    table = np.empty((model.n_params, len(points), len(noise_levels)))
    for col, level in enumerate(noise_levels):
        if level == 0.0:
            for row, (idx, rhs) in enumerate(zip(subsamples, targets)):
                table[:, row, col] = percent(series.states, idx, rhs)
            continue
        sums = np.zeros((model.n_params, len(points)))
        for _ in range(draws):
            noisy = series.states + rng.standard_normal(series.states.shape) * (level * scale)
            for row, (idx, rhs) in enumerate(zip(subsamples, targets)):
                sums[:, row] += percent(noisy, idx, rhs)
        table[:, :, col] = sums / draws
    return table


def test_noise_table_places_noise_in_the_matrices_only(lv_trajectory):
    args = (lotka_volterra(), lv_trajectory, LV_OMEGA, (5, 10, 50), (0.0, 0.05, 0.1), 3, 4)
    np.testing.assert_array_equal(
        subsample_noise_table(*args), _noise_table_reference(*args)
    )


@pytest.mark.parametrize("points", [0, 2, 1001])
def test_noise_table_rejects_points_outside_the_series(lv_trajectory, points):
    # the series has 1000 samples; a subsample needs 3 for its derivative
    with pytest.raises(TooFewPoints, match=f"points entry {points} is outside 3..1000"):
        subsample_noise_table(
            lotka_volterra(), lv_trajectory, LV_OMEGA, points=(5, points), draws=2
        )


@pytest.mark.parametrize("draws", [0, -1])
def test_noise_table_rejects_fewer_than_one_draw(lv_trajectory, draws):
    with pytest.raises(ValueError, match=f"draws must be at least 1, got {draws}"):
        subsample_noise_table(lotka_volterra(), lv_trajectory, LV_OMEGA, draws=draws)


def test_sweep_zero_draw_recorded_not_fatal():
    spec = SweepSpec(
        domain=((0.0, 0.0),),
        sample_count=3,
        fixed=ParameterPartition.from_known(4, {1: 1.3, 2: 1.1, 3: 0.9}),
    )
    config = SimulationConfig(
        0.0, 10.0, 10.0 / 999.0, np.array([1.0, 1.0]), ConstantSchedule(LV_OMEGA)
    )
    result = run_sweep(lotka_volterra(), spec, config)
    assert len(result.failures) == 3
    assert "zero parameter draw" in result.failures[0][1]
    assert result.fraction_below(1.0, "max") == 0.0
    assert np.all(np.isnan(result.max_errors))


def test_sweep_deterministic_and_accurate():
    spec = SweepSpec(
        domain=((0.1, 0.9), (0.5, 1.5), (0.7, 1.5), (0.3, 1.2)),
        sample_count=5,
        fixed=ParameterPartition.all_unknown(4),
        seed=8,
    )
    config = SimulationConfig(
        0.0, 10.0, 10.0 / 999.0, np.array([1.0, 1.0]), ConstantSchedule(LV_OMEGA)
    )
    a = run_sweep(lotka_volterra(), spec, config)
    b = run_sweep(lotka_volterra(), spec, config)
    np.testing.assert_array_equal(a.max_errors, b.max_errors)
    assert not a.failures
    assert np.nanmax(a.max_errors) < 1e-3


def test_estimators_reduce_each_series_once(monkeypatch):
    # run_sweep reduces each draw once, its three draws as one chunk, whether
    # or not it also solves the normalized systems; estimate_time_varying
    # reduces its blocks once
    calls = []
    reduce = ParameterPartition.reduce

    def counted(self, matrices, rhs):
        calls.append(np.shape(matrices))
        return reduce(self, matrices, rhs)

    def unused(*args, **kwargs):
        raise AssertionError("the estimators reduce their blocks directly")

    monkeypatch.setattr(ParameterPartition, "reduce", counted)
    monkeypatch.setattr(estimation, "solve_partitioned", unused)
    monkeypatch.setattr(estimation.regression, "apply_partition", unused)
    spec = SweepSpec(
        domain=((0.1, 0.9), (0.5, 1.5)),
        sample_count=3,
        fixed=ParameterPartition.from_known(4, {2: 1.1, 3: 0.9}),
        seed=8,
    )
    config = SimulationConfig(
        0.0, 10.0, 0.1, np.array([1.0, 1.0]), ConstantSchedule(LV_OMEGA)
    )
    for with_normalized in (False, True):
        calls.clear()
        result = run_sweep(lotka_volterra(), spec, config, with_normalized=with_normalized)
        assert not result.failures
        assert calls == [(3, 99, 2, 4)]
    calls.clear()
    series = simulate(lotka_volterra(), config)
    results = estimate_time_varying(lotka_volterra(), series, 5, partition=spec.fixed)
    assert calls == [(99, 2, 4)]
    assert all(values[2:].tolist() == [1.1, 0.9] for values in (e.values for _, e in results))


def test_sweep_draws_match_one_uniform_call_per_interval(monkeypatch):
    # each draw's parameters come from one uniform call over the domain's
    # bounds, the same values as one call per interval
    class Drawn(Exception):
        pass

    def record(model, config, omegas):
        drawn.append(np.array(omegas))
        raise Drawn

    monkeypatch.setattr(estimation, "simulate_draws", record)
    domain = ((0.0, 0.5), (1e-300, 1e300), (-3.0, -3.0), (-2.5, 7.0)) + ((0.0, 0.3),) * 5
    config = SimulationConfig(0.0, 1.0, 0.5, np.ones(9), ConstantSchedule(np.zeros(9)))
    model = ParameterLinearModel("wide", tuple("abcdefghi"), tuple("abcdefghi"), None)
    for seed in range(40):
        spec = SweepSpec(domain, 20, ParameterPartition.all_unknown(9), seed=seed)
        drawn = []
        with pytest.raises(Drawn):
            run_sweep(model, spec, config)
        expected = []
        for index in range(20):
            rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
            expected.append([rng.uniform(lo, hi) for lo, hi in domain])
        assert drawn[0].tobytes() == np.array(expected).tobytes()


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(((0.5, 0.1),), 10, ParameterPartition.all_unknown(1))
    with pytest.raises(ShapeMismatch):
        SweepSpec(((0.1, 0.5),), 10, ParameterPartition.all_unknown(2))
    with pytest.raises(ValueError):
        SweepSpec(((0.1, 0.5),), 0, ParameterPartition.all_unknown(1))


@pytest.mark.parametrize(
    "interval", [(0.0, np.inf), (0.0, np.nan), (-np.inf, 1.0), (np.nan, np.nan)]
)
def test_sweep_spec_rejects_non_finite_bounds(interval):
    # uniform draws on such an interval overflow or are NaN
    with pytest.raises(ValueError, match="not finite"):
        SweepSpec((interval,), 3, ParameterPartition.all_unknown(1))


def test_sweep_spec_rejects_an_interval_wider_than_the_largest_float():
    # numpy's uniform would overflow computing the width, and warn first
    with pytest.raises(ValueError, match="its width is not finite"):
        SweepSpec(((-1e308, 1e308),), 3, ParameterPartition.all_unknown(1))


def _per_draw_reference(model, spec, config, derivative, with_normalized):
    """Sweep errors by one simulate and estimate_constant call per draw.

    A draw whose estimate raises gives a row of NaN.
    """
    unknown = list(spec.fixed.unknown_indices)
    rows = []
    for index in range(spec.sample_count):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
        drawn = np.array([rng.uniform(lo, hi) for lo, hi in spec.domain])
        omega = np.empty(model.n_params)
        omega[list(spec.fixed.known_indices)] = spec.fixed.known_values
        omega[unknown] = drawn
        series = simulate(
            model,
            SimulationConfig(
                config.t0, config.t_end, config.step, config.initial_state,
                ConstantSchedule(omega),
            ),
        )
        row = []
        try:
            for normalize in (False, True) if with_normalized else (False,):
                estimate = estimate_constant(
                    model, series, partition=spec.fixed, derivative=derivative,
                    normalize=normalize,
                )
                errors = np.abs((estimate.values[unknown] - drawn) / drawn)
                row += [errors.max(), errors.mean()]
        except EstimationError:
            row = [np.nan] * (4 if with_normalized else 2)
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize(
    "derivative, with_normalized",
    [("interior", False), ("full", False), ("interior", True)],
)
def test_sweep_matches_per_draw_reference_bit_for_bit(derivative, with_normalized):
    population = 5.6e6 + 1e5 + 1000 + 10
    model = s3i3r(population)
    spec = SweepSpec(
        domain=((0.0, 0.5),) + ((0.0, 0.3),) * 3 + ((0.0, 0.03), (0.0, 0.3), (0.0, 0.5)),
        sample_count=6,
        fixed=ParameterPartition.from_known(8, {model.parameter_index("tau"): 0.0}),
        seed=11,
    )
    config = SimulationConfig(
        0.0, 100.0, 1.0, np.array([5.6e6, 1e5, 1000.0, 10.0, 0.0, 0.0, 0.0]),
        ConstantSchedule(np.zeros(8)),
    )
    result = run_sweep(
        model, spec, config, derivative=derivative, with_normalized=with_normalized
    )
    reference = _per_draw_reference(model, spec, config, derivative, with_normalized)
    assert not result.failures
    got = [result.max_errors, result.mean_errors]
    if with_normalized:
        got += [result.max_errors_normalized, result.mean_errors_normalized]
    np.testing.assert_array_equal(np.column_stack(got), reference)


def test_sweep_mixed_failures_stay_per_draw():
    # large alpha overflows some Lotka-Volterra draws within the first steps;
    # failure steps and finite errors are pinned to the values that one
    # simulate and estimate_constant call per draw gives
    spec = SweepSpec(
        domain=((1.0, 150.0),),
        sample_count=8,
        fixed=ParameterPartition.from_known(4, {1: 1e-3, 2: 1.1, 3: 1e-3}),
        seed=3,
    )
    config = SimulationConfig(
        0.0, 10.0, 0.01, np.array([1.0, 1.0]), ConstantSchedule(np.zeros(4))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(lotka_volterra(), spec, config)
    assert result.failures == [
        (1, "NonFiniteState: non-finite state at step 38 (t=0.37)"),
        (4, "NonFiniteState: non-finite state at step 14 (t=0.13)"),
        (6, "NonFiniteState: non-finite state at step 23 (t=0.22)"),
        (7, "NonFiniteState: non-finite state at step 17 (t=0.16)"),
    ]
    expected = [
        float.fromhex("0x1.521eddfe4f964p-7"),
        np.nan,
        float.fromhex("0x1.5404e7a5e06b9p-13"),
        float.fromhex("0x1.777fc12077bc2p-6"),
        np.nan,
        float.fromhex("0x1.335ee4c86652fp-3"),
        np.nan,
        np.nan,
    ]
    np.testing.assert_array_equal(result.max_errors, expected)
    np.testing.assert_array_equal(result.mean_errors, expected)


@pytest.mark.parametrize(
    "derivative, with_normalized", [("interior", True), ("full", False)]
)
def test_sweep_feature_error_fails_only_its_own_draw(derivative, with_normalized):
    # the features raise on a whole series (t an array) holding a state above
    # 4, never in RK4: the chunk of draws fails and is refitted draw by draw
    def features(states, t):
        if np.ndim(t) > 0 and np.any(states > 4.0):
            raise DegenerateDenominator("a state above 4")
        return np.array(states, dtype=float)

    growth = ParameterLinearModel(
        name="growth",
        state_names=("x",),
        parameter_names=("r",),
        build_matrix=lambda state, t: np.array([[state[0]]]),
        features=features,
        coefficients=np.ones((1, 1, 1)),
    )
    spec = SweepSpec(((0.1, 1.0),), 8, ParameterPartition.all_unknown(1), seed=5)
    config = SimulationConfig(0.0, 2.0, 0.01, np.array([1.0]), ConstantSchedule([0.0]))
    result = run_sweep(
        growth, spec, config, derivative=derivative, with_normalized=with_normalized
    )
    assert result.failures == [
        (index, "DegenerateDenominator: a state above 4") for index in (0, 1, 3, 5, 6)
    ]
    assert all(type(index) is int for index, _ in result.failures)
    assert result.failure_counts == {"DegenerateDenominator": 5}
    got = [result.max_errors, result.mean_errors]
    if with_normalized:
        got += [result.max_errors_normalized, result.mean_errors_normalized]
    reference = _per_draw_reference(growth, spec, config, derivative, with_normalized)
    np.testing.assert_array_equal(np.column_stack(got), reference)
    assert np.isfinite(reference).sum() == 3 * len(got)


def test_sweep_runs_a_scalar_only_model():
    decay = ParameterLinearModel(
        name="decay",
        state_names=("x",),
        parameter_names=("rate",),
        build_matrix=lambda state, t: np.array([[state[0]]]),
    )
    spec = SweepSpec(((-1.0, -0.1),), 4, ParameterPartition.all_unknown(1), seed=2)
    config = SimulationConfig(0.0, 2.0, 0.01, np.array([1.0]), ConstantSchedule([0.0]))
    result = run_sweep(decay, spec, config)
    assert not result.failures
    reference = _per_draw_reference(decay, spec, config, "interior", False)
    np.testing.assert_array_equal(
        np.column_stack([result.max_errors, result.mean_errors]), reference
    )
    assert result.max_errors.max() < 1e-6


def test_sweep_of_n_states_draws_with_a_state_dependent_builder():
    # two draws of a 2-state model: the batch length equals n_states, so a
    # one-state builder returns the expected shape from the whole batch
    swap = ParameterLinearModel(
        name="swap",
        state_names=("x", "y"),
        parameter_names=("a", "b"),
        build_matrix=lambda s, t: np.array([[s[0], s[1]], [s[1], s[0]]]),
    )
    spec = SweepSpec(((0.1, 0.5), (-0.5, -0.1)), 2, ParameterPartition.all_unknown(2))
    config = SimulationConfig(
        0.0, 1.0, 0.01, np.array([1.0, 0.5]), ConstantSchedule([0.0, 0.0])
    )
    result = run_sweep(swap, spec, config)
    assert not result.failures
    reference = _per_draw_reference(swap, spec, config, "interior", False)
    np.testing.assert_array_equal(
        np.column_stack([result.max_errors, result.mean_errors]), reference
    )


def test_sweep_blocks_do_not_change_results(monkeypatch):
    # the mixed-failure sweep again, integrated three draws at a time
    spec = SweepSpec(
        domain=((1.0, 150.0),),
        sample_count=8,
        fixed=ParameterPartition.from_known(4, {1: 1e-3, 2: 1.1, 3: 1e-3}),
        seed=3,
    )
    config = SimulationConfig(
        0.0, 10.0, 0.01, np.array([1.0, 1.0]), ConstantSchedule(np.zeros(4))
    )
    whole = run_sweep(lotka_volterra(), spec, config)
    monkeypatch.setattr(estimation, "SWEEP_BLOCK_VALUES", 3 * 1001 * 2)
    blocks = run_sweep(lotka_volterra(), spec, config)
    assert blocks.failures == whole.failures
    assert blocks.failure_counts == whole.failure_counts == {"NonFiniteState": 4}
    np.testing.assert_array_equal(blocks.max_errors, whole.max_errors)
    np.testing.assert_array_equal(blocks.mean_errors, whole.mean_errors)


@pytest.mark.parametrize("name", ["lotka_volterra", "sir", "s3i3r"])
def test_formulate_is_byte_identical_to_weighting_matrices(name, item_assigned_matrices):
    # Simpson weights applied to the features before the table give the same
    # bytes as weights applied to the matrices built entry by entry
    if name == "lotka_volterra":
        model, x0, population = lotka_volterra(), [1.0, 1.0], None
    elif name == "sir":
        model, x0, population = sir(5.7e6), [5.6e6, 1e5, 0.0], 5.7e6
    else:
        population = 5.6e6 + 1e5 + 1010.0
        model, x0 = s3i3r(population), [5.6e6, 1e5, 1000.0, 10.0, 0.0, 0.0, 0.0]
    omega = np.random.default_rng(17).uniform(0.05, 0.4, model.n_params)
    config = SimulationConfig(0.0, 40.0, 0.5, np.array(x0), ConstantSchedule(omega))
    series = simulate(model, config)
    times, states = series.times, series.states
    built = item_assigned_matrices(name, states, population)
    h1, h2 = times[1:-1] - times[:-2], times[2:] - times[1:-1]
    span = times[2:] - times[:-2]
    expected = (
        (2.0 - h2 / h1)[:, None, None] * built[:-2]
        + (span * span / (h1 * h2))[:, None, None] * built[1:-1]
        + (2.0 - h1 / h2)[:, None, None] * built[2:]
    ) / 6.0
    # the table product adds +0.0 terms, so an exact zero such as -R1/V at
    # R1 = 0 comes out as +0.0 where the entry-by-entry builder gave -0.0;
    # adding 0.0 maps both to +0.0 and leaves every other value's bytes alone
    matrices, _ = estimation._formulate(model, times, states, "interior")
    assert (matrices + 0.0).tobytes() == (expected + 0.0).tobytes()
    matrices, _ = estimation._formulate(model, times, states, "full")
    assert (matrices + 0.0).tobytes() == (built + 0.0).tobytes()


def test_readme_windowed_snippet_runs():
    # the quick start defines the model and the 80-day series that the
    # windowed snippet fits; days 13..79 have a full 14-day window
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block.split("```")[0] for block in readme.split("```python\n")[1:]]
    (quick_start,) = [block for block in blocks if "simulate(model, config)" in block]
    (windowed,) = [block for block in blocks if "estimate_time_varying(" in block]
    namespace = {}
    exec(quick_start, namespace)
    exec(windowed, namespace)
    results = namespace["results"]
    assert isinstance(results, WindowedEstimates) and len(results) == 67
    assert results.times[0] == 13.0
    assert np.all(results.values[:, 1] == 1 / 3)


def test_windowed_fit_rejects_a_negative_ridge(sir_trajectory):
    # the window solver checks the ridge as solve_batch does, before any work
    with pytest.raises(ValueError) as batch:
        regression.solve_batch(np.ones((1, 3, 2)), np.ones((1, 3)), -1e-9)
    for width in (1, 14):
        with pytest.raises(ValueError, match=re.escape(str(batch.value))):
            estimate_time_varying(sir(1.0), sir_trajectory, width, ridge_lambda=-1e-9)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            estimate_time_varying(sir(1.0), sir_trajectory, 14, ridge_lambda=lam)
    with pytest.raises(ValueError, match=re.escape(str(batch.value))):
        regression.solve_windows(np.ones(3), np.ones(2), 0, ridge_lambda=-1e-9)


def test_windowed_fit_checks_the_ridge_when_it_solves_nothing(sir_trajectory):
    # a series shorter than 3 samples or a width above its length fits no
    # window, and still refuses a negative ridge
    for count, width in ((5, 14), (2, 1)):
        series = TimeSeries(sir_trajectory.times[:count], sir_trajectory.states[:count])
        assert len(estimate_time_varying(sir(1.0), series, width)) == 0
        with pytest.raises(ValueError, match="finite and nonnegative"):
            estimate_time_varying(sir(1.0), series, width, ridge_lambda=-1e-9)


def test_solve_windows_checks_its_inputs():
    blocks, targets = np.ones((4, 3, 2)), np.ones((4, 3))
    for bad_blocks, bad_targets in (
        (blocks[0], targets[0]),
        (blocks, targets[:, :2]),
        (blocks[:0], targets[:0]),
    ):
        with pytest.raises(ShapeMismatch):
            regression.solve_windows(bad_blocks, bad_targets, 1)
    for width in (0, 7):
        with pytest.raises(ValueError, match="1 .. count \\+ 2"):
            regression.solve_windows(blocks, targets, width)
    ends, solution = regression.solve_windows(blocks, targets, 6)
    assert ends.tolist() == [5] and solution.values.shape == (1, 2)


@pytest.mark.parametrize("derivative", ["interior", "full"])
def test_non_finite_features_get_the_verdict_without_numpy_warnings(derivative):
    # an inf feature meets the coefficient table's zeros while formulating;
    # the fit reports NonFiniteSystem, not numpy's "invalid value" warning
    times = np.linspace(0.0, 10.0, 21)
    series = TimeSeries(times, np.sin(times)[:, None])
    build = lambda state, t: np.array([[1.0 + state[0], np.inf if t == 6.0 else t]])
    model = ParameterLinearModel("bad", ("x",), ("a", "b"), build)
    message = "the system has a non-finite entry"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteSystem, match=message):
            estimate_constant(model, series, derivative=derivative)
        if derivative == "interior":
            with pytest.raises(NonFiniteSystem, match=message):
                estimate_time_varying(model, series, 3)


def test_known_share_of_an_inf_feature_gets_the_verdict_without_numpy_warnings():
    # the known column holds inf at t = 6 and its value is 0: the reduced rhs
    # is NaN there, which the solver reports, with no "invalid value" warning
    times = np.linspace(0.0, 10.0, 21)
    series = TimeSeries(times, np.sin(times)[:, None])
    build = lambda state, t: np.array([[1.0 + state[0], np.inf if t == 6.0 else t]])
    model = ParameterLinearModel("bad", ("x",), ("a", "b"), build)
    partition = ParameterPartition.from_known(2, {1: 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteSystem, match="the system has a non-finite entry"):
            estimate_constant(model, series, partition=partition)
        with pytest.raises(NonFiniteSystem, match="the system has a non-finite entry"):
            estimate_time_varying(model, series, 3, partition=partition)


def test_package_all_is_every_public_import():
    # __all__ is derived from the package's imports: no submodule, no private
    # name, and a star import binds each of its names to the same object
    import types

    import artifact

    assert artifact.__all__ == sorted(set(artifact.__all__))
    for name in artifact.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(artifact, name), types.ModuleType)
    assert "estimate_time_varying" in artifact.__all__ and "regression" not in artifact.__all__
    namespace = {}
    exec("from artifact import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == artifact.__all__
    for name in artifact.__all__:
        assert namespace[name] is getattr(artifact, name)
    # every public attribute that is not a submodule is exported
    public = [name for name in vars(artifact) if not name.startswith("_")]
    modules = [name for name in public if isinstance(getattr(artifact, name), types.ModuleType)]
    assert sorted(set(public) - set(modules)) == artifact.__all__
