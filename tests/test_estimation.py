"""System assembly, constant and windowed fits, noise and sweeps."""

import warnings

import numpy as np
import pytest

from artifact import estimation
from artifact import (
    ConstantSchedule,
    EstimationWindow,
    NoiseSpec,
    ParameterLinearModel,
    ParameterPartition,
    ShapeMismatch,
    SimulationConfig,
    StackedSystem,
    SweepSpec,
    TimeSeries,
    TooFewPoints,
    UnderDetermined,
    add_noise,
    assemble_from_series,
    estimate_constant,
    estimate_time_varying,
    eval_rhs,
    lotka_volterra,
    relative_error_metrics,
    run_sweep,
    s3i3r,
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


def test_window_nesting(sir_trajectory):
    """Stacking two adjacent windows reproduces the combined system."""
    model = sir(1.0)
    whole = assemble_from_series(model, sir_trajectory, EstimationWindow.span(1, 40))
    left = assemble_from_series(model, sir_trajectory, EstimationWindow.span(1, 20))
    right = assemble_from_series(model, sir_trajectory, EstimationWindow.span(21, 40))
    np.testing.assert_array_equal(
        whole.matrix, np.vstack([left.matrix, right.matrix])
    )
    np.testing.assert_array_equal(whole.rhs, np.concatenate([left.rhs, right.rhs]))


def test_interior_rows_integrate_cubic_exactly(sir_trajectory):
    """Interior rows are exact for dx/dt = w t^2, and windows slice them.

    Simpson's rule integrates t^2 exactly on any grid, so x = w t^3 / 3
    gives w back to roundoff on a uniform and a non-uniform grid. Pairing
    A(t_i) with the central difference instead misses by 3.6e-4 and 1.5e-3
    on these grids. Each per-day estimate equals the constant estimate over
    the same trimmed window, bit for bit.
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
    width = 5
    for model, series in cases:
        n = len(series)
        results = estimate_time_varying(model, series, width)
        assert [t for t, _ in results] == list(series.times[width - 1 :])
        for i, (_, estimate) in enumerate(results, start=width - 1):
            window = EstimationWindow.span(max(i - width + 1, 1), min(i, n - 2))
            np.testing.assert_array_equal(
                estimate.values, estimate_constant(model, series, window).values
            )


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


def test_time_varying_on_constant_data():
    """Every windowed estimate agrees with the constant truth, any width."""
    config = SimulationConfig(
        0.0, 40.0, 0.25, np.array([0.9999, 1e-4, 0.0]), ConstantSchedule(SIR_OMEGA)
    )
    series = simulate(sir(1.0), config)
    expected_counts = {2: 160, 5: 157, 14: 148, 56: 106}
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


def test_noise_spec_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1)


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


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(((0.5, 0.1),), 10, ParameterPartition.all_unknown(1))
    with pytest.raises(ShapeMismatch):
        SweepSpec(((0.1, 0.5),), 10, ParameterPartition.all_unknown(2))
    with pytest.raises(ValueError):
        SweepSpec(((0.1, 0.5),), 0, ParameterPartition.all_unknown(1))


def _per_draw_reference(model, spec, config, derivative, with_normalized):
    """Sweep errors by one simulate and estimate_constant call per draw."""
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
        for normalize in (False, True) if with_normalized else (False,):
            estimate = estimate_constant(
                model, series, partition=spec.fixed, derivative=derivative,
                normalize=normalize,
            )
            errors = np.abs((estimate.values[unknown] - drawn) / drawn)
            row += [errors.max(), errors.mean()]
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
