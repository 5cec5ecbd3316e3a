"""End-to-end recovery experiments, one test per shipped guarantee.

Each test states its tolerance and wall-clock budget inline. Reference
percent-error tables for the subsample/noise experiment come from
independent runs of the same design and are compared ratio-wise.
"""

import time
import warnings

import numpy as np
import pytest
from conftest import synthetic_daily_counts

from artifact import (
    ConstantSchedule,
    EstimationWindow,
    FixedRates,
    NoiseSpec,
    ParameterPartition,
    PiecewiseSchedule,
    RawDailySeries,
    SimulationConfig,
    SinusoidalBetaSchedule,
    SweepSpec,
    add_noise,
    advected_diffusion_stack,
    build_s3i3r_states,
    build_sir_states,
    central_diff,
    erk4_step,
    estimate_constant,
    estimate_inverse_re,
    estimate_reynolds,
    estimate_time_varying,
    lotka_volterra,
    manufactured_diffusion_stack,
    relative_error_metrics,
    run_sweep,
    s3i3r,
    s3i3r_matrix,
    sample_sensors,
    simulate,
    sir,
    solve_ols,
    solve_ridge,
    subsample_noise_table,
    StackedSystem,
    TimeSeries,
)

LV_OMEGA = np.array([0.7, 1.3, 1.1, 0.9])
S3_OMEGA = np.array([0.5, 1 / 3, 1 / 20, 1 / 20, 0.0, 1 / 10, 1 / 20, 1 / 20])

# percent errors, rows = sample counts (5, 10, 50, 100),
# columns = noise levels (0, 0.01, 0.05, 0.10)
REFERENCE_PERCENT = {
    0: [[37.75, 38.32, 35.26, 33.79], [21.63, 22.18, 22.76, 25.62],
        [1.11, 1.00, 3.95, 14.36], [0.29, 0.62, 2.38, 7.09]],
    1: [[38.12, 38.55, 37.43, 35.67], [21.72, 21.94, 23.30, 31.57],
        [1.15, 1.33, 5.36, 18.47], [0.30, 0.83, 4.15, 10.67]],
    2: [[66.05, 66.27, 65.83, 72.39], [8.62, 7.85, 10.80, 18.13],
        [0.45, 1.19, 4.90, 13.94], [0.12, 0.27, 4.80, 11.66]],
    3: [[70.77, 71.13, 72.02, 78.90], [12.44, 11.71, 15.96, 25.94],
        [0.67, 1.32, 6.38, 19.46], [0.18, 0.44, 6.46, 17.73]],
}


def test_criterion_01_sir_constant_recovery():
    config = SimulationConfig(
        0.0, 79.0, 1.0, np.array([0.9999, 1e-4, 0.0]), ConstantSchedule([0.5, 1 / 3])
    )
    series = simulate(sir(1.0), config)
    start = time.perf_counter()
    estimate = estimate_constant(
        sir(1.0), series, EstimationWindow.span(0, 49), derivative="full"
    )
    elapsed = time.perf_counter() - start
    rel = np.abs((estimate.values - [0.5, 1 / 3]) / np.array([0.5, 1 / 3]))
    assert rel[0] <= 1e-3, f"beta relative error {rel[0]:.3e}"
    assert rel[1] <= 2e-3, f"gamma relative error {rel[1]:.3e}"
    assert elapsed < 1.0


def test_criterion_02_s3i3r_constant_recovery():
    model = s3i3r(1.0)
    config = SimulationConfig(
        0.0,
        41.0,
        1.0,
        np.array([0.9999, 1e-4, 0, 0, 0, 0, 0]),
        ConstantSchedule(S3_OMEGA),
    )
    series = simulate(model, config)
    partition = ParameterPartition.from_known(8, {model.parameter_index("tau"): 0.0})
    start = time.perf_counter()
    estimate = estimate_constant(
        model, series, EstimationWindow.span(1, 28), partition=partition
    )
    elapsed = time.perf_counter() - start
    rel = np.abs(
        (estimate.values - S3_OMEGA) / np.where(S3_OMEGA == 0, 1.0, S3_OMEGA)
    )
    errors = {
        name: rel[model.parameter_index(name)]
        for name in ("beta", "phi1", "phi2", "theta")
    }
    assert elapsed < 1.0
    assert all(value <= 5e-3 for value in errors.values()), (
        "relative errors "
        + ", ".join(f"{name}={value:.4e}" for name, value in errors.items())
    )


def test_criterion_03_noise_tables_match_reference(lv_trajectory):
    start = time.perf_counter()
    table = subsample_noise_table(lotka_volterra(), lv_trajectory, LV_OMEGA, seed=100)
    elapsed = time.perf_counter() - start
    for p in range(4):
        reference = np.array(REFERENCE_PERCENT[p])
        noiseless = table[p][:, 0] / reference[:, 0]
        assert np.abs(noiseless - 1.0).max() <= 0.20, (
            f"param {p} noiseless deviation {np.abs(noiseless - 1.0).max():.4f}"
        )
        noisy = table[p][:, 1:] / reference[:, 1:]
        assert noisy.min() >= 0.5 and noisy.max() <= 2.0, (
            f"param {p} noisy ratio range [{noisy.min():.4f}, {noisy.max():.4f}]"
        )
    assert elapsed < 10.0


def test_criterion_04_sir_sweep():
    spec = SweepSpec(
        domain=((0.0, 0.5), (0.0, 0.3)),
        sample_count=1000,
        fixed=ParameterPartition.all_unknown(2),
        seed=0,
    )
    config = SimulationConfig(
        0.0, 80.0, 0.25, np.array([5.6e6, 1e5, 0.0]), ConstantSchedule([0.3, 0.1])
    )
    start = time.perf_counter()
    result = run_sweep(sir(5.7e6), spec, config)
    elapsed = time.perf_counter() - start
    assert result.fraction_below(0.05, "max") == 1.0
    assert result.fraction_below(0.005, "max") >= 0.90
    assert elapsed < 30.0


def test_criterion_05_s3i3r_sweep():
    population = 5.6e6 + 1e5 + 1000 + 10
    model = s3i3r(population)
    spec = SweepSpec(
        domain=(
            (0.0, 0.5),
            (0.0, 0.3),
            (0.0, 0.3),
            (0.0, 0.3),
            (0.0, 0.03),
            (0.0, 0.3),
            (0.0, 0.5),
        ),
        sample_count=2000,
        fixed=ParameterPartition.from_known(8, {model.parameter_index("tau"): 0.0}),
        seed=0,
    )
    config = SimulationConfig(
        0.0,
        100.0,
        1.0,
        np.array([5.6e6, 1e5, 1000.0, 10.0, 0.0, 0.0, 0.0]),
        ConstantSchedule(S3_OMEGA),
    )
    start = time.perf_counter()
    result = run_sweep(model, spec, config, workers=4)
    elapsed = time.perf_counter() - start
    assert result.fraction_below(0.10, "mean") >= 0.80, (
        f"fraction {result.fraction_below(0.10, 'mean'):.4f}"
    )
    assert elapsed < 120.0


def test_criterion_06_time_varying_tracking():
    start = time.perf_counter()

    schedule = SinusoidalBetaSchedule([0.4, 1 / 3], 0.4, 0.05, 70.0, 0)
    config = SimulationConfig(
        0.0, 70.0, 1.0, np.array([0.9999, 1e-4, 0.0]), schedule
    )
    series = simulate(sir(1.0), config)
    results = estimate_time_varying(sir(1.0), series, 1)
    times = np.array([t for t, _ in results])
    values = np.array([e.values for _, e in results])
    truth = np.column_stack(
        [[schedule.value_at(t) for t in times], np.full(len(times), 1 / 3)]
    )
    metrics = relative_error_metrics(truth, values)
    assert metrics.absolute_mean[0] <= 2.1e-2, f"MRE beta {metrics.absolute_mean[0]:.3e}"
    assert metrics.absolute_mean[1] <= 2.0e-2, f"MRE gamma {metrics.absolute_mean[1]:.3e}"

    model = s3i3r(1.0)
    base = S3_OMEGA.copy()
    base[0] = 0.4
    schedule7 = SinusoidalBetaSchedule(base, 0.4, 0.05, 56.0, 0)
    config7 = SimulationConfig(
        0.0, 56.0, 1.0, np.array([0.9999, 1e-4, 0, 0, 0, 0, 0]), schedule7
    )
    series7 = simulate(model, config7)
    partition = ParameterPartition.from_known(8, {model.parameter_index("tau"): 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results7 = estimate_time_varying(model, series7, 1, partition=partition)
    times7 = np.array([t for t, _ in results7])
    values7 = np.array([e.values for _, e in results7])
    truth7 = np.tile(base, (len(times7), 1))
    truth7[:, 0] = [schedule7.value_at(t) for t in times7]
    metrics7 = relative_error_metrics(truth7, values7)
    beta_mre = metrics7.absolute_mean[model.parameter_index("beta")]
    theta_mre = metrics7.absolute_mean[model.parameter_index("theta")]
    assert beta_mre <= 6e-2, f"MRE beta {beta_mre:.3e}"
    assert theta_mre <= 1.4e-1, f"MRE theta {theta_mre:.3e}"

    assert time.perf_counter() - start < 5.0


def test_criterion_07_cylinder_snapshots():
    pytest.skip("cylinder snapshot dataset not present in this checkout")


def test_criterion_08_manufactured_field_convergence():
    start = time.perf_counter()
    coarse = manufactured_diffusion_stack(0.01, 129, 129, 51, 0.05)
    coarse_error = abs(estimate_inverse_re(coarse) - 0.01) / 0.01
    assert coarse_error < 0.01, f"relative error {coarse_error:.3e}"
    fine = manufactured_diffusion_stack(0.01, 257, 257, 101, 0.025)
    fine_error = abs(estimate_inverse_re(fine) - 0.01) / 0.01
    assert coarse_error / fine_error >= 3.0, (
        f"refinement ratio {coarse_error / fine_error:.2f}"
    )
    assert time.perf_counter() - start < 60.0


def test_criterion_08_advected_field_convergence():
    # uniform advection exercises the u w_x + v w_y terms end to end
    start = time.perf_counter()
    errors = []
    for n, snapshots, dt in ((65, 21, 0.05), (129, 41, 0.025)):
        stack = advected_diffusion_stack(0.01, 0.3, 0.2, n, n, snapshots, dt)
        errors.append(abs(estimate_inverse_re(stack) - 0.01) / 0.01)
        estimates = estimate_reynolds(
            stack, (0.5, 2.5, 0.5, 2.5), [4, 8, 16, 32, 64], repeats=20, seed=0
        )
        for estimate in estimates:
            worst = max(abs(re - 100.0) / 100.0 for re in estimate.per_seed)
            assert worst < 0.01, f"{n}^2, {estimate.sensor_count} sensors: {worst:.3e}"
    assert errors[0] < 0.01, f"relative error {errors[0]:.3e}"
    assert errors[0] / errors[1] >= 3.0, f"refinement ratio {errors[0] / errors[1]:.2f}"
    assert time.perf_counter() - start < 10.0


def test_criterion_09_property_suite(lv_trajectory):
    # least-squares residual is orthogonal to the column space
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(40, 4))
    rhs = rng.normal(size=40)
    system = StackedSystem(matrix, rhs)
    fit = solve_ols(system)
    gradient = matrix.T @ (matrix @ fit.values - rhs)
    assert np.abs(gradient).max() <= 1e-8 * np.abs(matrix.T @ rhs).max()

    # zero ridge penalty reduces to plain least squares
    np.testing.assert_array_equal(solve_ridge(system, 0.0).values, fit.values)

    # no grid neighbor of the solution fits better
    small = StackedSystem(rng.normal(size=(6, 2)), rng.normal(size=6))
    best = solve_ols(small)
    best_norm = np.linalg.norm(small.matrix @ best.values - small.rhs)
    offsets = np.linspace(-0.5, 0.5, 21)
    for da in offsets:
        for db in offsets:
            candidate = best.values + [da, db]
            norm = np.linalg.norm(small.matrix @ candidate - small.rhs)
            assert norm >= best_norm - 1e-12

    # step halving shrinks the integrator error by a fourth-order factor
    from artifact import ParameterLinearModel

    decay = ParameterLinearModel(
        name="decay",
        state_names=("x",),
        parameter_names=("rate",),
        build_matrix=lambda state, t: np.array([[state[0]]]),
    )

    def endpoint_error(h):
        state = np.array([1.0])
        for k in range(int(round(1.0 / h))):
            state = erk4_step(decay, state, k * h, [-1.0], h)
        return abs(state[0] - np.exp(-1.0))

    factor = endpoint_error(0.1) / endpoint_error(0.05)
    assert 14.0 <= factor <= 18.0

    # central differences are exact on quadratics
    t = np.linspace(0.0, 2.0, 41)
    derivative = central_diff(TimeSeries(t, t**2))
    assert np.abs(derivative.states[:, 0] - 2.0 * t[1:-1]).max() < 1e-12

    # epidemic interaction matrix columns conserve population
    state_rng = np.random.default_rng(3)
    for _ in range(20):
        state = state_rng.uniform(0.01, 1.0, size=7)
        matrix7 = s3i3r_matrix(state, state.sum() + 1.0)
        sums = np.abs(matrix7.sum(axis=0))
        assert sums.max() <= 1e-12 * np.abs(matrix7).max()

    # integer closure of both compartment reconstructions
    from datetime import date, timedelta

    dates = tuple(date(2021, 1, 1) + timedelta(days=k) for k in range(30))
    counts = state_rng.integers(0, 40, size=30)
    raw = RawDailySeries(dates=dates, new_cases=counts)
    sir_states = build_sir_states(raw, 50000, FixedRates())
    np.testing.assert_array_equal(sir_states.states.sum(axis=1), np.full(30, 50000.0))
    zeros = np.zeros(30, dtype=int)
    raw7 = RawDailySeries(
        dates=dates,
        new_cases=counts,
        new_deaths=zeros,
        new_vaccinated=zeros,
        new_hospitalized=zeros,
        new_icu=zeros,
    )
    s3_states = build_s3i3r_states(raw7, 50000, FixedRates())
    assert np.abs(s3_states.states.sum(axis=1) - 50000.0).max() == 0.0

    # every stochastic path is reproducible from its seed
    noisy_a = add_noise(lv_trajectory, NoiseSpec(0.05, seed=7))
    noisy_b = add_noise(lv_trajectory, NoiseSpec(0.05, seed=7))
    np.testing.assert_array_equal(noisy_a.states, noisy_b.states)
    table_a = subsample_noise_table(
        lotka_volterra(), lv_trajectory, LV_OMEGA,
        points=(5,), noise_levels=(0.05,), draws=3, seed=2,
    )
    table_b = subsample_noise_table(
        lotka_volterra(), lv_trajectory, LV_OMEGA,
        points=(5,), noise_levels=(0.05,), draws=3, seed=2,
    )
    np.testing.assert_array_equal(table_a, table_b)
    spec = SweepSpec(
        domain=((0.1, 0.9), (0.5, 1.5), (0.7, 1.5), (0.3, 1.2)),
        sample_count=5,
        fixed=ParameterPartition.all_unknown(4),
        seed=8,
    )
    config = SimulationConfig(
        0.0, 10.0, 10.0 / 999.0, np.array([1.0, 1.0]), ConstantSchedule(LV_OMEGA)
    )
    sweep_a = run_sweep(lotka_volterra(), spec, config)
    sweep_b = run_sweep(lotka_volterra(), spec, config)
    np.testing.assert_array_equal(sweep_a.max_errors, sweep_b.max_errors)
    stack = manufactured_diffusion_stack(0.01, 33, 33, 11, 0.1)
    region = (0.5, 2.5, 0.5, 2.5)
    assert (
        sample_sensors(stack, region, 5, seed=6).positions
        == sample_sensors(stack, region, 5, seed=6).positions
    )
    re_a = estimate_reynolds(stack, region, [4], repeats=2, seed=3)
    re_b = estimate_reynolds(stack, region, [4], repeats=2, seed=3)
    assert re_a[0].per_seed == re_b[0].per_seed


def test_criterion_10_case_count_round_trip():
    population = 5.7e6
    n_days = 130
    counts = synthetic_daily_counts(n_days)
    from datetime import date, timedelta

    dates = tuple(date(2020, 3, 1) + timedelta(days=k) for k in range(n_days))
    raw = RawDailySeries(dates=dates, new_cases=counts)
    series = build_sir_states(raw, int(population), FixedRates(gamma1=0.072))
    model = sir(population)
    partition = ParameterPartition.from_known(2, {1: 0.072})
    results = estimate_time_varying(model, series, 14, partition=partition)
    days = np.array([t for t, _ in results])
    betas = np.array([e.values[0] for _, e in results])
    true_beta = 0.078 - 0.012 * days / 130.0
    interior = (days >= 28) & (days <= 127)
    rel = np.abs(betas[interior] - true_beta[interior]) / true_beta[interior]
    assert rel.max() <= 0.05, f"interior max {rel.max():.4f}"

    schedule = PiecewiseSchedule(days, np.column_stack([betas, np.full(len(days), 0.072)]))
    resim = simulate(
        model,
        SimulationConfig(28.0, float(n_days - 1), 1.0, series.states[28], schedule),
    )
    data_infected = series.states[28:, 1]
    deviation = np.abs(resim.states[:, 1] - data_infected) / np.where(
        data_infected == 0, 1.0, data_infected
    )
    deviation = deviation[data_infected > 0]
    assert len(deviation) >= 100
    assert deviation.max() <= 0.25, f"resim max {deviation.max():.4f}"
    assert deviation.mean() <= 0.10, f"resim mean {deviation.mean():.4f}"
