"""Fixed-step RK4: order, conservation and schedule behavior."""

import warnings

import numpy as np
import pytest

from artifact import (
    ConstantSchedule,
    DegenerateDenominator,
    NonFiniteState,
    ParameterLinearModel,
    PiecewiseSchedule,
    ShapeMismatch,
    SimulationConfig,
    SinusoidalBetaSchedule,
    erk4_step,
    eval_rhs,
    lotka_volterra,
    s3i3r,
    simulate,
    sir,
)
from artifact.integrator import STEP_BLOCK, simulate_draws


def decay_model():
    return ParameterLinearModel(
        name="decay",
        state_names=("x",),
        parameter_names=("rate",),
        build_matrix=lambda state, t: np.array([[state[0]]]),
    )


def test_zero_omega_keeps_state():
    state = np.array([0.4, 0.6])
    stepped = erk4_step(lotka_volterra(), state, 0.0, np.zeros(4), 0.5)
    np.testing.assert_array_equal(stepped, state)


def test_exponential_decay_ten_steps():
    # exact stability-function arithmetic: |R(-0.1)^10 - e^-1| = 3.33e-7
    model = decay_model()
    state = np.array([1.0])
    for k in range(10):
        state = erk4_step(model, state, 0.1 * k, [-1.0], 0.1)
    assert abs(state[0] - np.exp(-1.0)) < 5e-7


def test_single_step_conserves_population():
    model = sir(1.0)
    state = np.array([0.9999, 1e-4, 0.0])
    stepped = erk4_step(model, state, 0.0, [0.5, 1.0 / 3.0], 1.0)
    assert abs(stepped.sum() - 1.0) <= 1e-12


def test_simulate_conserves_population_full_run():
    schedule = SinusoidalBetaSchedule([0.4, 1.0 / 3.0], 0.4, 0.05, 70.0, 0)
    config = SimulationConfig(0.0, 70.0, 1.0, np.array([0.9999, 1e-4, 0.0]), schedule)
    trajectory = simulate(sir(1.0), config)
    assert np.abs(trajectory.states.sum(axis=1) - 1.0).max() <= 1e-9


def test_simulate_conserves_large_population():
    config = SimulationConfig(
        0.0, 80.0, 0.25, np.array([5.6e6, 1e5, 0.0]), ConstantSchedule([0.3, 0.1])
    )
    trajectory = simulate(sir(5.7e6), config)
    assert np.abs(trajectory.states.sum(axis=1) - 5.7e6).max() <= 1e-9 * 5.7e6


def test_fourth_order_halving_factor():
    model = decay_model()

    def endpoint_error(h):
        config = SimulationConfig(0.0, 1.0, h, np.array([1.0]), ConstantSchedule([-1.0]))
        return abs(simulate(model, config).states[-1, 0] - np.exp(-1.0))

    factor = endpoint_error(0.1) / endpoint_error(0.05)
    assert 14.0 <= factor <= 18.0


def test_simulate_grid_and_determinism():
    config = SimulationConfig(
        0.0, 79.0, 1.0, np.array([0.9999, 1e-4, 0.0]), ConstantSchedule([0.5, 1.0 / 3.0])
    )
    a = simulate(sir(1.0), config)
    b = simulate(sir(1.0), config)
    assert len(a) == 80
    np.testing.assert_array_equal(a.times, np.arange(80.0))
    np.testing.assert_array_equal(a.states, b.states)
    # epidemic shape: infections rise to a peak and decline afterwards
    peak = int(np.argmax(a.states[:, 1]))
    assert 0 < peak < 79
    assert a.states[-1, 1] < a.states[peak, 1]


def test_piecewise_schedule_matches_constant():
    table_schedule = PiecewiseSchedule([0.0], [[0.5, 1.0 / 3.0]])
    config = SimulationConfig(
        0.0, 30.0, 1.0, np.array([0.9999, 1e-4, 0.0]), table_schedule
    )
    reference = SimulationConfig(
        0.0, 30.0, 1.0, np.array([0.9999, 1e-4, 0.0]), ConstantSchedule([0.5, 1.0 / 3.0])
    )
    np.testing.assert_array_equal(
        simulate(sir(1.0), config).states, simulate(sir(1.0), reference).states
    )


def test_piecewise_schedule_lookup():
    schedule = PiecewiseSchedule([1.0, 3.0], [[0.1, 0.2], [0.3, 0.4]])
    np.testing.assert_array_equal(schedule.omega_at(0.0), [0.1, 0.2])
    np.testing.assert_array_equal(schedule.omega_at(1.0), [0.1, 0.2])
    np.testing.assert_array_equal(schedule.omega_at(2.9), [0.1, 0.2])
    np.testing.assert_array_equal(schedule.omega_at(3.0), [0.3, 0.4])
    with pytest.raises(ValueError):
        PiecewiseSchedule([1.0, 1.0], [[0.1], [0.2]])


def test_sinusoidal_schedule_values():
    schedule = SinusoidalBetaSchedule([0.4, 0.3], 0.4, 0.05, 70.0, 0)
    assert schedule.value_at(0.0) == pytest.approx(0.4)
    assert schedule.value_at(17.5) == pytest.approx(0.45)
    omega = schedule.omega_at(17.5)
    assert omega[1] == 0.3
    with pytest.raises(ValueError):
        SinusoidalBetaSchedule([0.4, 0.3], 0.4, 0.05, 0.0, 0)
    with pytest.raises(ShapeMismatch):
        SinusoidalBetaSchedule([0.4, 0.3], 0.4, 0.05, 70.0, 5)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(1.0, 1.0, 0.1, np.zeros(2), ConstantSchedule(np.zeros(4)))
    with pytest.raises(ValueError):
        SimulationConfig(0.0, 1.0, 2.0, np.zeros(2), ConstantSchedule(np.zeros(4)))


@pytest.mark.parametrize(
    "t0, t_end, step",
    [
        (0.0, np.inf, 0.1),
        (-np.inf, 1.0, 0.1),
        (0.0, np.nan, 0.1),
        (np.nan, 1.0, 0.1),
        (0.0, 1.0, np.nan),
        (0.0, 1.0, np.inf),
    ],
)
def test_config_rejects_non_finite_times(t0, t_end, step):
    with pytest.raises(ValueError, match="must be finite"):
        SimulationConfig(t0, t_end, step, np.zeros(2), ConstantSchedule(np.zeros(4)))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ConstantSchedule([np.nan, 0.3]), "omega"),
        (lambda: ConstantSchedule([np.inf, 0.3]), "omega"),
        (lambda: PiecewiseSchedule([0.0, 1.0], [[0.5, 0.3], [np.nan, 0.3]]), "values"),
        (lambda: SinusoidalBetaSchedule([0.5, 0.3], np.nan, 0.1, 10.0), "mean"),
        (lambda: SinusoidalBetaSchedule([0.5, 0.3], 0.4, np.inf, 10.0), "amplitude"),
        (lambda: SinusoidalBetaSchedule([0.5, 0.3], 0.4, 0.1, np.nan), "period"),
        (lambda: SinusoidalBetaSchedule([0.5, 0.3], 0.4, 0.1, np.inf), "period"),
        (lambda: SinusoidalBetaSchedule([0.5, np.nan], 0.4, 0.1, 10.0), "base_omega"),
    ],
    ids=["omega-nan", "omega-inf", "values-nan", "mean-nan", "amplitude-inf", "period-nan",
         "period-inf", "base-nan"],
)
def test_schedules_reject_non_finite_parameters(build, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        build()


def test_initial_state_shape_checked():
    config = SimulationConfig(
        0.0, 1.0, 0.1, np.array([1.0, 1.0]), ConstantSchedule([0.5, 0.3])
    )
    with pytest.raises(ShapeMismatch):
        simulate(sir(1.0), config)


def test_overflow_raises_non_finite():
    blow_up = ParameterLinearModel(
        name="blow_up",
        state_names=("x",),
        parameter_names=("rate",),
        build_matrix=lambda state, t: np.array([[state[0]]]),
    )
    config = SimulationConfig(
        0.0, 1.0, 0.1, np.array([1e154]), ConstantSchedule([1e154])
    )
    # the overflow is the loop's verdict, not a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState, match=r"at step 1 \(t=0.0\)"):
            simulate(blow_up, config)


def test_simulate_draws_equal_one_draw_runs_bit_for_bit():
    model = sir(5.7e6)
    config = SimulationConfig(
        0.0, 80.0, 0.25, np.array([5.6e6, 1e5, 0.0]), ConstantSchedule([0.0, 0.0])
    )
    omegas = np.random.default_rng(6).uniform(0.01, 0.5, (5, 2))
    times, states, failures = simulate_draws(model, config, omegas)
    assert failures == {}
    for omega, trajectory in zip(omegas, states):
        one = simulate(
            model,
            SimulationConfig(
                config.t0, config.t_end, config.step, config.initial_state,
                ConstantSchedule(omega),
            ),
        )
        np.testing.assert_array_equal(times, one.times)
        np.testing.assert_array_equal(trajectory, one.states)


def test_simulate_draws_isolates_a_raising_draw():
    # a batched builder that refuses states below 0.5; only the fastest
    # decaying draw gets there within the horizon
    def build(states, t):
        if np.any(states < 0.5):
            raise DegenerateDenominator("state below 0.5")
        return states[..., None]

    model = ParameterLinearModel("guarded", ("x",), ("rate",), build)
    config = SimulationConfig(0.0, 1.0, 0.1, np.array([1.0]), ConstantSchedule([0.0]))
    omegas = np.array([[-0.1], [-2.0], [-0.2]])
    times, states, failures = simulate_draws(model, config, omegas)
    start_low = SimulationConfig(0.0, 1.0, 0.1, np.array([0.4]), ConstantSchedule([0.0]))
    with pytest.raises(DegenerateDenominator):
        simulate_draws(model, start_low, omegas)  # every draw shares the state
    assert list(failures) == [1]
    assert isinstance(failures[1], DegenerateDenominator)
    with pytest.raises(DegenerateDenominator):
        simulate(model, SimulationConfig(0.0, 1.0, 0.1, np.array([1.0]), ConstantSchedule([-2.0])))
    for draw in (0, 2):
        one = simulate(
            model,
            SimulationConfig(0.0, 1.0, 0.1, np.array([1.0]), ConstantSchedule(omegas[draw])),
        )
        np.testing.assert_array_equal(states[draw], one.states)


def one_row_model():
    # three states, but every matrix has one row: it would broadcast over
    # the state in the RK4 stages
    return ParameterLinearModel(
        "one_row", ("x", "y", "z"), ("rate",),
        lambda states, t: np.ones(np.shape(states)[:-1] + (1, 1)),
    )


@pytest.mark.parametrize("draws", [1, 3])
def test_wrong_matrix_shape_raises_before_the_first_step(draws):
    config = SimulationConfig(
        0.0, 1.0, 1.0, np.array([1.0, 2.0, 3.0]), ConstantSchedule([0.3])
    )
    with pytest.raises(ShapeMismatch, match="built matrices of shape"):
        simulate(one_row_model(), config)
    with pytest.raises(ShapeMismatch, match="built matrices of shape"):
        simulate_draws(one_row_model(), config, np.full((draws, 1), 0.3))


def test_wrong_matrix_shape_raises_in_one_step_and_one_rhs():
    state = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatch, match="built matrices of shape"):
        erk4_step(one_row_model(), state, 0.0, [0.3], 0.1)
    with pytest.raises(ShapeMismatch, match="built matrices of shape"):
        eval_rhs(one_row_model(), state, [0.3])


def test_one_draw_of_a_one_state_builder_equals_simulate():
    # indexes its one state, so a batch of states would break it
    swap = ParameterLinearModel(
        "swap", ("p", "q"), ("rate",), lambda s, t: np.array([[s[1]], [-s[0]]])
    )
    config = SimulationConfig(
        0.0, 2.0, 0.1, np.array([1.0, 0.0]), ConstantSchedule([0.7])
    )
    times, states, failures = simulate_draws(swap, config, [[0.7]])
    one = simulate(swap, config)
    assert failures == {}
    np.testing.assert_array_equal(times, one.times)
    np.testing.assert_array_equal(states[0], one.states)


def test_wrong_parameter_width_raises_shape_mismatch():
    message = r"expected 4 parameters, got shape \(2,\)"
    with pytest.raises(ShapeMismatch, match=message):
        erk4_step(lotka_volterra(), np.array([1.0, 1.0]), 0.0, [0.7, 1.3], 0.1)
    x0 = np.array([0.99, 0.01, 0.0])
    message = r"expected 2 parameters, got shape \(3,\)"
    for schedule in (
        ConstantSchedule([0.3, 0.1, 0.2]),
        PiecewiseSchedule([0.0, 0.5], [[0.3, 0.1, 0.2], [0.2, 0.1, 0.2]]),
    ):
        config = SimulationConfig(0.0, 1.0, 0.1, x0, schedule)
        with pytest.raises(ShapeMismatch, match=message):
            simulate(sir(1.0), config)


def clock_model():
    # undeclared and time-dependent: dx/dt = a x + b t, one state at a time
    return ParameterLinearModel(
        "clock", ("x",), ("a", "b"), lambda state, t: np.array([[state[0], t]])
    )


def test_time_dependent_undeclared_builder_matches_hand_written_rk4():
    a, b, h = -0.8, 0.3, 0.05
    config = SimulationConfig(0.0, 2.0, h, np.array([1.5]), ConstantSchedule([a, b]))
    trajectory = simulate(clock_model(), config)

    def rate(x, t):
        return a * x + b * t

    x, expected = 1.5, [1.5]
    for t in trajectory.times[:-1]:
        k1 = rate(x, t)
        k2 = rate(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = rate(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = rate(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append(x)
    np.testing.assert_allclose(trajectory.states[:, 0], expected, rtol=1e-14, atol=0.0)


def test_time_dependent_undeclared_builder_draws_equal_simulate_bit_for_bit():
    model = clock_model()
    config = SimulationConfig(0.0, 2.0, 0.05, np.array([1.5]), ConstantSchedule([0.0, 0.0]))
    omegas = np.random.default_rng(15).uniform(-1.0, 1.0, (4, 2))
    times, states, failures = simulate_draws(model, config, omegas)
    assert failures == {}
    for omega, trajectory in zip(omegas, states):
        one = simulate(
            model, SimulationConfig(0.0, 2.0, 0.05, np.array([1.5]), ConstantSchedule(omega))
        )
        np.testing.assert_array_equal(trajectory, one.states)


@pytest.mark.parametrize("name", ["lotka_volterra", "s3i3r"])
def test_feature_models_draws_equal_simulate_bit_for_bit(name):
    if name == "lotka_volterra":
        model, x0 = lotka_volterra(), np.array([1.0, 1.0])
    else:
        model = s3i3r(1.0)
        x0 = np.array([0.9, 0.05, 0.02, 0.01, 0.01, 0.005, 0.005])
    config = SimulationConfig(0.0, 10.0, 0.1, x0, ConstantSchedule(np.zeros(model.n_params)))
    omegas = np.random.default_rng(16).uniform(0.0, 0.5, (6, model.n_params))
    times, states, failures = simulate_draws(model, config, omegas)
    assert failures == {}
    for omega, trajectory in zip(omegas, states):
        one = simulate(
            model,
            SimulationConfig(0.0, 10.0, 0.1, x0, ConstantSchedule(omega)),
        )
        np.testing.assert_array_equal(trajectory, one.states)


def test_overflowing_step_is_a_non_finite_state():
    # x*y overflows in the features of the state itself and in every stage;
    # the verdict is NonFiniteState, not a numpy RuntimeWarning
    state = np.array([1e200, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState, match=r"after step from t=0.0"):
            erk4_step(lotka_volterra(), state, 0.0, [1, 1, 1, 1], 0.1)
        config = SimulationConfig(0.0, 1.0, 0.1, state, ConstantSchedule(np.ones(4)))
        with pytest.raises(NonFiniteState, match=r"at step 1 \(t=0.0\)"):
            simulate(lotka_volterra(), config)


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_erk4_step_rejects_a_step_that_is_not_finite_and_positive(h):
    # the step is at fault, not the state; no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="step must be finite and positive"):
            erk4_step(lotka_volterra(), np.array([1.0, 1.0]), 0.0, np.full(4, 0.5), h)


def test_schedule_width_is_checked_at_every_step():
    class Widening:
        def omega_at(self, t):
            return np.array([0.3, 0.1]) if t < 0.5 else np.array([0.3, 0.1, 0.2])

    config = SimulationConfig(0.0, 1.0, 0.1, np.array([0.99, 0.01, 0.0]), Widening())
    with pytest.raises(ShapeMismatch, match=r"expected 2 parameters, got shape \(3,\)"):
        simulate(sir(1.0), config)


class CountingSchedule:
    """A schedule that records every time it is read at."""

    def __init__(self, schedule):
        self.schedule, self.reads = schedule, []

    def omega_at(self, t):
        self.reads.append(t)
        return self.schedule.omega_at(t)


@pytest.mark.parametrize("name", ["sir", "s3i3r"])
def test_schedule_is_read_once_per_step_time_across_step_blocks(name):
    # more steps than one block of tables: the trajectory equals RK4 stepped
    # by hand with omega_at(t), and each step time is read once, in order
    model = sir(1.0) if name == "sir" else s3i3r(1.0)
    x0 = np.zeros(model.n_states)
    x0[:2] = [0.999, 1e-3]
    base = np.full(model.n_params, 0.05)
    sinusoid = SinusoidalBetaSchedule(base, 0.4, 0.1, 3.0, 0)
    steps = STEP_BLOCK + 37
    config = SimulationConfig(0.0, steps * 0.01, 0.01, x0, CountingSchedule(sinusoid))
    series = simulate(model, config)
    assert len(series.times) == steps + 1
    assert config.schedule.reads == list(series.times[:-1])
    expected = [x0]
    for t in series.times[:-1]:
        expected.append(erk4_step(model, expected[-1], t, sinusoid.omega_at(t), 0.01))
    assert series.states.tobytes() == np.array(expected).tobytes()


def test_schedule_width_is_checked_after_the_first_step_block():
    class LateWidening:
        def omega_at(self, t):
            late = t > (STEP_BLOCK + 10) * 0.01
            return np.array([0.3, 0.1, 0.2]) if late else np.array([0.3, 0.1])

    steps = STEP_BLOCK + 40
    config = SimulationConfig(
        0.0, steps * 0.01, 0.01, np.array([0.99, 0.01, 0.0]), LateWidening()
    )
    with pytest.raises(ShapeMismatch, match=r"expected 2 parameters, got shape \(3,\)"):
        simulate(sir(1.0), config)
