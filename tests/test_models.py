import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from artifact import (
    ConstantSchedule,
    DegenerateDenominator,
    NonPositivePopulation,
    ShapeMismatch,
    SimulationConfig,
    erk4_step,
    eval_rhs,
    get_model,
    lotka_volterra,
    register_model,
    s3i3r,
    simulate,
    sir,
)
from artifact import ParameterLinearModel
from artifact.integrator import simulate_draws
from artifact.models import (
    LOTKA_VOLTERRA_COEFFICIENTS,
    S3I3R_COEFFICIENTS,
    SIR_COEFFICIENTS,
    build_matrices,
    check_population,
    lotka_volterra_features,
    lotka_volterra_matrix,
    parameter_table,
    rates,
    s3i3r_features,
    s3i3r_matrix,
    sir_features,
    sir_matrix,
)

BUILDERS = {
    "lotka_volterra": (lotka_volterra_matrix, 2),
    "sir": (lambda states: sir_matrix(states, 7.0), 3),
    "s3i3r": (lambda states: s3i3r_matrix(states, 7.0), 7),
}


def test_lv_matrix_at_unit_state():
    np.testing.assert_array_equal(
        lotka_volterra_matrix([1.0, 1.0]),
        [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]],
    )


def test_lv_matrix_at_2_3():
    np.testing.assert_array_equal(
        lotka_volterra_matrix([2.0, 3.0]),
        [[2.0, -6.0, 0.0, 0.0], [0.0, 0.0, -3.0, 6.0]],
    )


def test_sir_matrix_substitution():
    a = sir_matrix([0.9999, 1e-4, 0.0], 1.0)
    np.testing.assert_allclose(
        a, [[-9.999e-5, 0.0], [9.999e-5, -1e-4], [0.0, 1e-4]], atol=1e-18
    )


def test_sir_columns_sum_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(100):
        state = rng.uniform(0.0, 1.0, 3)
        a = sir_matrix(state, 1.0)
        np.testing.assert_allclose(a.sum(axis=0), 0.0, atol=1e-16)


def test_s3i3r_corner_entries():
    a = s3i3r_matrix([0.9999, 1e-4, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0)
    assert a[0, 0] == pytest.approx(-9.999e-5)
    assert a[1, 1] == pytest.approx(-1e-4)


def test_s3i3r_columns_sum_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(50):
        state = rng.uniform(0.01, 1.0, 7)
        a = s3i3r_matrix(state, 1.0)
        assert np.abs(a.sum(axis=0)).max() <= 1e-12 * np.abs(a).max()


def test_s3i3r_vaccination_only_path():
    # no infections and empty R1: every flow except vaccination is shut off
    a = s3i3r_matrix([0.7, 0.0, 0.0, 0.0, 0.0, 0.2, 0.1], 1.0)
    nonzero_columns = np.flatnonzero(np.abs(a).sum(axis=0))
    np.testing.assert_array_equal(nonzero_columns, [4])


def test_s3i3r_column_sparsity():
    rng = np.random.default_rng(2)
    state = rng.uniform(0.01, 1.0, 7)
    a = s3i3r_matrix(state, 1.0)
    assert (np.count_nonzero(a, axis=0) <= 4).all()


def test_s3i3r_degenerate_pool():
    with pytest.raises(DegenerateDenominator):
        s3i3r_matrix([0.0, 0.0, 0.1, 0.1, 0.0, 0.4, 0.4], 1.0)


def test_eval_rhs_lv_example():
    rhs = eval_rhs(lotka_volterra(), [1.0, 1.0], [0.7, 1.3, 1.1, 0.9])
    np.testing.assert_allclose(rhs, [-0.6, -0.2], atol=1e-15)


def test_eval_rhs_zero_omega():
    rhs = eval_rhs(s3i3r(1.0), [0.9, 0.02, 0.02, 0.02, 0.02, 0.01, 0.01], np.zeros(8))
    np.testing.assert_array_equal(rhs, np.zeros(7))


def test_eval_rhs_matches_handwritten_sir():
    model = sir(1000.0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        s, i, r = rng.uniform(0.0, 400.0, 3)
        beta, gamma = rng.uniform(0.05, 0.9, 2)
        got = eval_rhs(model, [s, i, r], [beta, gamma])
        si = beta * s * i / 1000.0
        np.testing.assert_allclose(got, [-si, si - gamma * i, gamma * i], atol=1e-12)


def test_eval_rhs_epidemic_total_is_conserved():
    rng = np.random.default_rng(4)
    state = rng.uniform(0.01, 1.0, 7)
    rhs = eval_rhs(s3i3r(1.0), state, rng.uniform(0.0, 0.5, 8))
    assert abs(rhs.sum()) < 1e-15


def test_eval_rhs_shape_checks():
    with pytest.raises(ShapeMismatch):
        eval_rhs(lotka_volterra(), [1.0, 1.0], [0.7, 1.3])
    with pytest.raises(ShapeMismatch):
        eval_rhs(sir(1.0), [1.0, 1.0], [0.5, 0.3])


def test_model_names():
    model = lotka_volterra()
    assert model.state_names == ("prey", "predator")
    assert model.parameter_names == ("alpha", "beta", "gamma", "delta")
    assert sir(1.0).parameter_names == ("beta", "gamma")
    assert s3i3r(1.0).n_params == 8
    assert s3i3r(1.0).parameter_index("theta") == 5


def test_registry_lookup():
    assert get_model("lotka_volterra").name == "lotka_volterra"
    assert get_model("sir", 5.7e6).population == 5.7e6
    with pytest.raises(ShapeMismatch):
        get_model("lorenz")
    with pytest.raises(NonPositivePopulation):
        get_model("s3i3r")
    with pytest.raises(NonPositivePopulation):
        get_model("sir", -2.0)


def test_register_custom_model():
    register_model("sir_alias", lambda population: sir(population))
    assert get_model("sir_alias", 2.0).population == 2.0


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("leading", [(), (5,), (2, 3)])
def test_batched_matrices_equal_stacked_scalar_calls(name, leading):
    build, n_states = BUILDERS[name]
    states = np.random.default_rng(5).uniform(0.1, 4.0, leading + (n_states,))
    batched = build(states)
    flat = states.reshape(-1, n_states)
    stacked = np.array([build(state) for state in flat])
    assert batched.shape == leading + stacked.shape[1:]
    assert np.array_equal(batched.reshape(stacked.shape), stacked)


def test_s3i3r_degenerate_pool_in_a_batch():
    states = np.full((3, 7), 0.1)
    states[1, [0, 1, 4]] = 0.0
    with pytest.raises(DegenerateDenominator):
        s3i3r_matrix(states, 1.0)


def test_batched_builder_rejects_wrong_state_width():
    with pytest.raises(ShapeMismatch):
        sir_matrix(np.ones((4, 2)), 1.0)


def test_scalar_only_builder_is_looped_per_state():
    # np.array([[x0, t]]) handles one state only: undeclared, it is called
    # once per state from the first batch on, and never on other states
    calls = []

    def build(state, t):
        calls.append(np.shape(state))
        return np.array([[state[0], t]])

    model = ParameterLinearModel("scalar", ("x",), ("a", "b"), build)
    states = np.array([[1.0], [2.0], [3.0]])
    matrices = build_matrices(model, states, np.array([0.5, 1.5, 2.5]))
    np.testing.assert_array_equal(matrices, [[[1.0, 0.5]], [[2.0, 1.5]], [[3.0, 2.5]]])
    assert calls == [(1,)] * 3
    del calls[:]
    build_matrices(model, states, 0.0)
    assert calls == [(1,)] * 3


def test_state_dependent_builder_at_batch_size_n_states():
    # on a batch of 2 states this one-state builder returns the expected
    # shape (2, 2, 2), but built from whole states instead of components
    def build(state, t):
        return np.array([[state[0], state[1]], [state[1], state[0]]])

    model = ParameterLinearModel("swap", ("x", "y"), ("a", "b"), build)
    states = np.array([[1.0, 2.0], [3.0, 5.0]])
    matrices = build_matrices(model, states, 0.0)
    np.testing.assert_array_equal(matrices, [build(state, 0.0) for state in states])


def test_broadcasting_builder_is_called_once_per_batch():
    # a broadcasting builder batches by declaring its flattened matrices as
    # features with the identity table
    calls = []

    def build(states, t):
        calls.append(np.shape(states))
        return sir_matrix(states, 7.0)

    def flattened(states, t):
        matrices = build(states, t)
        return matrices.reshape(matrices.shape[:-2] + (6,))

    model = ParameterLinearModel(
        "counted", ("S", "I", "R"), ("beta", "gamma"), build,
        features=flattened, coefficients=np.eye(6).reshape(6, 3, 2),
    )
    states = np.random.default_rng(8).uniform(0.1, 4.0, (5, 3))
    for _ in range(2):
        matrices = build_matrices(model, states, 0.0)
        np.testing.assert_array_equal(matrices, sir_matrix(states, 7.0))
        assert calls == [(5, 3)]
        del calls[:]
    # the same builder without features is looped, to the same values
    looped = ParameterLinearModel("counted", ("S", "I", "R"), ("beta", "gamma"), build)
    np.testing.assert_array_equal(build_matrices(looped, states, 0.0), matrices)
    assert calls == [(3,)] * 5


def test_registry_models_batch_through_their_features():
    # build_matrices on a built-in is its features times its table, bit for
    # bit the built-in builder, and never calls build_matrix
    def refuse(states, t):
        raise AssertionError("build_matrix called")

    for name in ("lotka_volterra", "sir", "s3i3r"):
        model = get_model(name, None if name == "lotka_volterra" else 7.0)
        traced = dataclasses.replace(model, build_matrix=refuse)
        states = np.random.default_rng(9).uniform(0.1, 4.0, (4, model.n_states))
        built, expected = build_matrices(traced, states, 0.0), model.build_matrix(states, 0.0)
        assert built.shape == expected.shape and built.tobytes() == expected.tobytes()


def test_empty_batch_of_an_undeclared_builder():
    model = ParameterLinearModel(
        "empty", ("x",), ("a",), lambda states, t: np.asarray(states)[..., None]
    )
    matrices = build_matrices(model, np.empty((0, 1)), 0.0)
    assert matrices.shape == (0, 1, 1)
    np.testing.assert_array_equal(
        build_matrices(model, np.ones((3, 1)), 0.0), np.ones((3, 1, 1))
    )


@pytest.mark.parametrize("states", [np.ones((4, 2)), np.float64(1.0)])
def test_wrong_state_width_is_rejected_before_any_builder_call(states):
    calls = []

    def build(state, t):
        calls.append(np.shape(state))
        return np.array([[state[0]]])

    decay = ParameterLinearModel("decay", ("x",), ("rate",), build)
    with pytest.raises(ShapeMismatch, match="wants states of shape"):
        build_matrices(decay, states, 0.0)
    with pytest.raises(ShapeMismatch, match="wants states of shape"):
        eval_rhs(decay, states, [1.0])
    assert calls == []


def test_wrongly_shaped_builder_is_rejected():
    model = ParameterLinearModel("bad", ("x",), ("a",), lambda state, t: np.eye(2))
    with pytest.raises(ShapeMismatch):
        build_matrices(model, np.ones((3, 1)), 0.0)


@pytest.mark.parametrize("population", [0.0, -2.0, np.inf, -np.inf, np.nan])
def test_population_must_be_finite_and_positive(population):
    with pytest.raises(NonPositivePopulation, match="finite and positive"):
        check_population(population)
    # every site that takes a population uses the one check
    for call in (
        lambda: sir(population),
        lambda: s3i3r(population),
        lambda: sir_matrix(np.ones(3), population),
        lambda: s3i3r_matrix(np.ones(7), population),
    ):
        with pytest.raises(NonPositivePopulation):
            call()
    check_population(5.7e6)
    check_population(1)


# name: (features, matrix builder, table, number of states)
TABLES = {
    "lotka_volterra": (
        lotka_volterra_features, lotka_volterra_matrix, LOTKA_VOLTERRA_COEFFICIENTS, 2
    ),
    "sir": (
        lambda states: sir_features(states, 7.0),
        lambda states: sir_matrix(states, 7.0),
        SIR_COEFFICIENTS,
        3,
    ),
    "s3i3r": (
        lambda states: s3i3r_features(states, 7.0),
        lambda states: s3i3r_matrix(states, 7.0),
        S3I3R_COEFFICIENTS,
        7,
    ),
}


def _random_states(n_states, seed):
    """Random batches, with every compartment but the first zero in some rows."""
    states = np.random.default_rng(seed).uniform(0.0, 5.0, (2000, n_states))
    states[::7, 1:] = 0.0
    states[3::11, -1] = 0.0
    return states


@pytest.mark.parametrize("name", sorted(TABLES))
def test_matrix_is_features_times_table(name, item_assigned_matrices):
    features, build, table, n_states = TABLES[name]
    population = None if name == "lotka_volterra" else 7.0
    states = _random_states(n_states, 12)
    product = np.einsum("...f,fnk->...nk", features(states), table)
    assert np.array_equal(build(states), product)
    # each entry is one signed feature, so the product is exact
    assert np.array_equal(product, item_assigned_matrices(name, states, population))
    for state in states[:20]:
        assert np.array_equal(build(state), item_assigned_matrices(name, state, population))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_entries_are_signs(name):
    table = TABLES[name][2]
    assert set(np.unique(table)) <= {-1.0, 0.0, 1.0}
    assert not table.flags.writeable


@pytest.mark.parametrize("name", ["sir", "s3i3r"])
def test_epidemic_tables_sum_to_zero_over_states(name):
    # every flow leaves one compartment and enters another, so the total is
    # conserved; the one exception is vaccination, which takes S/V, I1/V and
    # R1/V out and puts the constant feature 1 = (S + I1 + R1)/V into R2
    features, _, table, n_states = TABLES[name]
    sums = table.sum(axis=1)
    balanced = np.ones(table.shape[2], dtype=bool)
    if name == "s3i3r":
        tau = s3i3r(1.0).parameter_index("tau")
        balanced[tau] = False
        np.testing.assert_array_equal(sums[:, tau], [0, -1, -1, -1, 0, 0, 0, 1])
        values = features(_random_states(n_states, 14) + 0.1)
        np.testing.assert_allclose(values @ sums[:, tau], 0.0, atol=1e-15)
    np.testing.assert_array_equal(sums[:, balanced], 0.0)


def test_degenerate_pool_is_raised_by_the_features():
    state = np.array([0.0, 0.0, 0.3, 0.2, 0.0, 0.4, 0.1])
    model = s3i3r(1.0)
    for call in (
        lambda: s3i3r_features(state, 1.0),
        lambda: s3i3r_features(np.stack([np.full(7, 0.1), state]), 1.0),
        lambda: s3i3r_matrix(state, 1.0),
        lambda: eval_rhs(model, state, np.full(8, 0.1)),
    ):
        with pytest.raises(DegenerateDenominator):
            call()


@pytest.mark.parametrize(
    "coefficients",
    [np.zeros((2, 3)), np.zeros((2, 3, 3)), np.zeros((2, 2, 2)), np.zeros((2, 2, 3, 1))],
)
def test_wrong_table_shape_is_rejected_at_construction(coefficients):
    with pytest.raises(ShapeMismatch, match="coefficient table of shape"):
        ParameterLinearModel(
            "bad", ("S", "I", "R"), ("beta", "gamma"), lambda states, t: None,
            features=lambda states, t: sir_features(states, 1.0),
            coefficients=coefficients,
        )


def test_features_and_table_come_together():
    for declared in ({"features": lambda states, t: states}, {"coefficients": np.eye(1)[None]}):
        with pytest.raises(ShapeMismatch, match="together"):
            ParameterLinearModel("half", ("x",), ("a",), lambda state, t: None, **declared)


def test_built_in_right_hand_sides_build_no_matrix():
    # the features carry the right-hand side, so RK4 and eval_rhs never call
    # a replaced builder
    def refuse(states, t):
        raise AssertionError("build_matrix called")

    rng = np.random.default_rng(13)
    for name in ("lotka_volterra", "sir", "s3i3r"):
        model = get_model(name, None if name == "lotka_volterra" else 7.0)
        traced = dataclasses.replace(model, build_matrix=refuse)
        states = rng.uniform(0.1, 4.0, (5, model.n_states))
        omega = rng.uniform(0.0, 1.0, model.n_params)
        expected = np.einsum("dnk,k->dn", model.build_matrix(states, 0.0), omega)
        np.testing.assert_allclose(eval_rhs(traced, states, omega), expected, rtol=1e-14)
        config = SimulationConfig(0.0, 1.0, 0.1, states[0], ConstantSchedule(omega))
        np.testing.assert_array_equal(
            simulate(traced, config).states, simulate(model, config).states
        )
        simulate_draws(traced, config, np.stack([omega, omega / 2]))
        erk4_step(traced, states[0], 0.0, omega, 0.1)


def test_undeclared_model_library_is_the_flattened_matrix():
    def build(state, t):
        return np.array([[state[0], t]])

    model = ParameterLinearModel("scalar", ("x",), ("a", "b"), build)
    features, coefficients = model.library()
    states = np.array([[1.0], [2.0]])
    np.testing.assert_array_equal(features(states, 0.5), [[1.0, 0.5], [2.0, 0.5]])
    np.testing.assert_array_equal(coefficients.reshape(2, 2), np.eye(2))
    np.testing.assert_array_equal(eval_rhs(model, [2.0], [3.0, 4.0], t=0.5), [8.0])


def test_replaced_builder_is_the_one_a_builder_only_model_calls():
    # the library is fixed when the model is built, so dataclasses.replace
    # builds it again around the new builder
    calls = []

    def doubled(state, t):
        calls.append(t)
        return np.array([[2.0 * state[0]]])

    decay = ParameterLinearModel("decay", ("x",), ("rate",), lambda s, t: np.array([[s[0]]]))
    model = dataclasses.replace(decay, build_matrix=doubled)
    matrices = build_matrices(model, np.array([[1.0], [3.0]]), 0.5)
    np.testing.assert_array_equal(matrices, [[[2.0]], [[6.0]]])
    assert calls == [0.5, 0.5]
    np.testing.assert_array_equal(eval_rhs(model, [1.5], [-1.0]), [-3.0])
    assert len(calls) == 3
    # one call on the initial state, then four stages a step for two steps
    start = np.array([1.0])
    series = simulate(model, SimulationConfig(0.0, 1.0, 0.5, start, ConstantSchedule([-1.0])))
    assert len(calls) == 3 + 1 + 2 * 4
    # the original keeps its own builder: doubling the rate matches
    twice = SimulationConfig(0.0, 1.0, 0.5, start, ConstantSchedule([-2.0]))
    np.testing.assert_array_equal(series.states, simulate(decay, twice).states)
    assert len(calls) == 12


def _broadcasting_model():
    # declared features that accept any state width: without the entry
    # points' own check a wrong width would broadcast into the stages
    return ParameterLinearModel(
        "sum", ("x", "y"), ("a",), lambda state, t: None,
        features=lambda states, t: states.sum(axis=-1, keepdims=True),
        coefficients=np.ones((1, 2, 1)),
    )


@pytest.mark.parametrize("name", ["lotka_volterra", "sir", "s3i3r", "sum"])
def test_entry_points_reject_a_wrong_state_width(name):
    # the README's promise: every entry point checks the state's last axis
    # itself, so a wrong width never reaches the unchecked library features
    if name == "sum":
        model = _broadcasting_model()
    else:
        model = get_model(name, None if name == "lotka_volterra" else 7.0)
    omega = np.full(model.n_params, 0.1)
    for width in (model.n_states - 1, model.n_states + 1):
        state = np.ones(width)
        config = SimulationConfig(0.0, 1.0, 0.1, state, ConstantSchedule(omega))
        for call in (
            lambda: erk4_step(model, state, 0.0, omega, 0.1),
            lambda: eval_rhs(model, state, omega),
            lambda: eval_rhs(model, np.ones((3, width)), omega),
            lambda: simulate(model, config),
            lambda: simulate_draws(model, config, np.stack([omega, omega])),
            lambda: build_matrices(model, state, 0.0),
            lambda: build_matrices(model, np.ones((2, 3, width)), 0.0),
        ):
            with pytest.raises(ShapeMismatch):
                call()


# name: (public features of states and a population, number of states)
PUBLIC_FEATURES = {
    "lotka_volterra": (lambda states, population: lotka_volterra_features(states), 2),
    "sir": (sir_features, 3),
    "s3i3r": (s3i3r_features, 7),
}

# magnitudes 1e-300..1e300 of either sign, signed zeros and non-finite entries
_ENTRIES = st.one_of(
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)


def _outcome(call):
    """A call's result, or its error type and message."""
    try:
        return call()
    except DegenerateDenominator as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=150)
@given(
    name=st.sampled_from(sorted(PUBLIC_FEATURES)),
    lead=st.sampled_from([(), (3,), (2, 4)]),
    population=st.floats(1e-300, 1e300),
    data=st.data(),
)
@np.errstate(all="ignore")
def test_library_kernels_equal_the_public_features_bit_for_bit(name, lead, population, data):
    public, n_states = PUBLIC_FEATURES[name]
    model = get_model(name, None if name == "lotka_volterra" else population)
    features, coefficients = model.library()
    states = data.draw(arrays(np.float64, lead + (n_states,), elements=_ENTRIES))
    values = _outcome(lambda: features(states, 0.0))
    expected = _outcome(lambda: public(states, population))
    if isinstance(values, tuple):  # S3I3R's zero pool raises in both
        assert values == expected
        return
    assert values.shape == expected.shape and values.tobytes() == expected.tobytes()
    omegas = data.draw(arrays(np.float64, lead + (model.n_params,), elements=_ENTRIES))
    for omega in (omegas, omegas.reshape(-1, model.n_params)[0]):
        table = parameter_table(coefficients, omega)
        got = rates(values, table)
        expected = np.einsum("...f,...fn->...n", values, table)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(PUBLIC_FEATURES))
def test_public_features_keep_their_checks(name):
    public, n_states = PUBLIC_FEATURES[name]
    for states in (np.float64(1.0), np.ones(n_states + 1), np.ones((2, n_states - 1))):
        with pytest.raises(ShapeMismatch, match="expected states of shape"):
            public(states, 7.0)
    if name == "lotka_volterra":
        return
    for population in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(NonPositivePopulation, match="finite and positive"):
            public(np.ones(n_states), population)
