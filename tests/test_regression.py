import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (
    AllZeroColumn,
    IndexOutOfRange,
    NonFiniteSystem,
    ParameterPartition,
    RankDeficient,
    ShapeMismatch,
    StackedSystem,
    apply_partition,
    s3i3r_matrix,
    sir_matrix,
    solve_ols,
    solve_partitioned,
    solve_ridge,
    solve_single_column,
    stack_systems,
)


def test_ols_two_unknowns_exact():
    system = StackedSystem([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0])
    fit = solve_ols(system)
    np.testing.assert_allclose(fit.values, [1.0, 2.0], atol=1e-12)
    assert fit.residual_norm < 1e-12


def test_ols_scalar_mean():
    fit = solve_ols(StackedSystem([[1.0], [1.0]], [0.0, 2.0]))
    assert fit.values[0] == pytest.approx(1.0)


def test_ols_rejects_wide_system():
    with pytest.raises(RankDeficient):
        solve_ols(StackedSystem([[1.0, 2.0]], [1.0]))


def test_ols_rejects_duplicate_columns():
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(RankDeficient):
        solve_ols(StackedSystem(a, [1.0, 2.0, 3.0]))


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(30, 4))
    b = rng.normal(size=30)
    fit = solve_ols(StackedSystem(a, b))
    gradient = a.T @ (a @ fit.values - b)
    assert np.abs(gradient).max() <= 1e-8 * np.abs(a.T @ b).max()


def test_ols_grid_oracle_two_params():
    # brute force: no grid perturbation of the solution may lower the residual
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=6)
    fit = solve_ols(StackedSystem(a, b))
    best = np.linalg.norm(a @ fit.values - b)
    offsets = np.linspace(-0.5, 0.5, 21)
    for da in offsets:
        for db in offsets:
            candidate = fit.values + np.array([da, db])
            assert np.linalg.norm(a @ candidate - b) >= best - 1e-12


def test_ridge_zero_lambda_matches_ols():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(12, 3))
    b = rng.normal(size=12)
    system = StackedSystem(a, b)
    np.testing.assert_array_equal(
        solve_ridge(system, 0.0).values, solve_ols(system).values
    )


def test_ridge_scalar_closed_form():
    fit = solve_ridge(StackedSystem([[2.0]], [4.0]), 4.0)
    assert fit.values[0] == pytest.approx(1.0)


def test_ridge_stacked_identity():
    a = np.vstack([np.eye(2), np.eye(2)])
    fit = solve_ridge(StackedSystem(a, np.ones(4)), 2.0)
    np.testing.assert_allclose(fit.values, [0.5, 0.5], atol=1e-14)


def test_ridge_negative_lambda_rejected():
    with pytest.raises(ValueError):
        solve_ridge(StackedSystem([[1.0]], [1.0]), -0.5)


def test_ridge_single_row_solvable():
    fit = solve_ridge(StackedSystem([[1.0, 1.0]], [2.0]), 1.0)
    assert fit.values.shape == (2,)


def test_single_column_matches_general_solver():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(17, 1))
    b = rng.normal(size=17)
    system = StackedSystem(a, b)
    assert solve_single_column(system) == pytest.approx(
        solve_ols(system).values[0], abs=1e-13
    )
    assert solve_single_column(system, 0.7) == pytest.approx(
        solve_ridge(system, 0.7).values[0], abs=1e-13
    )


def test_single_column_zero_regressor():
    with pytest.raises(AllZeroColumn):
        solve_single_column(StackedSystem(np.zeros((5, 1)), np.ones(5)))


def test_stack_two_sir_blocks():
    blocks = [
        (sir_matrix([0.9, 0.1, 0.0], 1.0), np.zeros(3)),
        (sir_matrix([0.8, 0.2, 0.0], 1.0), np.zeros(3)),
    ]
    system = stack_systems(blocks)
    assert (system.rows, system.cols) == (6, 2)


def test_stack_s3i3r_blocks():
    state = np.array([0.9, 0.05, 0.02, 0.01, 0.01, 0.005, 0.005])
    blocks = [(s3i3r_matrix(state, 1.0), np.zeros(7)) for _ in range(28)]
    system = stack_systems(blocks)
    assert (system.rows, system.cols) == (196, 8)


def test_stack_rejects_mixed_widths():
    with pytest.raises(ShapeMismatch):
        stack_systems([(np.ones((2, 2)), np.ones(2)), (np.ones((2, 3)), np.ones(2))])


def test_partition_empty_known_is_identity():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 3))
    b = rng.normal(size=8)
    system = StackedSystem(a, b)
    reduced = apply_partition(system, ParameterPartition.all_unknown(3))
    np.testing.assert_array_equal(reduced.matrix, a)
    np.testing.assert_array_equal(reduced.rhs, b)


def test_partition_all_known_leaves_residual():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    omega = np.array([0.5, -1.0])
    system = StackedSystem(a, a @ omega + 0.25)
    partition = ParameterPartition.from_known(2, {0: 0.5, 1: -1.0})
    reduced = apply_partition(system, partition)
    assert reduced.cols == 0
    np.testing.assert_allclose(reduced.rhs, 0.25, atol=1e-14)


def test_partition_gamma_known_matches_free_beta(sir_trajectory):
    from artifact import EstimationWindow, estimate_constant, sir

    model = sir(1.0)
    window = EstimationWindow.span(1, 50)
    free = estimate_constant(model, sir_trajectory, window)
    fixed = estimate_constant(
        model,
        sir_trajectory,
        window,
        partition=ParameterPartition.from_known(2, {1: 1.0 / 3.0}),
    )
    assert fixed.values[1] == 1.0 / 3.0
    # different least-squares problems, agreement only to the data's accuracy
    assert abs(fixed.values[0] - free.values[0]) < 1e-3
    assert abs(fixed.values[0] - 0.5) < 1e-3


def test_partition_index_bounds():
    with pytest.raises(IndexOutOfRange):
        ParameterPartition.from_known(2, {5: 1.0})


def test_partition_overlap_rejected():
    with pytest.raises(ShapeMismatch):
        ParameterPartition((0,), np.array([1.0]), (0, 1))


def test_solve_partitioned_recombines_full_vector():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    omega = np.array([2.0, -1.0, 0.5])
    system = StackedSystem(a, a @ omega)
    partition = ParameterPartition.from_known(3, {2: 0.5})
    fit = solve_partitioned(system, partition)
    np.testing.assert_allclose(fit.values, omega, atol=1e-12)


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        StackedSystem(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ShapeMismatch):
        StackedSystem(np.ones(3), np.ones(3))


matrices = st.integers(min_value=0, max_value=2**32 - 1)


@settings(deadline=None, max_examples=60)
@given(seed=matrices, rows=st.integers(3, 9), cols=st.integers(1, 3))
def test_ridge_shrinks_norm_monotonically(seed, rows, cols):
    rng = np.random.default_rng(seed)
    system = StackedSystem(rng.normal(size=(rows, cols)), rng.normal(size=rows))
    lambdas = [1e-3, 1e-2, 1e-1, 1.0, 10.0]
    norms = [np.linalg.norm(solve_ridge(system, lam).values) for lam in lambdas]
    for smaller, larger in zip(norms[1:], norms[:-1]):
        assert smaller <= larger + 1e-12


@settings(deadline=None, max_examples=60)
@given(seed=matrices, cols=st.integers(1, 3))
def test_consistent_system_recovered(seed, cols):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(cols + 4, cols)) + np.eye(cols + 4, cols)
    omega = rng.uniform(-5.0, 5.0, size=cols)
    system = StackedSystem(a, a @ omega)
    if np.linalg.cond(a) > 1e6:
        return
    fit = solve_ols(system)
    np.testing.assert_allclose(fit.values, omega, rtol=1e-6, atol=1e-8)
    assert np.linalg.norm(a @ fit.values - a @ omega) <= 1e-7 * (
        1.0 + np.linalg.norm(a @ omega)
    )


def test_ridge_with_vanishing_lambda_is_rank_deficient():
    # lambda = 1e-300 leaves the singular normal matrix singular in floating point
    system = StackedSystem(np.ones((5, 2)), np.ones(5))
    with pytest.raises(RankDeficient):
        solve_ridge(system, 1e-300)


def _random_system():
    rng = np.random.default_rng(0)
    return rng.standard_normal((6, 2)), rng.standard_normal(6)


@pytest.mark.parametrize("normalize", [False, True])
def test_nan_entry_is_rejected(normalize):
    matrix, rhs = _random_system()
    matrix[2, 1] = np.nan
    system = StackedSystem(matrix, rhs)
    with pytest.raises(NonFiniteSystem):
        solve_ols(system, normalize=normalize)
    with pytest.raises(NonFiniteSystem):
        solve_ridge(system, 0.1, normalize=normalize)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("solver", ["ols", "ridge"])
@pytest.mark.parametrize("scale", [1e155, 1e200])
@pytest.mark.parametrize("column", [0, 1])
def test_overflowing_column_is_rejected(column, scale, solver, normalize):
    # the squared condition number (and, normalized, the column norm)
    # overflows; the error must not depend on the column order, and no
    # numpy overflow warning may escape
    matrix, rhs = _random_system()
    matrix[:, column] *= scale
    system = StackedSystem(matrix, rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSystem):
            if solver == "ols":
                solve_ols(system, normalize=normalize)
            else:
                solve_ridge(system, 0.1, normalize=normalize)


def test_condition_estimate_is_the_exact_condition_number():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 3)) * [1.0, 10.0, 0.1]
    system = StackedSystem(a, rng.standard_normal(20))
    assert solve_ols(system).condition_estimate == pytest.approx(
        np.linalg.cond(a) ** 2, rel=1e-10
    )
    assert solve_ridge(system, 0.5).condition_estimate == pytest.approx(
        np.linalg.cond(a.T @ a + 0.5 * np.eye(3)), rel=1e-10
    )


def test_ill_conditioned_vandermonde_is_recovered():
    # cond(A'A) = 4.0e8: below the rank threshold, but solving the normal
    # equations would lose about eight digits
    a = np.vander(np.linspace(0.0, 1.0, 60), 7, increasing=True)
    omega = np.ones(7)
    fit = solve_ols(StackedSystem(a, a @ omega))
    np.testing.assert_allclose(fit.values, omega, rtol=0.0, atol=1e-10)


def test_rank_threshold_reads_the_exact_condition_number():
    # cond(A'A) = 1.3e13 > 1e12; a proxy from the squared ratio of factor
    # diagonals would read 3.6e10 and let it through
    a = np.vander(np.linspace(0.0, 1.0, 60), 10, increasing=True)
    with pytest.raises(RankDeficient):
        solve_ols(StackedSystem(a, a @ np.ones(10)))


@pytest.mark.parametrize("normalize", [False, True])
def test_nan_rejection_does_not_depend_on_the_lapack_build(monkeypatch, normalize):
    # LAPACK builds differ on NaN input (some stop at a NaN pivot, others
    # return NaN), so the system must be rejected before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("a non-finite system reached the solver")

    monkeypatch.setattr(np.linalg, "lstsq", no_solve)
    matrix, rhs = _random_system()
    matrix[2, 1] = np.nan
    system = StackedSystem(matrix, rhs)
    with pytest.raises(NonFiniteSystem):
        solve_ols(system, normalize=normalize)
    with pytest.raises(NonFiniteSystem):
        solve_ridge(system, 0.1, normalize=normalize)
