import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (
    AllZeroColumn,
    EstimationError,
    IndexOutOfRange,
    NonFiniteSystem,
    ParameterPartition,
    RankDeficient,
    ShapeMismatch,
    StackedSystem,
    apply_partition,
    s3i3r_matrix,
    sir_matrix,
    solve_batch,
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


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_invalid_ridge_lambda_rejected(lam):
    system = StackedSystem([[1.0], [2.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve_ridge(system, lam)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve_single_column(system, lam)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve_partitioned(system, ParameterPartition.all_unknown(1), lam)


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


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        ([[1.0], [np.nan], [2.0]], [1.0, 2.0, 3.0]),
        ([[1.0], [2.0], [3.0]], [1.0, np.inf, 3.0]),
        ([[1e200], [1.0], [2.0]], [1.0, 2.0, 3.0]),
        # an all-zero column is rejected as non-finite first
        ([[0.0], [0.0], [0.0]], [1.0, np.nan, 3.0]),
    ],
    ids=["nan regressor", "inf target", "overflowing sum", "zero column"],
)
def test_single_column_rejects_non_finite_sums(matrix, rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSystem, match="sums a'a = "):
            solve_single_column(StackedSystem(matrix, rhs), 0.5)


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


@pytest.mark.parametrize("known", [{}, {1: 0.75}, {0: 0.3, 2: -1.2}, {0: 1.0, 1: 2.0, 2: 3.0}])
def test_partition_reduce_on_blocks_matches_apply_partition(known):
    # blocks with two leading axes reduce to the bits of the stacked system
    rng = np.random.default_rng(5)
    matrices = rng.normal(size=(2, 4, 5, 3))
    rhs = rng.normal(size=(2, 4, 5))
    partition = ParameterPartition.from_known(3, known)
    blocks, block_rhs = partition.reduce(matrices, rhs)
    n_unknown = 3 - len(known)
    assert blocks.shape == (2, 4, 5, n_unknown)
    assert block_rhs.shape == (2, 4, 5)
    stacked = apply_partition(
        StackedSystem(matrices.reshape(-1, 3), rhs.reshape(-1)), partition
    )
    np.testing.assert_array_equal(blocks.reshape(40, n_unknown), stacked.matrix)
    np.testing.assert_array_equal(block_rhs.reshape(-1), stacked.rhs)
    np.testing.assert_array_equal(
        blocks, matrices[..., list(partition.unknown_indices)]
    )


def test_partition_reduce_checks_coverage_and_shapes():
    partition = ParameterPartition.from_known(3, {1: 0.5})
    message = re.escape("partition indices [0, 1, 2] do not cover 0..3")
    with pytest.raises(IndexOutOfRange, match=message):
        partition.reduce(np.ones((2, 5, 4)), np.ones((2, 5)))
    with pytest.raises(IndexOutOfRange, match=message):
        apply_partition(StackedSystem(np.ones((5, 4)), np.ones(5)), partition)
    with pytest.raises(ShapeMismatch, match="rhs of shape"):
        partition.reduce(np.ones((2, 5, 3)), np.ones((2, 4)))


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

    for name in ("lstsq", "qr", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, no_solve)
    matrix, rhs = _random_system()
    matrix[2, 1] = np.nan
    system = StackedSystem(matrix, rhs)
    with pytest.raises(NonFiniteSystem):
        solve_ols(system, normalize=normalize)
    with pytest.raises(NonFiniteSystem):
        solve_ridge(system, 0.1, normalize=normalize)
    if normalize:
        # under normalize an overflowing column norm fails the screen too
        overflowing, _ = _random_system()
        overflowing[:, 0] *= 1e200
        batch = solve_batch(
            np.stack([matrix, overflowing]), np.stack([rhs, rhs]), 0.0, True
        )
        assert [str(error) for error in batch.errors] == [
            "the system has a non-finite entry",
            "a column norm of the system is not finite",
        ]


def _verdict_case(edit):
    matrix, rhs = _random_system()
    edit(matrix, rhs)
    return matrix, rhs


def _nan_entry(matrix, rhs):
    matrix[2, 1] = np.nan


def _scale_column(matrix, rhs):
    matrix[:, 0] *= 1e200


def _overflow_factor(matrix, rhs):
    # finite entries whose column norm overflows in the QR factorization
    matrix[:, 0] = 1e308


def _zero_column(matrix, rhs):
    matrix[:, 1] = 0.0


def _duplicate_column(matrix, rhs):
    matrix[:, 1] = matrix[:, 0]


def _rhs_minus_inf(matrix, rhs):
    rhs[3] = -np.inf


def _nan_entry_and_zero_column(matrix, rhs):
    _zero_column(matrix, rhs)
    _nan_entry(matrix, rhs)


VERDICTS = [
    # (system, ridge_lambda, normalize, error type, full-match pattern)
    pytest.param(
        (np.ones((3, 0)), np.ones(3)), 0.0, False, ShapeMismatch,
        re.escape("system has no parameter columns"), id="no columns",
    ),
    pytest.param(
        (np.ones((1, 2)), np.ones(1)), 0.0, False, RankDeficient,
        re.escape("1 equations for 2 unknowns (need rows >= cols)"), id="wide",
    ),
    pytest.param(
        (np.ones((0, 2)), np.ones(0)), 0.5, False, ShapeMismatch,
        re.escape("ridge solve needs at least one equation"), id="no rows",
    ),
    pytest.param(
        _verdict_case(_nan_entry), 0.0, False, NonFiniteSystem,
        re.escape("the system has a non-finite entry"), id="nan entry",
    ),
    pytest.param(
        _verdict_case(_rhs_minus_inf), 0.0, False, NonFiniteSystem,
        re.escape("the system has a non-finite entry"), id="inf rhs",
    ),
    pytest.param(
        _verdict_case(_scale_column), 0.0, True, NonFiniteSystem,
        re.escape("a column norm of the system is not finite"), id="column norm",
    ),
    pytest.param(
        _verdict_case(_scale_column), 0.0, False, NonFiniteSystem,
        re.escape("condition number inf of the system is not finite"),
        id="condition overflow",
    ),
    pytest.param(
        _verdict_case(_overflow_factor), 0.0, False, NonFiniteSystem,
        re.escape("the system's QR factor is not finite"), id="factor overflow",
    ),
    pytest.param(
        _verdict_case(_zero_column), 0.0, False, RankDeficient,
        re.escape("zero singular value"), id="zero column",
    ),
    pytest.param(
        _verdict_case(_duplicate_column), 0.0, False, RankDeficient,
        r"condition number .* exceeds 1e12", id="duplicate column",
    ),
    pytest.param(
        _verdict_case(_duplicate_column), 1e-40, False, RankDeficient,
        re.escape("numerical rank 1 < 2 (lambda=1.000e-40)"), id="numerical rank",
    ),
    pytest.param(
        (np.ones((2, 1)), np.array([1e200, -1e200])), 0.0, False, NonFiniteSystem,
        re.escape("non-finite solve: residual norm inf"), id="residual overflow",
    ),
    pytest.param(
        _verdict_case(_nan_entry_and_zero_column), 0.0, False, NonFiniteSystem,
        re.escape("the system has a non-finite entry"), id="first check wins",
    ),
]


@pytest.mark.parametrize(
    "system, ridge_lambda, normalize, error_type, pattern", VERDICTS
)
def test_each_verdict_has_its_type_and_message(
    system, ridge_lambda, normalize, error_type, pattern
):
    matrix, rhs = system
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = solve_batch(matrix[None], rhs[None], ridge_lambda, normalize)
    (error,) = batch.errors
    assert type(error) is error_type
    assert re.fullmatch(pattern, str(error))
    assert np.isnan(batch.values).all()
    assert np.isnan(batch.residual_norms).all() and np.isnan(batch.conditions).all()


def test_an_overflowing_factor_fails_only_its_own_system():
    matrix, rhs = _random_system()
    overflowing = matrix.copy()
    _overflow_factor(overflowing, rhs)
    batch = solve_batch(np.stack([overflowing, matrix]), np.stack([rhs, rhs]))
    assert type(batch.errors[0]) is NonFiniteSystem and batch.errors[1] is None
    single = solve_batch(matrix[None], rhs[None])
    np.testing.assert_array_equal(batch.values[1], single.values[0])
    assert batch.residual_norms[1] == single.residual_norms[0]
    assert batch.conditions[1] == single.conditions[0]


def test_batch_of_the_wrong_rank_is_rejected():
    with pytest.raises(ShapeMismatch, match=r"\(5, 2\)"):
        solve_batch(np.ones((5, 2)), np.ones(5))


KINDS = (
    "well posed",
    "duplicate column",
    "zero column",
    "nan entry",
    "inf entry",
    "overflow",
    "factor overflow",
)


def _member(rng, rows, cols, kind):
    # a well-posed member has singular values in [1, 4], so any two SVD
    # routes agree on its condition number to a few units of roundoff
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    matrix = (u * rng.uniform(1.0, 4.0, k)) @ v.T
    rhs = rng.standard_normal(rows)
    if kind == "duplicate column":
        matrix[:, -1] = matrix[:, 0]
    elif kind == "zero column":
        matrix[:, -1] = 0.0
    elif kind == "nan entry":
        matrix[rng.integers(rows), rng.integers(cols)] = np.nan
    elif kind == "inf entry":
        rhs[rng.integers(rows)] = -np.inf
    elif kind == "overflow":
        matrix[:, 0] *= 1e200
    elif kind == "factor overflow":
        _overflow_factor(matrix, rhs)
    return matrix, rhs


@settings(deadline=None, max_examples=120)
@given(
    seed=matrices,
    rows=st.integers(1, 8),
    cols=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
    ridge_lambda=st.sampled_from([0.0, 0.5]),
    normalize=st.booleans(),
)
def test_batch_members_match_their_batch_of_one_solve(
    seed, rows, cols, kinds, ridge_lambda, normalize
):
    rng = np.random.default_rng(seed)
    members = [_member(rng, rows, cols, kind) for kind in kinds]
    batch = solve_batch(
        np.stack([matrix for matrix, _ in members]),
        np.stack([rhs for _, rhs in members]),
        ridge_lambda,
        normalize,
    )
    for index, (matrix, rhs) in enumerate(members):
        system = StackedSystem(matrix, rhs)
        try:
            if ridge_lambda == 0.0:
                single = solve_ols(system, normalize=normalize)
            else:
                single = solve_ridge(system, ridge_lambda, normalize=normalize)
        except EstimationError as exc:
            error = batch.errors[index]
            assert (type(error), str(error)) == (type(exc), str(exc))
            assert np.isnan(batch.values[index]).all()
            continue
        assert batch.errors[index] is None
        np.testing.assert_array_equal(batch.values[index], single.values)
        assert batch.conditions[index] == single.condition_estimate
        assert batch.residual_norms[index] == single.residual_norm
        # lstsq on the matrix the least-squares problem sees is the oracle
        # for the condition number and, scaled back, for the values
        scales = np.linalg.norm(matrix, axis=0) if normalize else np.ones(cols)
        scales = np.where(scales == 0.0, 1.0, scales)
        scaled, stacked_rhs = matrix / scales, rhs
        if ridge_lambda > 0:
            scaled = np.vstack([scaled, np.sqrt(ridge_lambda) * np.eye(cols)])
            stacked_rhs = np.concatenate([rhs, np.zeros(cols)])
        solution, _, _, singular = np.linalg.lstsq(scaled, stacked_rhs, rcond=None)
        expected = (singular[0] / singular[-1]) ** 2
        assert batch.conditions[index] == pytest.approx(expected, rel=1e-12)
        oracle = solution / scales
        error = np.abs(batch.values[index] - oracle)
        assert (error <= 1e-12 * np.maximum(1.0, np.abs(oracle))).all()


def _gathered_solve_windows(blocks, targets, width, ridge_lambda=0.0, normalize=False):
    """The window solver as it stood before its rows were read as views: each
    chunk of windows' rows is gathered by fancy indexing from sliding views,
    and B'B and B'r are summed in two separate buffers. The oracle for
    regression.solve_windows, bit for bit."""
    from numpy.lib.stride_tricks import sliding_window_view

    from artifact.regression import GRAM_CONDITION_CUT, SOLVE_BLOCK_VALUES, BatchSolution

    def residual_norms_of(matrices, values, rhs):
        residuals = (matrices @ values[..., None])[..., 0] - rhs
        return np.sqrt(np.add.reduce(residuals * residuals, axis=1))

    if not 0.0 <= ridge_lambda < np.inf:
        raise ValueError(f"ridge_lambda must be finite and nonnegative: {ridge_lambda}")
    blocks, targets = np.asarray(blocks, dtype=float), np.asarray(targets, dtype=float)
    if blocks.ndim != 3 or targets.shape != blocks.shape[:2] or not blocks.shape[0]:
        raise ShapeMismatch(f"blocks {blocks.shape} and targets {targets.shape} for windows")
    count, states, k = blocks.shape
    if not 1 <= width <= count + 2:
        raise ValueError(f"window width {width} for {count} blocks is not 1 .. count + 2")

    def window_rows(matrices, rhs, length, starts):
        windows, rhs = (
            np.moveaxis(sliding_window_view(array, length, axis=0), -1, 1)
            for array in (matrices, rhs)
        )
        rows = length * states
        step = max(1, SOLVE_BLOCK_VALUES // (rows * (k + 1)))
        for start in range(0, len(starts), step):
            part = slice(start, start + step)
            picked = starts[part]
            yield part, windows[picked].reshape(-1, rows, k), rhs[picked].reshape(-1, rows)

    ends = np.arange(width - 1, count + 2)
    if width == 1:
        ends = ends[1:-1]
    padded, padded_targets = np.zeros((count + 2, states, k)), np.zeros((count + 2, states))
    padded[1:-1], padded_targets[1:-1] = blocks, targets
    first = ends[0] - width + 1
    with np.errstate(all="ignore"):
        grams = np.einsum("jsa,jsb->jab", padded, padded)
        moments = np.einsum("jsa,js->ja", padded, padded_targets)
        gram = grams[first : first + len(ends)].copy()
        moment = moments[first : first + len(ends)].copy()
        for offset in range(first + 1, first + width):
            gram += grams[offset : offset + len(ends)]
            moment += moments[offset : offset + len(ends)]
        if normalize:
            scales = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
            scales[scales == 0.0] = 1.0
            gram /= scales[:, :, None] * scales[:, None, :]
            moment /= scales
        gram += ridge_lambda * np.eye(k)
        finite = np.isfinite(gram).all(axis=(1, 2)) & np.isfinite(moment).all(axis=1)
        gram[~finite] = np.eye(k)
        eigenvalues = np.linalg.eigvalsh(gram)
        conditions = eigenvalues[:, -1] / eigenvalues[:, 0]
        certified = finite & (eigenvalues[:, 0] > 0.0) & (conditions <= GRAM_CONDITION_CUT)
        gram[~certified] = np.eye(k)
        values = np.linalg.solve(gram, moment[..., None])[..., 0]
        if normalize:
            values /= scales
        values[~certified] = np.nan
        residual_norms = np.full(len(ends), np.nan)
        solved = np.flatnonzero(certified)
        for part, matrices, rhs in window_rows(padded, padded_targets, width, solved + first):
            residual_norms[solved[part]] = residual_norms_of(matrices, values[solved[part]], rhs)
    failed = np.flatnonzero(~(np.isfinite(residual_norms) & np.isfinite(values).all(axis=1)))
    errors = [None] * len(ends)
    starts = np.maximum(ends - width, 0)
    lengths = np.minimum(ends, count) - starts
    for run in np.split(failed, np.flatnonzero(np.diff(lengths[failed])) + 1):
        if not len(run):
            continue
        for part, matrices, rhs in window_rows(blocks, targets, lengths[run[0]], starts[run]):
            solution = solve_batch(matrices, rhs, ridge_lambda, normalize)
            picked = run[part]
            values[picked] = solution.values
            residual_norms[picked] = solution.residual_norms
            conditions[picked] = solution.conditions
            for window, error in zip(picked, solution.errors):
                errors[window] = error
    return ends, BatchSolution(values, residual_norms, conditions, errors, ridge_lambda)


WINDOW_ENTRY_KINDS = ("nan", "inf", "-inf", "1e200", "-0.0", "zero block", "duplicate column")


@settings(deadline=None, max_examples=300)
@given(
    seed=matrices,
    count=st.integers(1, 40),
    states=st.sampled_from([1, 2, 3, 7]),
    k=st.sampled_from([1, 2, 3, 7]),
    width_draw=st.floats(0.0, 1.0),
    kinds=st.lists(st.sampled_from(WINDOW_ENTRY_KINDS), max_size=4),
    spread=st.sampled_from([0.0, 3.0, 8.0]),
    ridge_lambda=st.sampled_from([0.0, 1e-3]),
    normalize=st.booleans(),
    layout=st.sampled_from(["C", "F", "reduced", "strided"]),
)
def test_solve_windows_keeps_the_gathered_rows_bits(
    seed, count, states, k, width_draw, kinds, spread, ridge_lambda, normalize, layout
):
    # every width from 1 to count + 2; `spread` scales the columns over up to
    # 10^8, so the windows straddle GRAM_CONDITION_CUT and some go to QR. The
    # memory layout of the blocks is drawn too: a QR window's residual norm
    # depends on the layout of the rows that solve_batch gets, and
    # ParameterPartition.reduce hands over blocks whose columns are outermost
    from artifact import regression

    rng = np.random.default_rng(seed)
    width = 1 + min(int(width_draw * (count + 2)), count + 1)
    blocks = rng.standard_normal((count, states, k)) * 10.0 ** rng.uniform(0, spread, k)
    targets = rng.standard_normal((count, states))
    for kind in kinds:
        block, state, col = rng.integers(count), rng.integers(states), rng.integers(k)
        if kind == "zero block":
            blocks[block] = 0.0
        elif kind == "duplicate column":
            blocks[:, :, col] = blocks[:, :, 0]
        else:
            value = float(kind) if kind != "-0.0" else -0.0
            if rng.integers(2):
                blocks[block, state, col] = value
            else:
                targets[block, state] = value
    if layout == "F":
        blocks, targets = np.asfortranarray(blocks), np.asfortranarray(targets)
    elif layout == "reduced":
        blocks = np.concatenate([blocks, blocks[..., :1]], axis=2)[..., list(range(k))]
    elif layout == "strided":
        blocks = np.repeat(blocks, 2, axis=2)[..., ::2]
        targets = np.repeat(targets, 2, axis=1)[:, ::2]
    expected = _gathered_solve_windows(blocks, targets, width, ridge_lambda, normalize)
    ends, solution = regression.solve_windows(blocks, targets, width, ridge_lambda, normalize)
    expected_ends, expected_solution = expected
    assert ends.tolist() == expected_ends.tolist()
    for name in ("values", "residual_norms", "conditions"):
        got, want = getattr(solution, name), getattr(expected_solution, name)
        assert got.shape == want.shape
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), name
    assert [(type(e), str(e)) for e in solution.errors] == [
        (type(e), str(e)) for e in expected_solution.errors
    ]
    assert solution.ridge_lambda == ridge_lambda


def test_solve_windows_keeps_the_gathered_rows_checks():
    # the oracle and the solver refuse the same inputs with the same messages
    from artifact import regression

    blocks, targets = np.ones((4, 3, 2)), np.ones((4, 3))
    for args in (
        (blocks[0], targets[0], 1),
        (blocks, targets[:, :2], 1),
        (blocks[:0], targets[:0], 1),
        (blocks, targets, 0),
        (blocks, targets, 7),
        (blocks, targets, 2, -1e-9),
        (blocks, targets, 2, np.inf),
    ):
        with pytest.raises((ShapeMismatch, ValueError)) as expected:
            _gathered_solve_windows(*args)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            regression.solve_windows(*args)
