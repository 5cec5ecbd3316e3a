import numpy as np
import pytest

from artifact import (
    GridField,
    ShapeMismatch,
    TimeSeries,
    TooFewPoints,
    central_diff,
    full_diff,
    spatial_gradient,
    spatial_laplacian,
)
from artifact.differentiation import time_derivative

CORE = np.s_[1:-1, 1:-1]


def test_central_diff_quadratic_exact():
    t = np.arange(0.0, 2.0 + 1e-12, 0.01)
    d = central_diff(TimeSeries(t, t**2))
    assert np.abs(d.states[:, 0] - 2.0 * d.times).max() < 1e-12


def test_central_diff_sine_second_order():
    # truncation bound h^2/6 * max|f'''| with h = 0.01
    t = np.arange(0.0, 2.0 + 1e-12, 0.01)
    d = central_diff(TimeSeries(t, np.sin(t)))
    assert np.abs(d.states[:, 0] - np.cos(d.times)).max() < 1.7e-5


def test_central_diff_drops_endpoints():
    t = np.linspace(0.0, 1.0, 11)
    d = central_diff(TimeSeries(t, t))
    assert len(d) == 9
    np.testing.assert_array_equal(d.times, t[1:-1])


def test_central_diff_nonuniform_linear_exact():
    t = np.array([0.0, 0.1, 0.35, 0.5, 1.1, 1.3])
    d = central_diff(TimeSeries(t, 3.0 * t - 1.0))
    np.testing.assert_allclose(d.states[:, 0], 3.0, atol=1e-13)


def test_central_diff_linearity():
    t = np.linspace(0.0, 3.0, 50)
    f = np.sin(t)
    g = np.exp(-t)
    combined = central_diff(TimeSeries(t, 2.0 * f - 5.0 * g)).states
    parts = 2.0 * central_diff(TimeSeries(t, f)).states - 5.0 * central_diff(
        TimeSeries(t, g)
    ).states
    np.testing.assert_allclose(combined, parts, atol=1e-14)


def test_central_diff_halving_factor():
    def worst(dt):
        t = np.arange(0.0, 2.0 + 1e-12, dt)
        d = central_diff(TimeSeries(t, np.sin(t)))
        return np.abs(d.states[:, 0] - np.cos(d.times)).max()

    factor = worst(0.02) / worst(0.01)
    assert 3.5 < factor < 4.5


def test_central_diff_needs_three_points():
    with pytest.raises(TooFewPoints):
        central_diff(TimeSeries([0.0, 1.0], [1.0, 2.0]))


@pytest.mark.parametrize("mode", ["interior", "full"])
def test_time_derivative_of_a_batch_equals_each_series_own(mode):
    # non-uniform grid: the batched targets are those of each series alone
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.uniform(0.1, 1.0, 12))
    states = rng.standard_normal((4, 12, 3))
    batched = time_derivative(t, states, mode)
    assert batched.shape == (4, 12 if mode == "full" else 10, 3)
    for draw, series in enumerate(states):
        np.testing.assert_array_equal(batched[draw], time_derivative(t, series, mode))
    view = full_diff if mode == "full" else central_diff
    np.testing.assert_array_equal(batched[0], view(TimeSeries(t, states[0])).states)


def test_time_derivative_checks_the_mode_before_the_length():
    with pytest.raises(ValueError, match="unknown derivative mode 'spline'"):
        time_derivative(np.arange(2.0), np.zeros((2, 1)), "spline")
    for mode in ("interior", "full"):
        with pytest.raises(TooFewPoints, match=f"{mode} difference needs n >= 3, got 2"):
            time_derivative(np.arange(2.0), np.zeros((2, 1)), mode)


def test_full_diff_covers_every_sample():
    t = np.linspace(0.0, 1.0, 21)
    d = full_diff(TimeSeries(t, t**2))
    assert len(d) == 21
    # one-sided ends are first order
    h = t[1] - t[0]
    assert d.states[0, 0] == pytest.approx((t[1] ** 2 - t[0] ** 2) / h)
    assert d.states[-1, 0] == pytest.approx((t[-1] ** 2 - t[-2] ** 2) / h)
    np.testing.assert_allclose(d.states[1:-1, 0], 2.0 * t[1:-1], atol=1e-12)


def test_gradient_linear_field_exact():
    x = np.arange(0.0, 2.0 + 1e-12, 0.02)
    X, Y = np.meshgrid(x, x, indexing="ij")
    gx, gy = spatial_gradient(GridField(X, 0.02, 0.02))
    np.testing.assert_allclose(gx.values[CORE], 1.0, atol=1e-13)
    np.testing.assert_allclose(gy.values[CORE], 0.0, atol=1e-13)


def test_gradient_sine_second_order():
    x = np.arange(0.0, 2.0 + 1e-12, 0.02)
    X, _ = np.meshgrid(x, x, indexing="ij")
    gx, _ = spatial_gradient(GridField(np.sin(X), 0.02, 0.02))
    assert np.abs(gx.values[CORE] - np.cos(X)[CORE]).max() < 6.7e-5


def test_gradient_boundary_ring_is_nan():
    gx, gy = spatial_gradient(GridField(np.ones((4, 4)), 1.0, 1.0))
    assert np.isnan(gx.values[0]).all() and np.isnan(gy.values[:, -1]).all()
    assert np.isfinite(gx.values[CORE]).all()


def test_laplacian_quadratic_exact():
    x = np.arange(0.0, 1.0 + 1e-12, 0.1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    lap = spatial_laplacian(GridField(X**2 + Y**2, 0.1, 0.1))
    assert np.abs(lap.values[CORE] - 4.0).max() < 1e-12


def test_laplacian_separable_sine():
    x = np.arange(0.0, 2.0 + 1e-12, 0.02)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = np.sin(X) * np.sin(Y)
    lap = spatial_laplacian(GridField(f, 0.02, 0.02))
    assert np.abs(lap.values[CORE] + 2.0 * f[CORE]).max() < 2e-4


def test_grid_needs_interior():
    with pytest.raises(TooFewPoints):
        spatial_laplacian(GridField(np.ones((2, 5)), 1.0, 1.0))


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatch):
        TimeSeries([0.0, 1.0], np.ones((3, 2)))
    with pytest.raises(ValueError):
        TimeSeries([0.0, 1.0, 2.0], [1.0, np.nan, 3.0])


def test_grid_field_validation():
    with pytest.raises(ShapeMismatch):
        GridField(np.ones(5), 1.0, 1.0)
    with pytest.raises(ValueError):
        GridField(np.ones((3, 3)), 0.0, 1.0)
