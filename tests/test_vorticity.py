"""Reynolds identification oracles: manufactured fields, sensors, file IO."""

import concurrent.futures
import dataclasses
import os
import threading
import tracemalloc

import numpy as np
import pytest

from artifact import (
    AllZeroColumn,
    DimensionMismatch,
    MissingField,
    NonFiniteSystem,
    NonPhysical,
    ParseError,
    RankDeficient,
    RegionTooSmall,
    SensorSet,
    ShapeMismatch,
    SnapshotStack,
    advected_diffusion_stack,
    assemble_vorticity_system,
    curl_consistency_rms,
    default_wake_region,
    estimate_inverse_re,
    estimate_reynolds,
    load_snapshot_stack,
    manufactured_diffusion_stack,
    reynolds_convergence,
    sample_sensors,
    shedding_time_step,
    snapshots_from_flat_columns,
    solve_ols,
    write_snapshot_stack,
)
from artifact import vorticity
from artifact.differentiation import interior_neighbours

NU = 0.01
REGION = (0.5, 2.5, 0.5, 2.5)


@pytest.fixture(scope="module")
def stack65():
    return manufactured_diffusion_stack(NU, 65, 65, 21, 0.05)


def uniform_stack():
    return SnapshotStack(
        u=np.zeros((4, 8, 8)),
        v=np.zeros((4, 8, 8)),
        w=np.ones((4, 8, 8)),
        dx=0.1,
        dy=0.1,
        dt=0.1,
    )


def test_shedding_time_step_values():
    assert abs(shedding_time_step(0.164, 5, 151) - 0.202) < 1e-3
    assert shedding_time_step(1.0, 1, 1) == 1.0
    assert shedding_time_step(0.2, 4, 200) * 2.0 == shedding_time_step(0.2, 4, 100)


def test_manufactured_initial_slice_exact(stack65):
    x = np.linspace(0.0, np.pi, 65)
    np.testing.assert_array_equal(stack65.w[0], np.outer(np.sin(x), np.sin(x)))
    assert not stack65.u.any()
    assert not stack65.v.any()


def test_manufactured_snapshot_ratio(stack65):
    ratio = np.exp(-2 * NU * 0.05)
    np.testing.assert_array_equal(stack65.w[1], stack65.w[0] * ratio)
    for n in range(stack65.n_snapshots - 1):
        np.testing.assert_allclose(
            stack65.w[n + 1], stack65.w[n] * ratio, rtol=1e-13, atol=1e-14
        )


def test_manufactured_recovery_fine_grid(stack65):
    inverse = estimate_inverse_re(stack65)
    assert abs(inverse - NU) / NU < 1e-3


def test_second_order_convergence(stack65):
    coarse = manufactured_diffusion_stack(NU, 33, 33, 11, 0.1)
    err_coarse = abs(estimate_inverse_re(coarse) - NU)
    err_fine = abs(estimate_inverse_re(stack65) - NU)
    assert 3.0 <= err_coarse / err_fine <= 5.0


def test_advected_field_recovery():
    stack = advected_diffusion_stack(NU, 0.3, 0.2, 65, 65, 21, 0.05)
    inverse = estimate_inverse_re(stack)
    assert abs(inverse - NU) / NU < 1e-3


def test_advected_velocities_are_read_only_broadcast_views(tmp_path):
    stack = advected_diffusion_stack(NU, 0.3, 0.2, 9, 7, 5, 0.1)
    for field, value in ((stack.u, 0.3), (stack.v, 0.2)):
        assert not field.flags.writeable
        assert field.strides == (0, 0, 0)
        assert np.all(field == value)
    materialized = dataclasses.replace(stack, u=stack.u.copy(), v=stack.v.copy())
    assert curl_consistency_rms(stack) == curl_consistency_rms(materialized)
    loaded = load_snapshot_stack(write_snapshot_stack(stack, tmp_path / "fields"))
    for name in ("u", "v", "w"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(stack, name))


def test_uniform_field_degenerates():
    stack = uniform_stack()
    sensors = sample_sensors(stack, (0.0, 0.8, 0.0, 0.8), 3, seed=0)
    system = assemble_vorticity_system(stack, sensors)
    assert not system.matrix.any()
    assert not system.rhs.any()
    with pytest.raises(RankDeficient):
        solve_ols(system)
    with pytest.raises(AllZeroColumn):
        estimate_inverse_re(stack)


def test_nan_vorticity_is_a_non_finite_system():
    stack = manufactured_diffusion_stack(NU, 9, 9, 5, 0.1)
    stack.w[2, 4, 4] = np.nan
    with pytest.raises(NonFiniteSystem):
        estimate_inverse_re(stack)
    sensors = SensorSet(positions=((4, 4), (2, 6)), region=(), seed=0)
    with pytest.raises(NonFiniteSystem):
        estimate_inverse_re(stack, sensors)


@pytest.mark.parametrize("snapshot", [-2, -1], ids=["last interior", "last"])
def test_nan_in_a_late_snapshot_is_a_non_finite_system(snapshot):
    # the streamed full-field sums read the last snapshots in their final block
    stack = manufactured_diffusion_stack(NU, 9, 9, 5, 0.1)
    stack.w[snapshot, 4, 4] = np.nan
    with pytest.raises(NonFiniteSystem):
        estimate_inverse_re(stack)


def test_overflowing_total_of_finite_snapshot_sums_is_non_finite():
    # one spike per snapshot, the same in each, so a'b = 0 and every
    # snapshot's a'a = 20 c^2 is finite while their sum over three overflows
    w = np.zeros((5, 5, 5))
    w[:, 2, 2] = 2.2e153
    stack = SnapshotStack(
        u=np.zeros_like(w), v=np.zeros_like(w), w=w, dx=1.0, dy=1.0, dt=1.0
    )
    laplacian, target = reference_interior_fields(stack)
    assert all(np.isfinite(float(a.ravel() @ a.ravel())) for a in laplacian)
    assert not target.any()
    with pytest.raises(NonFiniteSystem, match="a'a = inf"):
        estimate_inverse_re(stack)


def reference_interior_fields(stack):
    """Full-field Laplacian and advective target, written out with plain slices."""
    w = stack.w
    wt = (w[2:] - w[:-2]) / (2.0 * stack.dt)
    core = w[1:-1]
    laplacian = (
        (core[:, 2:, 1:-1] - 2.0 * core[:, 1:-1, 1:-1] + core[:, :-2, 1:-1])
        / stack.dx**2
        + (core[:, 1:-1, 2:] - 2.0 * core[:, 1:-1, 1:-1] + core[:, 1:-1, :-2])
        / stack.dy**2
    )
    wx = (core[:, 2:, 1:-1] - core[:, :-2, 1:-1]) / (2.0 * stack.dx)
    wy = (core[:, 1:-1, 2:] - core[:, 1:-1, :-2]) / (2.0 * stack.dy)
    u_core = stack.u[1:-1, 1:-1, 1:-1]
    v_core = stack.v[1:-1, 1:-1, 1:-1]
    target = wt[:, 1:-1, 1:-1] + u_core * wx + v_core * wy
    return laplacian, target


def random_stack():
    """Seeded 6 x 11 x 8 stack with random u, v and w and dx != dy."""
    rng = np.random.default_rng(0)
    shape = (6, 11, 8)
    return SnapshotStack(
        u=rng.normal(size=shape),
        v=rng.normal(size=shape),
        w=rng.normal(size=shape),
        dx=0.3,
        dy=0.7,
        dt=0.2,
    )


class RecordedPools:
    """Worker counts of the pools vorticity opens, and the threads that read fields."""

    def __init__(self, monkeypatch):
        self.workers, self.readers = [], set()
        record = self

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                record.workers.append(workers)
                super().__init__(workers)

        def neighbours(values):
            record.readers.add(threading.get_ident())
            return interior_neighbours(values)

        # vorticity imports the pool class from its module at each use
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(vorticity, "interior_neighbours", neighbours)


@pytest.fixture(params=[1, 2, 3, 7], ids=lambda cpus: f"{cpus} cpus")
def threaded(request, monkeypatch):
    """Full-field sums on worker threads at every grid size, as on `cpus` CPUs."""
    monkeypatch.setattr(vorticity, "THREAD_MIN_VALUES", 0)
    monkeypatch.setattr(vorticity, "_usable_cpus", lambda: request.param)
    pools = RecordedPools(monkeypatch)
    threads = threading.active_count()
    yield pools
    # the pool lives only for the call
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "make_stack",
    [random_stack, lambda: advected_diffusion_stack(NU, 0.3, 0.2, 65, 65, 21, 0.05)],
    ids=["random", "advected"],
)
def test_threaded_full_field_sums_keep_the_serial_bits(make_stack, threaded):
    stack = make_stack()
    with pytest.MonkeyPatch.context() as serial:
        serial.setattr(vorticity, "_usable_cpus", lambda: 1)
        expected = (estimate_inverse_re(stack), curl_consistency_rms(stack))
    threaded.readers.clear()
    assert (estimate_inverse_re(stack), curl_consistency_rms(stack)) == expected
    # the fit reads n - 2 snapshots and the curl all n; 3 CPUs split the
    # random stack's 4 interior snapshots unevenly, 7 meet the cap of 4
    cpus = vorticity._usable_cpus()
    counts = [min(cpus, n, vorticity.MAX_THREADS)
              for n in (stack.n_snapshots - 2, stack.n_snapshots)]
    assert threaded.workers == [count for count in counts if count > 1]
    assert (threading.get_ident() in threaded.readers) == (cpus == 1)


@pytest.mark.parametrize("nan_at", [(2, 4, 4), (-2, 4, 4), (-1, 4, 4)])
def test_threaded_nan_is_a_non_finite_system(threaded, nan_at):
    # 3 interior snapshots: 7 CPUs give 3 workers, one snapshot each
    stack = manufactured_diffusion_stack(NU, 9, 9, 5, 0.1)
    stack.w[nan_at] = np.nan
    with pytest.raises(NonFiniteSystem):
        estimate_inverse_re(stack)
    assert np.isnan(curl_consistency_rms(stack))


def test_threaded_overflow_is_a_non_finite_system(threaded, overflowing_stack):
    # the stencils overflow on the workers, which warn unless each enters
    # errstate itself; pytest's error::RuntimeWarning filter would raise it
    with pytest.raises(NonFiniteSystem):
        estimate_inverse_re(overflowing_stack)
    assert curl_consistency_rms(overflowing_stack) == np.inf
    # every snapshot's a'a is finite and only their total overflows
    w = np.zeros((5, 5, 5))
    w[:, 2, 2] = 2.2e153
    stack = SnapshotStack(
        u=np.zeros_like(w), v=np.zeros_like(w), w=w, dx=1.0, dy=1.0, dt=1.0
    )
    with pytest.raises(NonFiniteSystem, match="a'a = inf"):
        estimate_inverse_re(stack)
    # so does the curl's: 7 snapshots of 225 (5e152)^2 each
    w = np.full((7, 17, 17), 5e152)
    stack = SnapshotStack(
        u=np.zeros_like(w), v=np.zeros_like(w), w=w, dx=1.0, dy=1.0, dt=1.0
    )
    assert curl_consistency_rms(stack) == np.inf


def test_small_interiors_stay_in_the_calling_thread(monkeypatch):
    # random_stack's interior holds 9 x 6 = 54 values per snapshot
    stack = random_stack()
    monkeypatch.setattr(vorticity, "_usable_cpus", lambda: 2)
    pools = RecordedPools(monkeypatch)
    monkeypatch.setattr(vorticity, "THREAD_MIN_VALUES", 55)
    estimate_inverse_re(stack)
    assert pools.workers == [] and pools.readers == {threading.get_ident()}
    monkeypatch.setattr(vorticity, "THREAD_MIN_VALUES", 54)
    pools.readers.clear()
    estimate_inverse_re(stack)
    assert pools.workers == [2] and threading.get_ident() not in pools.readers


def test_sensor_rows_match_full_field_slices():
    # nx != ny, dx != dy and random u, v, so a swapped axis or field shows
    stack = random_stack()
    positions = ((1, 1), (1, 4), (3, 6), (5, 3), (9, 1), (9, 6), (7, 2))
    sensors = SensorSet(positions=positions, region=(), seed=0)
    system = assemble_vorticity_system(stack, sensors)
    laplacian, target = reference_interior_fields(stack)
    expected_matrix = np.concatenate([laplacian[:, i - 1, j - 1] for i, j in positions])
    expected_rhs = np.concatenate([target[:, i - 1, j - 1] for i, j in positions])
    assert system.matrix.shape == (len(positions) * (stack.n_snapshots - 2), 1)
    assert system.matrix[:, 0].tobytes() == expected_matrix.tobytes()
    assert system.rhs.tobytes() == expected_rhs.tobytes()
    full = estimate_inverse_re(stack)
    # the full-field sums are accumulated one interior snapshot at a time
    squares = products = 0.0
    for a, b in zip(laplacian, target):
        squares += float(a.ravel() @ a.ravel())
        products += float(a.ravel() @ b.ravel())
    assert full == products / squares


@pytest.mark.parametrize(
    "stack",
    [random_stack(), advected_diffusion_stack(NU, 0.3, 0.2, 65, 65, 21, 0.05)],
    ids=["random", "advected"],
)
def test_streamed_full_field_matches_the_stacked_formula(stack):
    laplacian, target = reference_interior_fields(stack)
    a, b = laplacian.ravel(), target.ravel()
    one_shot = float(a @ b) / float(a @ a)
    assert estimate_inverse_re(stack) == pytest.approx(one_shot, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "bad", [(0, 3), (10, 3), (4, 0), (4, 7), (-1, 3), (4, -2), (11, 3)]
)
def test_non_interior_sensor_is_rejected(bad):
    stack = random_stack()
    sensors = SensorSet(positions=((2, 2), bad, (3, 3)), region=(), seed=0)
    with pytest.raises(ShapeMismatch, match=rf"sensor \({bad[0]}, {bad[1]}\)"):
        assemble_vorticity_system(stack, sensors)


def test_system_shape_and_solver_agreement(stack65):
    sensors = sample_sensors(stack65, REGION, 6, seed=3)
    system = assemble_vorticity_system(stack65, sensors)
    assert system.matrix.shape == (6 * 19, 1)
    via_scalar = estimate_inverse_re(stack65, sensors)
    via_general = solve_ols(system).values[0]
    assert via_scalar == pytest.approx(via_general, rel=1e-13)


def test_sensor_sampling_determinism(stack65):
    a = sample_sensors(stack65, REGION, 6, seed=3)
    b = sample_sensors(stack65, REGION, 6, seed=3)
    c = sample_sensors(stack65, REGION, 6, seed=4)
    assert a.positions == b.positions
    assert a.positions != c.positions


def test_sensor_positions_admissible(stack65):
    sensors = sample_sensors(stack65, REGION, 25, seed=1)
    assert len(set(sensors.positions)) == 25
    for i, j in sensors.positions:
        assert 1 <= i <= stack65.nx - 2
        assert 1 <= j <= stack65.ny - 2
        x, y = stack65.node_xy(i, j)
        assert REGION[0] <= x <= REGION[1]
        assert REGION[2] <= y <= REGION[3]


def test_sensor_exhaustive_draw_ignores_seed(stack65):
    # region admits exactly the four nodes (11..12) x (11..12)
    tight = (0.5, 0.6, 0.5, 0.6)
    expected = {(11, 11), (11, 12), (12, 11), (12, 12)}
    for seed in (0, 1, 17):
        sensors = sample_sensors(stack65, tight, 4, seed=seed)
        assert set(sensors.positions) == expected
    with pytest.raises(RegionTooSmall):
        sample_sensors(stack65, tight, 5, seed=0)


def test_estimate_reynolds_single_repeat(stack65):
    estimates = estimate_reynolds(stack65, REGION, [4], repeats=1, seed=7)
    sequence = np.random.SeedSequence((7, 4, 0))
    manual = sample_sensors(stack65, REGION, 4, seed=int(sequence.generate_state(1)[0]))
    inverse = estimate_inverse_re(stack65, manual)
    assert estimates[0].sensor_count == 4
    assert estimates[0].inverse_re == inverse
    assert estimates[0].re == 1.0 / inverse
    assert len(estimates[0].per_seed) == 1


def repeat_sensors(stack, region, count, repeats, seed):
    """The sensor sets estimate_reynolds draws for one count, drawn one at a time."""
    sets = []
    for repeat in range(repeats):
        state = np.random.SeedSequence((seed, count, repeat)).generate_state(1)
        sets.append(sample_sensors(stack, region, count, seed=int(state[0])))
    return sets


@pytest.mark.parametrize(
    "stack, region",
    [
        (random_stack(), (0.0, 3.0, 0.0, 4.9)),
        (advected_diffusion_stack(NU, 0.3, 0.2, 65, 65, 21, 0.05), REGION),
    ],
    ids=["random", "advected"],
)
def test_batched_sensor_sums_match_one_set_at_a_time(stack, region):
    # each repeat's sums from the one gather per count equal the sums of
    # that repeat's sensor set assembled on its own, bit for bit; random data
    # gives some non-positive fits, which estimate_reynolds rejects, so the
    # sums are compared here and the per-seed estimates below
    batched = list(vorticity._sensor_sums(stack, region, [3, 7], 5, 11))
    assert [count for count, _ in batched] == [3, 7]
    for count, sums in batched:
        sets = repeat_sensors(stack, region, count, 5, 11)
        assert sums == [vorticity._fit_sums(stack, sensors) for sensors in sets]


def test_estimate_reynolds_per_seed_equals_one_set_fits():
    stack = advected_diffusion_stack(NU, 0.3, 0.2, 65, 65, 21, 0.05)
    estimates = estimate_reynolds(stack, REGION, [3, 7], repeats=5, seed=11)
    assert [estimate.sensor_count for estimate in estimates] == [3, 7]
    for estimate in estimates:
        sets = repeat_sensors(stack, REGION, estimate.sensor_count, 5, 11)
        expected = tuple(1 / estimate_inverse_re(stack, sensors) for sensors in sets)
        assert estimate.per_seed == expected


def test_stencil_arithmetic_runs_once_per_sensor_count(monkeypatch):
    stack = advected_diffusion_stack(NU, 0.3, 0.2, 65, 65, 21, 0.05)
    shapes = []
    transport_rows = vorticity._transport_rows

    def counted(stack, w, *args, **kwargs):
        shapes.append(w.center.shape)
        return transport_rows(stack, w, *args, **kwargs)

    monkeypatch.setattr(vorticity, "_transport_rows", counted)
    estimate_reynolds(stack, REGION, [3, 7], repeats=5, seed=11)
    assert shapes == [(5, 3, 19), (5, 7, 19)]


@pytest.mark.parametrize(
    "stack, region, counts, repeats, seed, rejects",
    [
        (advected_diffusion_stack(NU, 0.3, 0.2, 65, 65, 21, 0.05), REGION, [3, 7, 16], 4, 11,
         False),
        (random_stack(), (0.0, 3.0, 0.0, 4.9), [1, 2, 3, 7, 20], 2, 4, True),
    ],
    ids=["advected", "random"],
)
def test_reynolds_convergence_equals_the_public_estimators(
    stack, region, counts, repeats, seed, rejects
):
    # every count's fit at both lambdas is the one-count estimate_reynolds,
    # None where that raises NonPhysical, and the field's estimate_inverse_re
    ridge = 1e-3
    fits = reynolds_convergence(stack, region, counts, repeats, ridge, seed)
    assert list(fits) == ["plain", "ridge"]
    rejected = 0
    for method, lam in (("plain", 0.0), ("ridge", ridge)):
        estimates, inverse = fits[method]
        assert inverse == estimate_inverse_re(stack, None, lam)
        assert len(estimates) == len(counts)
        for count, estimate in zip(counts, estimates):
            try:
                expected = estimate_reynolds(stack, region, [count], repeats, lam, seed)[0]
            except NonPhysical:
                expected = None
                rejected += 1
            assert estimate == expected
    assert (rejected > 0) == rejects
    assert rejected < 2 * len(counts)


def test_reynolds_convergence_gathers_each_count_once_and_the_field_once(monkeypatch):
    stack = advected_diffusion_stack(NU, 0.3, 0.2, 65, 65, 21, 0.05)
    shapes = []
    transport_rows = vorticity._transport_rows

    def counted(stack, w, *args, **kwargs):
        shapes.append(w.center.shape)
        return transport_rows(stack, w, *args, **kwargs)

    monkeypatch.setattr(vorticity, "_transport_rows", counted)
    reynolds_convergence(stack, REGION, [3, 7], 5, 1e-6, seed=11)
    # one (repeats, count, n - 2) gather per count, then one pass over the
    # 19 interior snapshots, shared by both lambdas
    assert shapes == [(5, 3, 19), (5, 7, 19)] + [(63, 63)] * 19


@pytest.mark.parametrize("counts", [[4, 0], [-3], [0]])
def test_sensor_count_below_one_is_rejected_before_any_draw(stack65, monkeypatch, counts):
    draws = []
    monkeypatch.setattr(vorticity, "_draw_nodes", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="sensor counts must be at least 1"):
        estimate_reynolds(stack65, REGION, counts, repeats=2, seed=0)
    assert not draws


def test_estimate_reynolds_deterministic(stack65):
    a = estimate_reynolds(stack65, REGION, [4, 8], repeats=3, seed=5)
    b = estimate_reynolds(stack65, REGION, [4, 8], repeats=3, seed=5)
    assert [e.re for e in a] == [e.re for e in b]
    for estimate in a:
        assert abs(estimate.re - 100.0) / 100.0 < 0.015


@pytest.mark.filterwarnings("error")
def test_reynolds_numbers_that_overflow_are_nonphysical(monkeypatch):
    # 1 / 5e-311, the mean of the per-seed 1.5e308 and 1.6e308, and the mean
    # of two per-seed 1/Re of 1e308 overflow: a numpy warning, or an infinite
    # Reynolds number or 1/Re, without the check
    assert vorticity._reynolds_estimate(4, [(1.0, 5e-311)], 0.0) is None
    huge = [(1.0, 1.0 / 1.5e308), (1.0, 1.0 / 1.6e308)]
    assert vorticity._reynolds_estimate(4, huge, 0.0) is None
    assert vorticity._reynolds_estimate(4, [(1.0, 1e308), (1.0, 1e308)], 0.0) is None
    finite = vorticity._reynolds_estimate(4, [(1.0, 0.01), (1.0, 0.02)], 0.0)
    assert finite.per_seed == (100.0, 50.0) and finite.re == 75.0
    stack = manufactured_diffusion_stack(NU, 17, 17, 5, 0.1)
    monkeypatch.setattr(vorticity, "_sensor_sums", lambda *args: iter([(4, [(1.0, 5e-311)])]))
    with pytest.raises(NonPhysical, match="no positive, finite Reynolds estimate"):
        estimate_reynolds(stack, REGION, [4], repeats=1)
    fits = reynolds_convergence(stack, REGION, [4], 1, 1e-6)
    assert [estimates for estimates, _ in fits.values()] == [[None], [None]]


def test_estimate_reynolds_rejects_growth():
    x = np.linspace(0.0, np.pi, 33)
    plane = np.outer(np.sin(x), np.sin(x))
    times = 0.1 * np.arange(11)
    w = np.exp(+2.0 * NU * times)[:, None, None] * plane[None, :, :]
    growing = SnapshotStack(
        u=np.zeros_like(w), v=np.zeros_like(w), w=w, dx=x[1], dy=x[1], dt=0.1
    )
    with pytest.raises(NonPhysical):
        estimate_reynolds(growing, REGION, [4], repeats=2, seed=0)
    with pytest.raises(ValueError):
        estimate_reynolds(growing, REGION, [4], repeats=0, seed=0)


def test_curl_rms_zero_for_consistent_field():
    n = 9
    coordinate = np.arange(n) / (n - 1)
    X, Y = np.meshgrid(coordinate, coordinate, indexing="ij")
    stack = SnapshotStack(
        u=np.stack([-Y] * 3),
        v=np.stack([X] * 3),
        w=np.stack([2.0 * np.ones_like(X)] * 3),
        dx=coordinate[1],
        dy=coordinate[1],
        dt=0.1,
    )
    assert curl_consistency_rms(stack) == 0.0


def test_curl_rms_streams_snapshots_in_bounded_memory():
    rng = np.random.default_rng(3)
    shape = (12, 41, 33)
    stack = SnapshotStack(
        u=rng.normal(size=shape), v=rng.normal(size=shape), w=rng.normal(size=shape),
        dx=0.3, dy=0.7, dt=0.2,
    )
    u, v, w = stack.u, stack.v, stack.w
    dvdx = (v[:, 2:, 1:-1] - v[:, :-2, 1:-1]) / (2 * stack.dx)
    dudy = (u[:, 1:-1, 2:] - u[:, 1:-1, :-2]) / (2 * stack.dy)
    whole_stack = np.sqrt(np.mean((w[:, 1:-1, 1:-1] - (dvdx - dudy)) ** 2))
    tracemalloc.start()
    try:
        rms = curl_consistency_rms(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rms == pytest.approx(whole_stack, rel=1e-12)
    assert peak < w.nbytes


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    stack = SnapshotStack(
        u=rng.normal(size=(3, 3, 3)),
        v=rng.normal(size=(3, 3, 3)),
        w=rng.normal(size=(3, 3, 3)),
        dx=0.25,
        dy=0.5,
        dt=0.125,
    )
    manifest = write_snapshot_stack(stack, tmp_path / "fields")
    loaded = load_snapshot_stack(manifest)
    np.testing.assert_array_equal(loaded.u, stack.u)
    np.testing.assert_array_equal(loaded.v, stack.v)
    np.testing.assert_array_equal(loaded.w, stack.w)
    assert (loaded.dx, loaded.dy, loaded.dt) == (0.25, 0.5, 0.125)
    assert loaded.curl_rms is not None


def test_snapshot_round_trip_keeps_cylinder_metadata(tmp_path):
    stack = dataclasses.replace(
        manufactured_diffusion_stack(NU, 5, 5, 3, 0.1), cylinder_center=(0.7, 1.3), diameter=0.4
    )
    manifest = write_snapshot_stack(stack, tmp_path / "fields")
    loaded = load_snapshot_stack(manifest)
    assert (loaded.cylinder_center, loaded.diameter) == ((0.7, 1.3), 0.4)
    # a centre with one coordinate is malformed, not dropped
    lines = [l for l in open(manifest).read().splitlines() if not l.startswith("cylinder_y=")]
    open(manifest, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="cylinder_y"):
        load_snapshot_stack(manifest)


def test_snapshot_files_are_row_major_x_fastest(tmp_path):
    w = np.arange(27, dtype=float).reshape(3, 3, 3)
    stack = SnapshotStack(
        u=np.zeros((3, 3, 3)), v=np.zeros((3, 3, 3)), w=w, dx=1.0, dy=1.0, dt=1.0
    )
    write_snapshot_stack(stack, tmp_path / "fields")
    flat = np.fromfile(tmp_path / "fields" / "w_0000.bin", dtype="<f8")
    np.testing.assert_array_equal(flat, w[0].T.ravel())


def test_manifest_dimension_mismatch(tmp_path):
    stack = manufactured_diffusion_stack(NU, 5, 5, 3, 0.1)
    manifest = write_snapshot_stack(stack, tmp_path / "fields")
    text = open(manifest).read().replace("nx=5", "nx=6")
    open(manifest, "w").write(text)
    with pytest.raises(DimensionMismatch):
        load_snapshot_stack(manifest)


def test_manifest_missing_field_file(tmp_path):
    stack = manufactured_diffusion_stack(NU, 5, 5, 3, 0.1)
    manifest = write_snapshot_stack(stack, tmp_path / "fields")
    os.remove(tmp_path / "fields" / "w_0001.bin")
    with pytest.raises(MissingField):
        load_snapshot_stack(manifest)


def test_manifest_missing_key(tmp_path):
    stack = manufactured_diffusion_stack(NU, 5, 5, 3, 0.1)
    manifest = write_snapshot_stack(stack, tmp_path / "fields")
    lines = [l for l in open(manifest).read().splitlines() if not l.startswith("dt=")]
    open(manifest, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="dt"):
        load_snapshot_stack(manifest)
    with pytest.raises(ParseError):
        load_snapshot_stack(tmp_path / "fields" / "nonexistent.txt")
    # manifests follow the run-config rules: no repeated and no empty keys
    for extra, message in (("dt=0.1\ndt=0.2\n", "duplicate"), ("=0.1\n", "empty key")):
        open(manifest, "w").write("\n".join(lines) + "\n" + extra)
        with pytest.raises(ParseError, match=message):
            load_snapshot_stack(manifest)


def test_wake_region_from_cylinder_metadata(stack65):
    tagged = dataclasses.replace(stack65, cylinder_center=(1.0, 1.5), diameter=0.5)
    x_max = (tagged.nx - 1) * tagged.dx
    region = default_wake_region(tagged)
    assert region == (1.75, x_max - 0.5, 0.5, 2.5)
    with pytest.raises(ShapeMismatch):
        default_wake_region(stack65)


def test_sensors_avoid_cylinder_disk(stack65):
    tagged = dataclasses.replace(stack65, cylinder_center=(1.5, 1.5), diameter=1.0)
    sensors = sample_sensors(tagged, (1.0, 2.0, 1.0, 2.0), 10, seed=2)
    for i, j in sensors.positions:
        x, y = tagged.node_xy(i, j)
        assert (x - 1.5) ** 2 + (y - 1.5) ** 2 > 0.25


def test_flat_columns_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    snaps = rng.normal(size=(4, 3, 5))
    flat = np.stack([s.ravel() for s in snaps], axis=1)
    np.testing.assert_array_equal(snapshots_from_flat_columns(flat, 3, 5), snaps)
    path = tmp_path / "flat.txt"
    np.savetxt(path, flat)
    np.testing.assert_array_equal(snapshots_from_flat_columns(path, 3, 5), snaps)
    with pytest.raises(DimensionMismatch):
        snapshots_from_flat_columns(flat, 3, 4)


def test_stack_validation():
    good = np.zeros((3, 4, 4))
    with pytest.raises(ShapeMismatch):
        SnapshotStack(u=good, v=good, w=np.zeros((3, 4, 5)), dx=1.0, dy=1.0, dt=1.0)
    with pytest.raises(ShapeMismatch):
        SnapshotStack(
            u=good[:2], v=good[:2], w=good[:2], dx=1.0, dy=1.0, dt=1.0
        )
    with pytest.raises(ShapeMismatch):
        SnapshotStack(u=good[0], v=good[0], w=good[0], dx=1.0, dy=1.0, dt=1.0)
    # the central stencils have no interior node on a narrower grid
    for narrow in (np.zeros((3, 4, 2)), np.zeros((3, 2, 4))):
        with pytest.raises(ShapeMismatch, match="has no interior nodes"):
            SnapshotStack(u=narrow, v=narrow, w=narrow, dx=1.0, dy=1.0, dt=1.0)
    for bad in ({"dt": 0.0}, {"dt": np.nan}, {"dx": np.nan}, {"dy": np.inf}):
        spacings = {"dx": 1.0, "dy": 1.0, "dt": 1.0, **bad}
        with pytest.raises(ValueError):
            SnapshotStack(u=good, v=good, w=good, **spacings)
    for nu, dt in ((np.nan, 0.1), (np.inf, 0.1), (0.01, np.nan)):
        with pytest.raises(ValueError):
            manufactured_diffusion_stack(nu, 5, 5, 3, dt)


def test_overflowing_stencils_are_non_finite_sums_in_every_fit(overflowing_stack):
    # the sensor fits overflow in the stencils as the full field does, and
    # report it as NonFiniteSystem rather than as a numpy warning
    stack = overflowing_stack
    region = (0.0, np.pi, 0.0, np.pi)
    with pytest.raises(NonFiniteSystem, match="not finite"):
        estimate_inverse_re(stack)
    with pytest.raises(NonFiniteSystem, match="not finite"):
        estimate_reynolds(stack, region, [4], 2)
    with pytest.raises(NonFiniteSystem, match="not finite"):
        estimate_inverse_re(stack, sample_sensors(stack, region, 4))
