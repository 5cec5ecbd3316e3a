"""Reynolds-number identification from velocity/vorticity snapshots.

The vorticity transport equation for incompressible 2-D flow,

    w_t + u w_x + v w_y = (1/Re) (w_xx + w_yy),

is linear in the single unknown 1/Re. Sampling it at sensor nodes over
interior snapshots yields a one-column regression: the Laplacian of the
vorticity is the regressor and the advective derivative is the target.

Formulations
------------
- temporal derivative: central difference across snapshots (first and last
  snapshot dropped)
- spatial derivatives: second-order central stencils at strictly interior
  nodes, one definition each in `differentiation`, shared by the sensor and
  the full-field fits; a sensor system reads only the stencil values around
  its sensors, so its cost scales with sensors x snapshots, not with the grid
- sensor draws: all repeats of one sensor count are drawn first, then their
  stencil values are gathered in one fancy index of shape
  (repeats, count, n - 2) and differenced once; each repeat's sums are dot
  products over its own sensor-major rows, so they equal those of the
  repeat's system assembled on its own, bit for bit
- solve: scalar normal equation sum(a b) / (sum(a a) + lambda), identical to
  the general solver on the stacked one-column system; the full-field sums
  are computed one interior snapshot at a time, each snapshot's Laplacian
  and target written into three (nx - 2, ny - 2) buffers, so neither the
  stacked system nor a per-snapshot temporary is allocated
- threads: when a snapshot's interior holds at least THREAD_MIN_VALUES
  values, the full-field sums and the curl diagnostic split the snapshots
  into contiguous runs over a thread pool that lives for one call, each
  worker with its own buffers; the per-snapshot sums come back in snapshot
  order and are added in the calling thread, so every result has the same
  bits for every worker count, the serial path included
- study: reynolds_convergence fits each sensor count and the full field at
  lambda 0 and at a ridge lambda from one set of draws and sums; a count
  whose fit is not positive, or whose Reynolds number overflows, gives None,
  where estimate_reynolds raises NonPhysical

Snapshot files are raw little-endian float64, row-major with x fastest, so
a file holds ny rows of nx values; in memory fields are (nx, ny) with x
first. The manifest next to the field files is a key=value run config.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import get_float, get_int, load_config
from .differentiation import (
    Neighbours,
    central_difference,
    five_point_laplacian,
    interior_neighbours,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    MissingField,
    NonPhysical,
    ParseError,
    RegionTooSmall,
    ShapeMismatch,
)
from .regression import StackedSystem, column_sums, solve_column_sums

FILE_PATTERNS = {"u": "u_%04d.bin", "v": "v_%04d.bin", "w": "w_%04d.bin"}

# full-field sums run on worker threads only from this many interior values
# per snapshot, as a pool costs more than it saves on small grids (_fit_sums
# serial -> 2 threads, medians of 9 on a 2-vCPU Xeon: 1.5 -> 3.1 ms at
# 65^2 x 21, 4.1 -> 4.5 ms at 129^2 x 21, 12.7 -> 11.8 ms at 161^2 x 41,
# 27 -> 19 ms at 193^2 x 61, 99 -> 57 ms at 257^2 x 101), and on at most
# MAX_THREADS workers, each holding its own interior-sized scratch buffers
THREAD_MIN_VALUES = 1 << 15
MAX_THREADS = 4


@dataclass(frozen=True)
class SnapshotStack:
    """Gridded (u, v, w) fields over n_snapshots times."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    dx: float
    dy: float
    dt: float
    cylinder_center: tuple | None = None
    diameter: float | None = None
    curl_rms: float | None = None

    def __post_init__(self):
        for name in ("u", "v", "w"):
            field_array = np.asarray(getattr(self, name), dtype=float)
            if field_array.ndim != 3:
                raise ShapeMismatch(f"{name} must be (n_snapshots, nx, ny)")
            object.__setattr__(self, name, field_array)
        if not (self.u.shape == self.v.shape == self.w.shape):
            raise ShapeMismatch("u, v, w shapes differ")
        if self.n_snapshots < 3:
            raise ShapeMismatch("need at least 3 snapshots for temporal stencils")
        if self.nx < 3 or self.ny < 3:
            raise ShapeMismatch(f"grid {self.nx}x{self.ny} has no interior nodes")
        if not all(0.0 < h < np.inf for h in (self.dx, self.dy, self.dt)):
            raise ValueError("dx, dy, dt must be finite and positive")

    @property
    def n_snapshots(self) -> int:
        return self.w.shape[0]

    @property
    def nx(self) -> int:
        return self.w.shape[1]

    @property
    def ny(self) -> int:
        return self.w.shape[2]

    def node_xy(self, i: int, j: int) -> tuple:
        return i * self.dx, j * self.dy


@dataclass(frozen=True)
class SensorSet:
    """Unique strictly interior grid indices drawn inside a wake region."""

    positions: tuple
    region: tuple
    seed: int


@dataclass(frozen=True)
class ReynoldsEstimate:
    """Seed-averaged estimate for one sensor count.

    `re` is the mean of per-seed Reynolds numbers (the published statistic);
    `inverse_re` is the mean of the per-seed regression unknowns. The two are
    exact reciprocals only for a single repeat.
    """

    sensor_count: int
    re: float
    inverse_re: float
    per_seed: tuple
    ridge_lambda: float


def shedding_time_step(strouhal: float, periods: int, snapshots: int) -> float:
    """Snapshot interval covering `periods` shedding periods of 1/strouhal."""
    return periods * (1.0 / strouhal) / snapshots


def manufactured_diffusion_stack(
    nu: float, nx: int, ny: int, n_snapshots: int, dt: float
) -> SnapshotStack:
    """Analytic decaying field w = exp(-2 nu t) sin x sin y on [0, pi]^2.

    Solves the transport equation exactly with u = v = 0 and 1/Re = nu, so
    it serves as a ground-truth oracle: advected_diffusion_stack at rest.
    """
    return advected_diffusion_stack(nu, 0.0, 0.0, nx, ny, n_snapshots, dt)


def advected_diffusion_stack(
    nu: float, cx: float, cy: float, nx: int, ny: int, n_snapshots: int, dt: float
) -> SnapshotStack:
    """Manufactured field advected by a uniform velocity (cx, cy).

    w = exp(-2 nu t) sin(x - cx t) sin(y - cy t) with u = cx, v = cy solves
    the transport equation with the same 1/Re = nu; used to exercise the
    advective terms of the assembly. u and v are read-only broadcast views
    of the constant velocity, so copy them before writing.
    """
    if not (0.0 < nu < np.inf and 0.0 < dt < np.inf) or min(nx, ny, n_snapshots) < 3:
        raise ValueError("need finite positive nu, dt, grid >= 3, snapshots >= 3")
    x = np.linspace(0.0, np.pi, nx)
    y = np.linspace(0.0, np.pi, ny)
    t = dt * np.arange(n_snapshots)[:, None]
    w = np.sin(x - cx * t)[:, :, None] * np.sin(y - cy * t)[:, None, :]
    w *= np.exp(-2.0 * nu * t)[:, :, None]
    u = np.broadcast_to(float(cx), w.shape)
    v = np.broadcast_to(float(cy), w.shape)
    return SnapshotStack(u=u, v=v, w=w, dx=x[1] - x[0], dy=y[1] - y[0], dt=dt)


def default_wake_region(stack: SnapshotStack) -> tuple:
    """Axis-aligned wake box (x_lo, x_hi, y_lo, y_hi).

    From one diameter downstream of the cylinder's trailing edge to one
    diameter before the outflow boundary, within two diameters of the
    centerline.
    """
    if stack.cylinder_center is None or stack.diameter is None:
        raise ShapeMismatch("stack has no cylinder metadata for a wake region")
    cx, cy = stack.cylinder_center
    d = stack.diameter
    x_max = (stack.nx - 1) * stack.dx
    return (cx + 0.5 * d + d, x_max - d, cy - 2.0 * d, cy + 2.0 * d)


def _admissible_nodes(stack: SnapshotStack, region) -> np.ndarray:
    x_lo, x_hi, y_lo, y_hi = region
    i = np.arange(1, stack.nx - 1)
    j = np.arange(1, stack.ny - 1)
    x = i * stack.dx
    y = j * stack.dy
    inside_x = (x >= x_lo) & (x <= x_hi)
    inside_y = (y >= y_lo) & (y <= y_hi)
    ii, jj = np.meshgrid(i[inside_x], j[inside_y], indexing="ij")
    nodes = np.column_stack([ii.ravel(), jj.ravel()])
    if stack.cylinder_center is not None and stack.diameter is not None:
        cx, cy = stack.cylinder_center
        radius = 0.5 * stack.diameter
        dist2 = (nodes[:, 0] * stack.dx - cx) ** 2 + (nodes[:, 1] * stack.dy - cy) ** 2
        nodes = nodes[dist2 > radius**2]
    return nodes


def sample_sensors(
    stack: SnapshotStack, region, count: int, seed: int = 0
) -> SensorSet:
    """Uniform draw of `count` admissible nodes without replacement."""
    nodes = _draw_nodes(_admissible_nodes(stack, region), count, seed)
    return SensorSet(tuple(map(tuple, nodes.tolist())), tuple(region), seed)


def _draw_nodes(nodes: np.ndarray, count: int, seed: int) -> np.ndarray:
    """(count, 2) rows of `nodes` drawn without replacement, in `nodes` order."""
    if count > len(nodes):
        raise RegionTooSmall(
            f"requested {count} sensors but region admits {len(nodes)} nodes"
        )
    rng = np.random.default_rng(seed)
    return nodes[np.sort(rng.choice(len(nodes), size=count, replace=False))]


def _transport_rows(
    stack: SnapshotStack, w: Neighbours, later, earlier, u, v, out=(None, None, None)
):
    """Regressor (Laplacian) and target (advective derivative) from stencil values.

    `w` holds the vorticity around each row's node at snapshot n, `later` and
    `earlier` the node's vorticity at n + 1 and n - 1, `u` and `v` its
    velocity at n; all share the rows' shape. The target is
    (later - earlier)/(2 dt) + u (E - W)/(2 dx) + v (N - S)/(2 dy), summed
    left to right. `out` holds the Laplacian, target and scratch arrays of
    that shape to write into; None entries are allocated.
    """
    laplacian, target, work = out
    laplacian = five_point_laplacian(w, stack.dx, stack.dy, out=laplacian, work=work)
    target = central_difference(later, earlier, stack.dt, out=target)
    work = central_difference(w.east, w.west, stack.dx, out=work)
    work *= u
    target += work
    central_difference(w.north, w.south, stack.dy, out=work)
    work *= v
    target += work
    return laplacian, target


def _sensor_rows(stack: SnapshotStack, positions: np.ndarray) -> tuple:
    """Laplacian and target at (..., 2) sensor nodes over interior snapshots.

    Both have shape positions.shape[:-1] + (n_snapshots - 2,): seven gathers
    cover every sensor of every set in `positions`.
    """
    i, j = positions[..., :1], positions[..., 1:]
    # fancy indexing wraps negative indices, so reject before any gather
    outside = np.flatnonzero(
        (i < 1) | (i > stack.nx - 2) | (j < 1) | (j > stack.ny - 2)
    )
    if outside.size:
        bad_i, bad_j = positions.reshape(-1, 2)[outside[0]]
        raise ShapeMismatch(f"sensor ({bad_i}, {bad_j}) is not strictly interior")
    n = np.arange(1, stack.n_snapshots - 1)
    # one gather of each sensor's whole series gives its w at n, n + 1, n - 1
    w, series = stack.w, stack.w[np.arange(stack.n_snapshots), i, j]
    return _transport_rows(
        stack,
        Neighbours(series[..., 1:-1], w[n, i + 1, j], w[n, i - 1, j],
                   w[n, i, j + 1], w[n, i, j - 1]),
        series[..., 2:],
        series[..., :-2],
        stack.u[n, i, j],
        stack.v[n, i, j],
    )


def assemble_vorticity_system(stack: SnapshotStack, sensors: SensorSet) -> StackedSystem:
    """One-column system over every (sensor, interior snapshot) pair.

    Rows are ordered sensor-major, snapshots ascending within each sensor;
    row count is len(sensors) * (n_snapshots - 2). Only the stencil values
    around the sensors are read.
    """
    nodes = np.array(sensors.positions, dtype=np.intp).reshape(-1, 2)
    laplacian, target = _sensor_rows(stack, nodes)
    return StackedSystem(laplacian.reshape(-1, 1), target.ravel())


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _per_snapshot(stack: SnapshotStack, snapshots: range, buffers: int, snapshot_sum):
    """[snapshot_sum(n, scratch) for n in snapshots], in snapshot order.

    `scratch` is a (buffers, nx - 2, ny - 2) block that the call may write.
    A stack whose interior holds at least THREAD_MIN_VALUES values per
    snapshot is split into contiguous runs of snapshots, one per worker
    thread, up to min(usable CPUs, snapshots, MAX_THREADS) workers; smaller
    stacks run serially, where a pool costs more than it saves. Every
    worker gets its own scratch slice of one block allocated here, and each
    runs under errstate(all="ignore") itself, because numpy's error state is
    per thread: an overflow shows up as a non-finite value, never a warning,
    whichever thread computed it. The pool lives only for this call.
    """
    interior = (stack.nx - 2, stack.ny - 2)
    workers = min(_usable_cpus(), len(snapshots), MAX_THREADS)
    if interior[0] * interior[1] < THREAD_MIN_VALUES:
        workers = 1
    scratch = np.empty((workers, buffers) + interior)

    def run(worker: int, part: range) -> list:
        with np.errstate(all="ignore"):
            return [snapshot_sum(n, scratch[worker]) for n in part]

    if workers == 1:
        return run(0, snapshots)
    # imported here, so only a large grid loads the pool's modules (about
    # 4 ms and 0.6 MB at start-up)
    from concurrent.futures import ThreadPoolExecutor

    edges = [len(snapshots) * k // workers for k in range(workers + 1)]
    parts = [snapshots[lo:hi] for lo, hi in zip(edges, edges[1:])]
    with ThreadPoolExecutor(workers) as pool:
        runs = list(pool.map(run, range(workers), parts))
    return [value for values in runs for value in values]


def _fit_sums(stack: SnapshotStack, sensors: SensorSet | None = None) -> tuple:
    """Sums a'a and a'b of a sensor system, or of every interior node.

    The full field's snapshot n contributes a'a and a'b over its interior,
    computed by `_per_snapshot` (on a thread pool once a snapshot's interior
    holds THREAD_MIN_VALUES values, serially below that) with its Laplacian
    and target written into three interior-sized scratch buffers, so neither
    the (n - 2)(nx - 2)(ny - 2) system nor a per-snapshot temporary is
    allocated. The snapshots' sums are then added in snapshot order in this
    thread, so the result has the same bits for every worker count.
    """
    if sensors is not None:
        # an overflow is the sums' verdict (NonFiniteSystem), as in the full field's
        with np.errstate(all="ignore"):
            system = assemble_vorticity_system(stack, sensors)
            return column_sums(system.matrix, system.rhs)
    w, u, v, core = stack.w, stack.u, stack.v, np.s_[1:-1, 1:-1]

    def snapshot_sums(n: int, scratch: np.ndarray) -> tuple:
        return column_sums(*_transport_rows(stack, interior_neighbours(w[n]), w[n + 1][core],
                                            w[n - 1][core], u[n][core], v[n][core], scratch))

    squares = products = 0.0
    for square, product in _per_snapshot(
        stack, range(1, stack.n_snapshots - 1), 3, snapshot_sums
    ):
        squares += square
        products += product
    return squares, products


def estimate_inverse_re(
    stack: SnapshotStack, sensors: SensorSet | None = None, ridge_lambda: float = 0.0
) -> float:
    """Estimated 1/Re from a sensor set, or from every interior node."""
    return solve_column_sums(*_fit_sums(stack, sensors), ridge_lambda)


def _sensor_sums(stack: SnapshotStack, region, sensor_counts, repeats: int, seed: int):
    """Yield (count, each repeat's (a'a, a'b)) from estimate_reynolds's draws.

    All repeats of one count are drawn first; their stencil values are then
    gathered and differenced at once, as a (repeats, count, n - 2) block.
    """
    counts = [int(count) for count in sensor_counts]
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if any(count < 1 for count in counts):
        raise ValueError("sensor counts must be at least 1")
    nodes = _admissible_nodes(stack, region)
    for count in counts:
        draws = []
        for repeat in range(repeats):
            state = np.random.SeedSequence((seed, count, repeat)).generate_state(1)
            draws.append(_draw_nodes(nodes, count, int(state[0])))
        with np.errstate(all="ignore"):  # as in _fit_sums
            laplacian, target = _sensor_rows(stack, np.stack(draws))
            sums = [column_sums(*block) for block in zip(laplacian, target)]
        yield count, sums


def _reynolds_estimate(count: int, sums, ridge_lambda: float) -> ReynoldsEstimate | None:
    """Seed-averaged estimate from each repeat's (a'a, a'b) at one lambda, or
    None when any per-seed inverse estimate is not positive, when their mean
    is not positive or overflows, or when a per-seed Reynolds number, or
    their mean, overflows."""
    inverses = np.array([solve_column_sums(*pair, ridge_lambda) for pair in sums])
    with np.errstate(over="ignore"):  # a mean that overflows ends the fit
        inverse = float(inverses.mean())
        if np.any(inverses <= 0) or not 0.0 < inverse < np.inf:
            return None
        # Python floats, so 1 / 5e-311 is inf without a numpy warning
        per_seed = tuple(1.0 / inv for inv in inverses.tolist())
        re = float(np.mean(per_seed))
    if not re < np.inf:
        return None
    return ReynoldsEstimate(count, re, inverse, per_seed, ridge_lambda)


def estimate_reynolds(
    stack: SnapshotStack,
    region,
    sensor_counts,
    repeats: int = 20,
    ridge_lambda: float = 0.0,
    seed: int = 0,
) -> list:
    """Seed-averaged Reynolds estimates per sensor count.

    Repeat r for count c draws sensors with SeedSequence((seed, c, r)), so
    the full pipeline is reproducible from one integer. Per-seed Reynolds
    numbers are averaged directly; NonPhysical is raised when any per-seed
    inverse estimate (or their mean) is not positive, or a per-seed Reynolds
    number (or their mean) is not finite.
    """
    estimates = []
    for count, sums in _sensor_sums(stack, region, sensor_counts, repeats, seed):
        estimate = _reynolds_estimate(count, sums, ridge_lambda)
        if estimate is None:
            raise NonPhysical(f"no positive, finite Reynolds estimate at sensor count {count}")
        estimates.append(estimate)
    return estimates


def reynolds_convergence(
    stack: SnapshotStack, region, sensor_counts, repeats: int, ridge_lambda: float, seed: int = 0
) -> dict:
    """{"plain": fits at lambda 0, "ridge": fits at `ridge_lambda`}.

    Each method's fits are (estimates, inverse_re): per entry of
    `sensor_counts` estimate_reynolds's estimate, or None where it raises
    NonPhysical, and the full field's estimate_inverse_re. Sensors and field
    are drawn and summed once for both lambdas; after the draws, solve errors
    come in the order plain sensors, plain field, ridge sensors, ridge field.
    """
    draws = list(_sensor_sums(stack, region, sensor_counts, repeats, seed))
    field = _fit_sums(stack)
    fits = {}
    for method, lam in (("plain", 0.0), ("ridge", ridge_lambda)):
        estimates = [_reynolds_estimate(count, sums, lam) for count, sums in draws]
        fits[method] = estimates, solve_column_sums(*field, lam)
    return fits


def curl_consistency_rms(stack: SnapshotStack) -> float:
    """RMS of w - (dv/dx - du/dy) over interior nodes and all snapshots.

    Each snapshot's sum of squares is computed by `_per_snapshot` (on a
    thread pool once a snapshot's interior holds THREAD_MIN_VALUES values,
    serially below that), its residual written into two interior-sized
    scratch buffers, so no temporary the size of the stack is allocated; the
    sums are added in snapshot order in this thread, so the RMS has the same
    bits for every worker count. A field that overflows gives a non-finite
    RMS, not a numpy warning.
    """
    def snapshot_squares(n: int, scratch: np.ndarray):
        residual, dudy = scratch
        v, u = interior_neighbours(stack.v[n]), interior_neighbours(stack.u[n])
        central_difference(v.east, v.west, stack.dx, out=residual)
        residual -= central_difference(u.north, u.south, stack.dy, out=dudy)
        np.subtract(interior_neighbours(stack.w[n]).center, residual, out=residual)
        return float(np.vdot(residual, residual))

    # a plain loop, not sum(): from Python 3.12 sum() compensates float
    # rounding, which would move the bits
    squares = 0.0
    for square in _per_snapshot(stack, range(stack.n_snapshots), 2, snapshot_squares):
        squares += square
    return float(np.sqrt(squares / (stack.n_snapshots * (stack.nx - 2) * (stack.ny - 2))))


def write_snapshot_stack(stack: SnapshotStack, directory) -> str:
    """Write manifest plus per-snapshot field files; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, "manifest.txt")
    lines = [
        f"nx={stack.nx}",
        f"ny={stack.ny}",
        f"dx={float(stack.dx)!r}",
        f"dy={float(stack.dy)!r}",
        f"dt={float(stack.dt)!r}",
        f"n_snapshots={stack.n_snapshots}",
    ]
    # a cylinder is its centre and diameter; either one alone locates none
    if stack.cylinder_center is not None and stack.diameter is not None:
        lines.append(f"cylinder_x={float(stack.cylinder_center[0])!r}")
        lines.append(f"cylinder_y={float(stack.cylinder_center[1])!r}")
        lines.append(f"diameter={float(stack.diameter)!r}")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    for name, pattern in FILE_PATTERNS.items():
        fields = getattr(stack, name)
        for n in range(stack.n_snapshots):
            # files are row-major with x fastest: transpose to (ny, nx)
            fields[n].T.astype("<f8").tofile(os.path.join(directory, pattern % n))
    return manifest_path


def load_snapshot_stack(manifest_path) -> SnapshotStack:
    """Load a stack from a manifest; computes the curl diagnostic RMS.

    The manifest is read by `config.load_config` and its getters, which reject
    non-finite numbers; their errors (a cylinder centre needs both cylinder_x
    and cylinder_y), cylinder metadata without its centre or its diameter, and
    grid sizes, spacings or a diameter that no stack can have, become
    ParseError before any field file is read.
    """
    try:
        values = load_config(manifest_path)
        nx, ny = get_int(values, "nx"), get_int(values, "ny")
        n_snapshots = get_int(values, "n_snapshots")
        dx, dy, dt = (get_float(values, key) for key in ("dx", "dy", "dt"))
        center = None
        if "cylinder_x" in values or "cylinder_y" in values:
            center = (get_float(values, "cylinder_x"), get_float(values, "cylinder_y"))
        diameter = get_float(values, "diameter", None)
    except ConfigError as exc:
        raise ParseError(f"snapshot manifest: {exc}") from None
    # the spatial and temporal stencils need three points on each axis
    for key, size in (("nx", nx), ("ny", ny), ("n_snapshots", n_snapshots)):
        if size < 3:
            raise ParseError(f"snapshot manifest: {key}={size}, need at least 3")
    if center is not None and diameter is None:
        raise ParseError("snapshot manifest: a cylinder centre needs a diameter")
    if diameter is not None and center is None:
        raise ParseError("snapshot manifest: diameter needs cylinder_x and cylinder_y")
    for key, length in (("dx", dx), ("dy", dy), ("dt", dt), ("diameter", diameter)):
        if length is not None and length <= 0:
            raise ParseError(f"snapshot manifest: {key}={length} is not positive")
    directory = os.path.dirname(os.path.abspath(manifest_path))
    fields = {}
    for name, pattern in FILE_PATTERNS.items():
        snapshots = np.empty((n_snapshots, nx, ny))
        for n in range(n_snapshots):
            path = os.path.join(directory, pattern % n)
            if not os.path.exists(path):
                raise MissingField(f"missing field file {path}")
            flat = np.fromfile(path, dtype="<f8")
            if flat.size != nx * ny:
                raise DimensionMismatch(
                    f"{path}: {flat.size} values, manifest says {nx}x{ny}={nx * ny}"
                )
            snapshots[n] = flat.reshape(ny, nx).T
        fields[name] = snapshots
    stack = SnapshotStack(
        u=fields["u"],
        v=fields["v"],
        w=fields["w"],
        dx=dx,
        dy=dy,
        dt=dt,
        cylinder_center=center,
        diameter=diameter,
    )
    object.__setattr__(stack, "curl_rms", curl_consistency_rms(stack))
    return stack


def snapshots_from_flat_columns(flat, nx: int, ny: int) -> np.ndarray:
    """Convert a column-per-snapshot flat export to (n_snapshots, nx, ny).

    Accepts an array or a text file path of shape (nx * ny, n_snapshots);
    each column is reshaped row-major to (nx, ny).
    """
    if isinstance(flat, (str, os.PathLike)):
        flat = np.loadtxt(flat)
    flat = np.atleast_2d(np.asarray(flat, dtype=float))
    if flat.shape[0] != nx * ny:
        raise DimensionMismatch(
            f"flat export has {flat.shape[0]} rows, expected nx*ny={nx * ny}"
        )
    return np.stack([flat[:, k].reshape(nx, ny) for k in range(flat.shape[1])])
