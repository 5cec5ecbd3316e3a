"""Batch experiment runner.

Subcommands
-----------
simulate   integrate a configured model and write the trajectory
estimate   fit parameters to a trajectory CSV, constant or per-day
sweep      randomized recovery sweep over a parameter box
covid      case counts to compartments, windowed beta, re-simulation
reynolds   Reynolds identification from snapshots or a manufactured field

Every subcommand reads a flat key=value config (--config) whose keys are all
declared in _KEY_ROWS and read by its family of commands (_FAMILY_KEYS), is
deterministic for a given config and seed, and
only computes: it returns its result files by name. `main` alone creates
--out and writes them and the run.log block, once the command has returned,
so a failed command writes nothing. Wall-clock
timestamps appear only in the sidecar run.log, never in result files, so
reruns produce byte-identical bodies.

Exit codes: 0 success, 2 usage or config error, 3 data error, 4 numerical
failure; an EstimationError exits with its type's `exit_code`.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .config import REQUIRED, get_flag, get_float, get_floats, get_int, get_ints, get_str
from .config import load_config, read_csv
from .differentiation import TimeSeries
from .epidemic import FixedRates, build_sir_states, load_who_csv
from .errors import (
    ConfigError,
    EstimationError,
    NonPositivePopulation,
    ParseError,
    RankDeficient,
    ShapeMismatch,
    TooFewPoints,
)
from .estimation import (
    EstimationWindow,
    NoiseSpec,
    SweepSpec,
    add_noise,
    estimate_constant,
    estimate_time_varying,
    relative_error_metrics,
    run_sweep,
)
from .integrator import (
    ConstantSchedule,
    PiecewiseSchedule,
    SimulationConfig,
    SinusoidalBetaSchedule,
    simulate,
)
from .models import get_model
from .regression import ParameterPartition
from .vorticity import (
    default_wake_region,
    load_snapshot_stack,
    manufactured_diffusion_stack,
    reynolds_convergence,
)


# Every config key a command reads, as (getter, default, keys): each default
# is written once, here. known.<name> (a parameter held fixed) shares the
# known.* row. A None default that depends on the model (schedule.parameter)
# is resolved where the key is read.
_KEY_ROWS = (
    (get_str, REQUIRED, ("model.name",)),
    (get_float, None, ("model.population",)),
    (get_str, "constant", ("schedule.type", "estimate.mode")),
    (get_floats, REQUIRED, ("schedule.omega", "schedule.base", "sim.x0", "sweep.domain")),
    (get_str, None, ("schedule.parameter",)),
    (get_float, REQUIRED, ("schedule.mean", "schedule.amplitude", "schedule.period")),
    (get_float, REQUIRED, ("sim.t_end", "sim.step", "known.*")),
    (get_float, 0.0, ("sim.t0", "noise.epsilon", "estimate.ridge", "covid.ridge")),
    (get_int, REQUIRED, ("sim.points", "estimate.start", "estimate.stop", "sweep.samples")),
    (get_int, 0, ("noise.seed", "sweep.seed", "reynolds.seed")),
    (get_flag, False, ("estimate.normalize", "sweep.normalized")),
    (get_str, "interior", ("estimate.derivative", "sweep.derivative")),
    (get_int, 14, ("estimate.window", "covid.window")),
    (get_float, 1.0 / 9.0, ("covid.gamma",)),
    (get_float, 100.0, ("reynolds.target",)),
    (get_int, 129, ("reynolds.nx", "reynolds.ny")),
    (get_int, 51, ("reynolds.snapshots",)),
    (get_float, 0.05, ("reynolds.dt",)),
    (get_int, 20, ("reynolds.repeats",)),
    (get_ints, (4, 8, 16, 32, 64), ("reynolds.counts",)),
    (get_float, 1e-6, ("reynolds.ridge",)),
    (get_floats, None, ("reynolds.region",)),
)
CONFIG_KEYS = {key: (getter, default) for getter, default, keys in _KEY_ROWS for key in keys}

# The keys each command's family reads, as whole keys or "section." prefixes.
# The commands of one family share configs: a simulate config also serves
# estimate, so each of the two accepts the other's keys. A sweep config is a
# simulate config without noise keys, plus its sweep keys; it may keep an
# estimate config's schedule and estimate keys, which the sweep does not read.
_SIMULATE_FAMILY = ("model.", "schedule.", "sim.", "noise.", "estimate.", "known.")
_FAMILY_KEYS = {
    "simulate": _SIMULATE_FAMILY,
    "estimate": _SIMULATE_FAMILY,
    "sweep": ("model.", "schedule.", "sim.", "estimate.", "known.", "sweep."),
    "covid": ("model.population", "covid."),
    "reynolds": ("reynolds.",),
}


def _table_key(key: str) -> str:
    return "known.*" if key.startswith("known.") else key


def _load_config(path, command: str) -> dict:
    """load_config that rejects a key no command reads, naming the nearest one,
    and a key that no command of `command`'s family reads."""
    entries = load_config(path)
    for key in entries:
        if _table_key(key) not in CONFIG_KEYS:
            nearest = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
            hint = f" (did you mean {nearest[0]}?)" if nearest else ""
            raise ConfigError(f"{path}: unknown config key {key}{hint}")
        if not key.startswith(_FAMILY_KEYS[command]):
            raise ConfigError(f"{path}: config key {key} is not read by the {command} command")
    return entries


def _get(entries: dict, key: str):
    getter, default = CONFIG_KEYS[_table_key(key)]
    return getter(entries, key, default)


def _write_csv(path, header, rows) -> None:
    """Rows of str and Python numbers; csv writes each float as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _resolve_seed(args, entries: dict, key: str) -> int:
    if args.seed is not None:
        return args.seed
    return _get(entries, key)


def _model_from_config(entries: dict, name: str | None = None):
    """The configured model; `name`, if given, replaces the model.name key."""
    name = name or _get(entries, "model.name")
    population = _get(entries, "model.population")
    try:
        return get_model(name, population)
    except ShapeMismatch as exc:
        raise ConfigError(str(exc)) from None
    except NonPositivePopulation as exc:
        raise ConfigError(f"model.population: {exc}") from None


def _parameter_vector(entries: dict, key: str, model) -> np.ndarray:
    values = _get(entries, key)
    if len(values) != model.n_params:
        raise ConfigError(
            f"{key} has {len(values)} values, "
            f"model {model.name} has {model.n_params} parameters"
        )
    return np.asarray(values)


def _schedule_from_config(entries: dict, model):
    kind = _get(entries, "schedule.type")
    if kind == "constant":
        return ConstantSchedule(_parameter_vector(entries, "schedule.omega", model))
    if kind == "sinusoidal":
        base = _parameter_vector(entries, "schedule.base", model)
        name = _get(entries, "schedule.parameter")
        if name is None:
            name = model.parameter_names[0]
        try:
            index = model.parameter_index(name)
        except EstimationError:
            raise ConfigError(f"unknown schedule.parameter {name!r}") from None
        return SinusoidalBetaSchedule(
            base,
            mean=_get(entries, "schedule.mean"),
            amplitude=_get(entries, "schedule.amplitude"),
            period=_get(entries, "schedule.period"),
            index=index,
        )
    raise ConfigError(f"unknown schedule.type {kind!r}")


def _sim_config_from(entries: dict, model, schedule) -> SimulationConfig:
    t0 = _get(entries, "sim.t0")
    t_end = _get(entries, "sim.t_end")
    if "sim.points" in entries:
        points = _get(entries, "sim.points")
        if points < 2:
            raise ConfigError("sim.points must be at least 2")
        step = (t_end - t0) / (points - 1)
    else:
        step = _get(entries, "sim.step")
    x0 = np.asarray(_get(entries, "sim.x0"), dtype=float)
    if len(x0) != model.n_states:
        raise ConfigError(
            f"sim.x0 has {len(x0)} values, model {model.name} has "
            f"{model.n_states} states"
        )
    return SimulationConfig(
        t0=t0, t_end=t_end, step=step, initial_state=x0, schedule=schedule
    )


def _partition_from_config(entries: dict, model):
    known = {}
    for key in entries:
        if not key.startswith("known."):
            continue
        name = key[len("known."):]
        try:
            index = model.parameter_index(name)
        except EstimationError:
            raise ConfigError(f"unknown parameter {name!r} in {key}") from None
        known[index] = _get(entries, key)
    return ParameterPartition.from_known(model.n_params, known)


def _series_rows(series: TimeSeries) -> list:
    return np.column_stack([series.times, series.states]).tolist()


def _read_table(path, expected: list, what: str) -> np.ndarray:
    """Numeric rows, shape (rows, len(expected)), under the header `expected`."""
    header, rows = read_csv(path, what)
    if header != expected:
        raise ParseError(f"{path}: {what} columns {header} do not match {expected}")
    values = []
    for line_number, cells in rows:
        try:
            values.append([float(cell) for cell in cells])
        except ValueError:
            raise ParseError(f"{path}:{line_number}: non-numeric value") from None
    table = np.array(values).reshape(-1, len(expected))
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}:{rows[int(np.argmin(finite))][0]}: non-finite value")
    return table


def _read_series_csv(path, model) -> TimeSeries:
    data = _read_table(path, ["t", *model.state_names], "data")
    if len(data) < 2:
        raise ParseError(f"{path}: need at least 2 data rows")
    try:
        return TimeSeries(data[:, 0], data[:, 1:])
    except (ValueError, ShapeMismatch) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_truth_csv(path, model) -> np.ndarray:
    data = _read_table(path, list(model.parameter_names), "truth")
    if len(data) != 1:
        raise ParseError(f"{path}: need one row of truth values, got {len(data)}")
    return data[0]


def _windowed_fit(model, series: TimeSeries, width: int, **options):
    """estimate_time_varying that raises when no day is estimated.

    RankDeficient if every window was skipped as rank deficient, else TooFewPoints.
    """
    results = estimate_time_varying(model, series, width, **options)
    if results.skipped and not results:
        raise RankDeficient(
            f"every window was rank deficient: {len(results.skipped)} days skipped"
        )
    if not results:
        raise TooFewPoints(f"{len(series)} days of data give no full {width}-day window")
    return results


def cmd_simulate(args) -> tuple:
    entries = _load_config(args.config, "simulate")
    model = _model_from_config(entries)
    sim_config = _sim_config_from(entries, model, _schedule_from_config(entries, model))
    series = simulate(model, sim_config)
    epsilon = _get(entries, "noise.epsilon")
    # NoiseSpec rejects a negative epsilon; epsilon 0 leaves the states as they are
    series = add_noise(series, NoiseSpec(epsilon, _resolve_seed(args, entries, "noise.seed")))
    outputs = {"trajectory.csv": (["t", *model.state_names], _series_rows(series))}
    notes = [f"rows={len(series)}"]
    if model.population is not None:
        totals = series.states.sum(axis=1)
        drift = float(np.max(np.abs(totals - totals[0])))
        print(f"population conservation: max drift {drift:.3e} over {len(series)} rows")
        notes.append(f"conservation_drift={drift!r}")
    return outputs, notes


def cmd_estimate(args) -> tuple:
    entries = _load_config(args.config, "estimate")
    model = _model_from_config(entries)
    series = _read_series_csv(args.data, model)
    truth = _read_truth_csv(args.truth, model) if args.truth else None
    mode = _get(entries, "estimate.mode")
    ridge = _get(entries, "estimate.ridge")
    normalize = _get(entries, "estimate.normalize")
    partition = _partition_from_config(entries, model)
    header = [*model.parameter_names, "residual_norm", "condition"]
    summary = {"model": model.name, "mode": mode}

    if mode == "constant":
        if "estimate.start" in entries or "estimate.stop" in entries:
            start = _get(entries, "estimate.start")
            stop = _get(entries, "estimate.stop")
            if stop < start:
                raise ConfigError(
                    f"estimate.stop={stop} is before estimate.start={start}"
                )
            window = EstimationWindow.span(start, stop)
        else:
            window = None
        estimate = estimate_constant(
            model,
            series,
            indices=window,
            partition=partition,
            ridge_lambda=ridge,
            derivative=_get(entries, "estimate.derivative"),
            normalize=normalize,
        )
        row = np.hstack([estimate.values, estimate.residual_norm, estimate.condition_estimate])
        outputs = {"estimates.csv": (header, [row.tolist()])}
        summary["parameters"] = dict(zip(model.parameter_names, estimate.values))
        summary["residual_norm"] = estimate.residual_norm
        summary["condition"] = estimate.condition_estimate
        if truth is not None:
            # NaN marks a zero truth; _write_json writes it as null
            errors = relative_error_metrics(truth, estimate.values).absolute_mean
            summary["relative_errors"] = dict(zip(model.parameter_names, errors))
            valid = errors[~np.isnan(errors)]
            summary["max_relative_error"] = valid.max() if valid.size else None
        notes = ["mode=constant"]
    elif mode == "varying":
        width = _get(entries, "estimate.window")
        results = _windowed_fit(
            model, series, width, partition=partition, ridge_lambda=ridge, normalize=normalize
        )
        rows = np.column_stack(
            [results.times, results.values, results.residual_norms, results.conditions]
        )
        outputs = {"estimates.csv": (["t", *header], rows.tolist())}
        summary["window"] = width
        summary["estimates"] = len(results)
        summary["skipped_days"] = series.times[list(results.skipped)].tolist()
        summary["widened"] = results.widened
        if truth is not None:
            errors = relative_error_metrics(
                np.broadcast_to(truth, results.values.shape), results.values
            ).absolute_mean
            summary["mean_relative_errors"] = dict(zip(model.parameter_names, errors))
        notes = [f"mode=varying estimates={len(results)}"]
    else:
        raise ConfigError(f"unknown estimate.mode {mode!r}")

    outputs["summary.json"] = summary
    return outputs, notes


def cmd_sweep(args) -> tuple:
    entries = _load_config(args.config, "sweep")
    model = _model_from_config(entries)
    # simulate_draws replaces the schedule with each draw's parameters
    schedule = ConstantSchedule(np.zeros(model.n_params))
    sim_config = _sim_config_from(entries, model, schedule)
    flat = _get(entries, "sweep.domain")
    if len(flat) % 2 != 0:
        raise ConfigError("sweep.domain needs lo,hi pairs")
    domain = tuple(
        (flat[2 * k], flat[2 * k + 1]) for k in range(len(flat) // 2)
    )
    partition = _partition_from_config(entries, model)
    try:
        spec = SweepSpec(
            domain=domain,
            sample_count=_get(entries, "sweep.samples"),
            fixed=partition,
            seed=_resolve_seed(args, entries, "sweep.seed"),
        )
    except (ValueError, ShapeMismatch) as exc:
        raise ConfigError(str(exc)) from None
    normalized = _get(entries, "sweep.normalized")
    result = run_sweep(
        model,
        spec,
        sim_config,
        derivative=_get(entries, "sweep.derivative"),
        with_normalized=normalized,
    )
    failed = dict(result.failures)
    header = ["index", "max_rel_error", "mean_rel_error"]
    errors = [result.max_errors, result.mean_errors]
    if normalized:
        header += ["max_rel_error_normalizing", "mean_rel_error_normalizing"]
        errors += [result.max_errors_normalized, result.mean_errors_normalized]
    header.append("status")
    draws = range(spec.sample_count)
    status = ["failed" if i in failed else "ok" for i in draws]
    columns = [draws, *(column.tolist() for column in errors), status]
    name_map = {
        "max": "max",
        "mean": "mean",
        "max_normalized": "max_normalizing",
        "mean_normalized": "mean_normalizing",
    }
    fractions = {
        name_map[stat]: {repr(thr): frac for thr, frac in table.items()}
        for stat, table in result.threshold_table().items()
    }
    outputs = {
        "draws.csv": (header, zip(*columns)),
        "fractions.json": {
            "samples": spec.sample_count,
            "failures": [[index, reason] for index, reason in result.failures],
            "failure_reasons": result.failure_counts,
            "fraction_below": fractions,
        },
    }
    return outputs, [f"samples={spec.sample_count}", f"failures={len(result.failures)}"]


def cmd_covid(args) -> tuple:
    entries = _load_config(args.config, "covid")
    # the model first, so a bad population is a config error, not a data one
    model = _model_from_config(entries, "sir")
    gamma = _get(entries, "covid.gamma")
    width = _get(entries, "covid.window")
    ridge = _get(entries, "covid.ridge")
    raw = load_who_csv(args.data)
    series = build_sir_states(raw, model.population, FixedRates(gamma1=gamma))
    partition = ParameterPartition.from_known(
        model.n_params, {model.parameter_index("gamma"): gamma}
    )
    results = _windowed_fit(model, series, width, partition=partition, ridge_lambda=ridge)
    beta = np.column_stack(
        [
            results.times,
            results.values[:, model.parameter_index("beta")],
            results.residual_norms,
            results.conditions,
        ]
    )
    first_day = float(results.times[0])
    schedule = PiecewiseSchedule(results.times, results.values)
    start_index = int(round(first_day))
    resim = simulate(
        model,
        SimulationConfig(
            t0=first_day,
            t_end=float(series.times[-1]),
            step=1.0,
            initial_state=series.states[start_index],
            schedule=schedule,
        ),
    )
    infected = model.state_names.index("I")
    data_infected = series.states[start_index:, infected]
    resim_infected = resim.states[:, infected]
    with np.errstate(divide="ignore", invalid="ignore"):
        deviation = np.where(
            data_infected > 0,
            np.abs(resim_infected - data_infected) / data_infected,
            np.nan,
        )
    resim_rows = np.column_stack([resim.times, data_infected, resim_infected, deviation])
    outputs = {
        "states.csv": (["t", *model.state_names], _series_rows(series)),
        "beta.csv": (["t", "beta", "residual_norm", "condition"], beta.tolist()),
        "resim.csv": (
            ["t", "infected_data", "infected_resim", "rel_deviation"],
            resim_rows.tolist(),
        ),
    }
    notes = [
        f"estimates={len(results)}",
        f"skipped_days={series.times[list(results.skipped)].tolist()!r}",
        f"widened={results.widened}",
        f"resim_rows={len(resim)}",
    ]
    if np.any(np.isfinite(deviation)):
        notes.append(f"resim_max_rel={float(np.nanmax(deviation))!r}")
        notes.append(f"resim_mean_rel={float(np.nanmean(deviation))!r}")
    return outputs, notes


def cmd_reynolds(args) -> tuple:
    entries = _load_config(args.config, "reynolds") if args.config else {}
    if args.manifest is not None:
        target = _get(entries, "reynolds.target")
        if target <= 0:
            raise ConfigError(f"reynolds.target={target!r} must be positive")
        stack = load_snapshot_stack(args.manifest)
        source = "snapshots"
    else:
        nu = args.manufactured
        if not 0.0 < nu < math.inf:
            raise ConfigError("--manufactured viscosity must be finite and positive")
        stack = manufactured_diffusion_stack(
            nu,
            _get(entries, "reynolds.nx"),
            _get(entries, "reynolds.ny"),
            _get(entries, "reynolds.snapshots"),
            _get(entries, "reynolds.dt"),
        )
        target = 1.0 / nu
        source = "manufactured"
    repeats = _get(entries, "reynolds.repeats")
    if repeats < 1:
        raise ConfigError("reynolds.repeats must be at least 1")
    counts = _get(entries, "reynolds.counts")
    ridge = _get(entries, "reynolds.ridge")
    seed = _resolve_seed(args, entries, "reynolds.seed")
    region = _get(entries, "reynolds.region")
    if region is None:
        if stack.cylinder_center is not None and stack.diameter is not None:
            region = default_wake_region(stack)
        else:
            region = (0.0, (stack.nx - 1) * stack.dx, 0.0, (stack.ny - 1) * stack.dy)
    elif len(region) != 4:
        raise ConfigError("reynolds.region needs x_lo,x_hi,y_lo,y_hi")
    rows, full_field = [], {}
    fits = reynolds_convergence(stack, region, counts, repeats, ridge, seed)
    for method, (estimates, inverse) in fits.items():
        for count, est in zip(counts, estimates):
            if est is None:
                rows.append([method, count, np.nan, np.nan, np.nan, np.nan, "nonphysical"])
            else:
                spread = float(np.std(est.per_seed))
                error = abs(est.re - target) / target
                rows.append([method, count, est.re, spread, est.inverse_re, error, "ok"])
        # a fit that is not positive has no Reynolds number: NaN, written as null
        re = 1.0 / inverse if inverse > 0 else math.nan
        error = abs(re - target) / target
        full_field[method] = {"inverse_re": inverse, "re": re, "relative_error": error}
    header = [
        "method", "sensors", "mean_re", "re_spread", "mean_inverse_re", "rel_error", "status"
    ]
    outputs = {
        "convergence.csv": (header, rows),
        "summary.json": {
            "source": source,
            "target_re": target,
            "full_field": full_field,
            "curl_rms": stack.curl_rms,
        },
    }
    return outputs, [f"source={source}", f"counts={','.join(str(c) for c in counts)}"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Closed-form parameter estimation for parameter-linear dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, seeded: bool, config_required: bool = True):
        p.add_argument(
            "--config", required=config_required, help="key=value run configuration"
        )
        p.add_argument("--out", default=".", help="output directory")
        # only the commands that draw random numbers take a seed
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("simulate", help="integrate a configured model")
    common(p, seeded=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="fit parameters to a trajectory CSV")
    common(p, seeded=False)
    p.add_argument("--data", required=True, help="trajectory CSV (t plus state columns)")
    p.add_argument("--truth", default=None, help="one-row CSV of true parameters")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="randomized recovery sweep over a parameter box")
    common(p, seeded=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("covid", help="case counts to compartments, beta(t), re-simulation")
    common(p, seeded=False)
    p.add_argument("--data", required=True, help="daily case CSV")
    p.set_defaults(func=cmd_covid)

    p = sub.add_parser("reynolds", help="Reynolds identification from snapshots")
    common(p, seeded=True, config_required=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest", default=None, help="snapshot manifest path")
    source.add_argument(
        "--manufactured",
        type=float,
        default=None,
        metavar="NU",
        help="use the analytic decaying field with viscosity NU",
    )
    p.set_defaults(func=cmd_reynolds)
    return parser


def _write_outputs(directory, outputs: dict) -> None:
    """Create `directory` and write each file: a .csv from (header, rows), else JSON."""
    os.makedirs(directory, exist_ok=True)
    for name, content in outputs.items():
        path = os.path.join(directory, name)
        if name.endswith(".csv"):
            _write_csv(path, *content)
        else:
            _write_json(path, content)


def _write_run_log(directory, command: str, stamp: str, elapsed: float, notes) -> None:
    """Append one block per command, so commands sharing --out keep their logs."""
    lines = [
        f"started={stamp}",
        f"command={command}",
        f"elapsed_seconds={elapsed:.3f}",
        *notes,
    ]
    with open(os.path.join(directory, "run.log"), "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _fail(code: int, exc: BaseException) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    started = time.perf_counter()
    try:
        outputs, notes = args.func(args)
        _write_outputs(args.out, outputs)
        _write_run_log(args.out, args.command, stamp, time.perf_counter() - started, notes)
    except EstimationError as exc:
        return _fail(exc.exit_code, exc)
    except OSError as exc:
        return _fail(3, exc)
    except ValueError as exc:
        return _fail(2, exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
