"""Flat config parsing and end-to-end CLI runs with exit codes."""

import ast
import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from artifact import (
    ConfigError,
    SimulationConfig,
    SinusoidalBetaSchedule,
    SnapshotStack,
    DimensionMismatch,
    MissingColumn,
    MissingField,
    NegativeCompartment,
    NonMonotonicDates,
    ParseError,
    RankDeficient,
    ReynoldsEstimate,
    TooFewPoints,
    default_wake_region,
    manufactured_diffusion_stack,
    simulate,
    sir,
    write_snapshot_stack,
)
from artifact import cli
from artifact.cli import main
from conftest import synthetic_daily_counts

from artifact.config import (
    get_float,
    get_floats,
    get_int,
    get_ints,
    get_str,
    load_config,
    read_csv,
)


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_config_parses_flat_keys(tmp_path):
    path = write(
        tmp_path / "run.conf",
        "# leading comment\n"
        "\n"
        "model.name = sir  # trailing comment\n"
        "sim.x0=1,2,3\n",
    )
    entries = load_config(path)
    assert entries == {"model.name": "sir", "sim.x0": "1,2,3"}


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match=":1:"):
        load_config(write(tmp_path / "a.conf", "novalue\n"))
    with pytest.raises(ConfigError, match="empty key"):
        load_config(write(tmp_path / "b.conf", "=5\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write(tmp_path / "c.conf", "x=1\nx=2\n"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.conf")


def test_getters():
    entries = {"a": "3", "pi": "3.25", "xs": "1,2,3", "name": "sir", "bad": "zap"}
    assert get_int(entries, "a") == 3
    assert get_float(entries, "pi") == 3.25
    assert get_floats(entries, "xs") == [1.0, 2.0, 3.0]
    assert get_ints(entries, "xs") == [1, 2, 3]
    assert get_str(entries, "name") == "sir"
    assert get_int(entries, "absent", 7) == 7
    assert get_floats(entries, "absent", None) is None
    with pytest.raises(ConfigError, match="missing required"):
        get_float(entries, "absent")
    with pytest.raises(ConfigError):
        get_int(entries, "bad")
    with pytest.raises(ConfigError):
        get_floats(entries, "bad")


SIR_CONF = (
    "model.name=sir\n"
    "model.population=1.0\n"
    "sim.t_end=79\n"
    "sim.step=1\n"
    "sim.x0=0.9999,0.0001,0.0\n"
    "schedule.omega=0.5,0.3333333333333333\n"
    "estimate.mode=constant\n"
    "estimate.derivative=full\n"
    "estimate.start=0\n"
    "estimate.stop=49\n"
)


def test_simulate_writes_deterministic_trajectory(tmp_path):
    conf = write(tmp_path / "run.conf", SIR_CONF)
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    body = (out / "trajectory.csv").read_bytes()
    assert len(body.splitlines()) == 81
    assert body.splitlines()[0] == b"t,S,I,R"
    assert (out / "run.log").exists()
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").read_bytes() == body


def test_estimate_recovers_known_rates(tmp_path):
    conf = write(tmp_path / "run.conf", SIR_CONF)
    truth = write(tmp_path / "truth.csv", "beta,gamma\n0.5,0.3333333333333333\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    assert (
        main(
            [
                "estimate",
                "--config",
                conf,
                "--data",
                str(out / "trajectory.csv"),
                "--truth",
                truth,
                "--out",
                str(out),
            ]
        )
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "constant"
    assert summary["relative_errors"]["beta"] < 1e-3
    assert summary["relative_errors"]["gamma"] < 2e-3
    assert summary["max_relative_error"] < 2e-3
    with open(out / "estimates.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["beta", "gamma", "residual_norm", "condition"]
    assert abs(float(rows[1][0]) - 0.5) < 1e-3


def test_run_log_keeps_one_block_per_command(tmp_path):
    conf = write(tmp_path / "run.conf", SIR_CONF)
    shared, apart = tmp_path / "shared", tmp_path / "apart"
    for simulated, fitted in ((shared, shared), (apart, tmp_path / "fit")):
        assert main(["simulate", "--config", conf, "--out", str(simulated)]) == 0
        data = str(simulated / "trajectory.csv")
        assert main(
            ["estimate", "--config", conf, "--data", data, "--out", str(fitted)]
        ) == 0
    log = (shared / "run.log").read_text().splitlines()
    assert [line for line in log if line.startswith("command=")] == [
        "command=simulate",
        "command=estimate",
    ]
    assert sum(line.startswith("started=") for line in log) == 2
    # the log is the only file the two commands share
    for name, other in (
        ("trajectory.csv", apart),
        ("estimates.csv", tmp_path / "fit"),
        ("summary.json", tmp_path / "fit"),
    ):
        assert (shared / name).read_bytes() == (other / name).read_bytes()


def test_covid_pipeline(tmp_path, who_csv):
    conf = write(
        tmp_path / "covid.conf",
        "model.population=5700000\ncovid.gamma=0.072\ncovid.window=14\n",
    )
    out = tmp_path / "out"
    assert main(["covid", "--config", conf, "--data", str(who_csv), "--out", str(out)]) == 0
    assert (out / "states.csv").exists()
    assert (out / "resim.csv").exists()
    with open(out / "beta.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "beta", "residual_norm", "condition"]
    assert len(rows) == 88
    assert float(rows[1][0]) == 13.0
    assert float(rows[1][1]) == pytest.approx(0.07210629829730619, rel=1e-12)
    # the same day-13 beta from the written states with plain numpy: SIR rows
    # over indices 1..13, each the Simpson-weighted mean of A at i-1, i, i+1
    # against the central difference, gamma=0.072 moved to the right-hand side
    data = np.loadtxt(out / "states.csv", delimiter=",", skiprows=1)
    t, x = data[:, 0], data[:, 1:]
    population = 5700000.0
    matrices, rhs = [], []
    for i in range(1, 14):
        h1, h2 = t[i] - t[i - 1], t[i + 1] - t[i]
        weights = (2 - h2 / h1, (h1 + h2) ** 2 / (h1 * h2), 2 - h1 / h2)
        a = sum(
            w * np.array(
                [[-s * c / population, 0.0], [s * c / population, -c], [0.0, c]]
            )
            for w, (s, c, _) in zip(weights, x[i - 1 : i + 2])
        ) / 6
        matrices.append(a[:, :1])
        rhs.append((x[i + 1] - x[i - 1]) / (t[i + 1] - t[i - 1]) - a[:, 1] * 0.072)
    beta = np.linalg.lstsq(np.vstack(matrices), np.concatenate(rhs), rcond=None)[0][0]
    assert float(rows[1][1]) == pytest.approx(beta, rel=1e-12)


def test_sweep_small_run(tmp_path):
    conf = write(
        tmp_path / "sweep.conf",
        "model.name=lotka_volterra\n"
        "sim.t_end=10\n"
        "sim.points=200\n"
        "sim.x0=1,1\n"
        "sweep.domain=0.1,0.9,0.5,1.5,0.7,1.5,0.3,1.2\n"
        "sweep.samples=4\n"
        "sweep.seed=8\n",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", conf, "--out", str(out)]) == 0
    with open(out / "draws.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["index", "max_rel_error", "mean_rel_error", "status"]
    assert len(rows) == 5
    assert all(row[3] == "ok" for row in rows[1:])
    fractions = json.loads((out / "fractions.json").read_text())
    assert fractions["samples"] == 4
    assert fractions["failures"] == []
    assert fractions["failure_reasons"] == {}
    assert fractions["fraction_below"]["max"]["0.05"] == 1.0

    # large alpha overflows four of eight draws
    failing = write(
        tmp_path / "failing.conf",
        "model.name=lotka_volterra\n"
        "sim.t_end=10\n"
        "sim.step=0.01\n"
        "sim.x0=1,1\n"
        "known.beta=1e-3\n"
        "known.gamma=1.1\n"
        "known.delta=1e-3\n"
        "sweep.domain=1,150\n"
        "sweep.samples=8\n"
        "sweep.seed=3\n",
    )
    out = tmp_path / "failing"
    assert main(["sweep", "--config", failing, "--out", str(out)]) == 0
    fractions = json.loads((out / "fractions.json").read_text())
    assert [index for index, _ in fractions["failures"]] == [1, 4, 6, 7]
    assert fractions["failure_reasons"] == {"NonFiniteState": 4}


def test_reynolds_manufactured(tmp_path):
    conf = write(
        tmp_path / "re.conf",
        "reynolds.nx=33\n"
        "reynolds.ny=33\n"
        "reynolds.snapshots=11\n"
        "reynolds.dt=0.1\n"
        "reynolds.counts=4,8\n"
        "reynolds.repeats=2\n",
    )
    out = tmp_path / "out"
    assert (
        main(["reynolds", "--config", conf, "--manufactured", "0.01", "--out", str(out)])
        == 0
    )
    with open(out / "convergence.csv") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 5
    assert [row[0] for row in rows[1:]] == ["plain", "plain", "ridge", "ridge"]
    assert all(row[6] == "ok" for row in rows[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["source"] == "manufactured"
    assert summary["target_re"] == 100.0
    assert summary["full_field"]["plain"]["relative_error"] < 0.01


def test_exit_code_for_missing_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.conf"), "--out", str(tmp_path)]) == 2


def test_exit_code_for_missing_required_key(tmp_path):
    conf = write(tmp_path / "run.conf", "model.name=sir\nmodel.population=1.0\n")
    assert main(["simulate", "--config", conf, "--out", str(tmp_path)]) == 2


def test_exit_code_for_missing_data_file(tmp_path):
    conf = write(tmp_path / "run.conf", SIR_CONF)
    code = main(
        [
            "estimate",
            "--config",
            conf,
            "--data",
            str(tmp_path / "nope.csv"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 3


def test_exit_code_for_malformed_data(tmp_path):
    conf = write(tmp_path / "run.conf", SIR_CONF)
    data = write(tmp_path / "bad.csv", "wrong,header,entirely,here\n1,2,3,4\n")
    code = main(
        ["estimate", "--config", conf, "--data", data, "--out", str(tmp_path)]
    )
    assert code == 3
    # a truth file holds exactly one row of parameter values
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    truth = write(tmp_path / "truth.csv", "beta,gamma\n0.5,0.3\n0.5,0.3\n")
    code = main(
        [
            "estimate",
            "--config",
            conf,
            "--data",
            str(out / "trajectory.csv"),
            "--truth",
            truth,
            "--out",
            str(out),
        ]
    )
    assert code == 3


@pytest.mark.parametrize(
    "error, code",
    [
        (ConfigError, 2),
        (ParseError, 3),
        (MissingColumn, 3),
        (NegativeCompartment, 3),
        (NonMonotonicDates, 3),
        (DimensionMismatch, 3),
        (MissingField, 3),
        (RankDeficient, 4),
        (TooFewPoints, 4),
    ],
)
def test_exit_code_table(tmp_path, monkeypatch, error, code):
    def fail(args):
        raise error("raised by the command")

    monkeypatch.setattr(cli, "cmd_simulate", fail)
    assert main(["simulate", "--config", "unused.conf", "--out", str(tmp_path)]) == code
    assert error.exit_code == code


def test_exit_code_for_invalid_numbers(tmp_path):
    # a negative ridge lambda, or a NaN or infinite viscosity, is a usage error
    conf = write(tmp_path / "run.conf", SIR_CONF + "estimate.ridge=-1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    data = str(out / "trajectory.csv")
    assert main(["estimate", "--config", conf, "--data", data, "--out", str(out)]) == 2
    re_conf = write(
        tmp_path / "re.conf",
        "reynolds.nx=9\nreynolds.ny=9\nreynolds.snapshots=5\n"
        "reynolds.counts=4\nreynolds.repeats=1\nreynolds.ridge=-1\n",
    )
    # a bad viscosity fails first; at 0.01 the config's ridge lambda fails
    for nu in ("nan", "inf", "-1", "0.01"):
        code = main(
            ["reynolds", "--config", re_conf, "--manufactured", nu, "--out", str(out)]
        )
        assert code == 2


def test_exit_code_for_unknown_command():
    assert main(["frobnicate"]) == 2


def test_exit_code_for_estimation_failure(tmp_path):
    conf = write(
        tmp_path / "covid.conf",
        "model.population=5700000\ncovid.gamma=0.072\ncovid.window=14\n",
    )
    data = write(
        tmp_path / "short.csv",
        "date,new_cases\n2020-03-01,5\n2020-03-02,6\n2020-03-03,7\n",
    )
    assert main(["covid", "--config", conf, "--data", data, "--out", str(tmp_path)]) == 4


def test_exit_code_for_conflicting_reynolds_inputs(tmp_path):
    code = main(
        [
            "reynolds",
            "--manifest",
            str(tmp_path / "m.txt"),
            "--manufactured",
            "0.01",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert main(["reynolds", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("dt", "nan"),
        ("dt", "0"),
        ("dt", "-0.1"),
        ("dx", "nan"),
        ("dy", "-1"),
        ("n_snapshots", "2"),
        ("nx", "0"),
        ("ny", "-3"),
        ("nx", "2"),
        ("ny", "2"),
    ],
)
def test_exit_code_for_bad_manifest_values(tmp_path, capsys, key, value):
    # a manifest value no stack can have is malformed data (3), found before
    # the (intact) field files are read
    stack = manufactured_diffusion_stack(0.01, 5, 5, 3, 0.1)
    manifest = write_snapshot_stack(stack, tmp_path / "fields")
    lines = open(manifest).read().splitlines()
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line for line in lines]
    open(manifest, "w").write("\n".join(lines) + "\n")
    assert main(["reynolds", "--manifest", manifest, "--out", str(tmp_path)]) == 3
    assert f"snapshot manifest: {key}={value}" in capsys.readouterr().err


def test_simulate_with_noise_is_seeded(tmp_path):
    conf = write(tmp_path / "run.conf", SIR_CONF + "noise.epsilon=0.05\nnoise.seed=4\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", conf, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", conf, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    out_c = tmp_path / "c"
    assert main(["simulate", "--config", conf, "--out", str(out_c), "--seed", "5"]) == 0
    assert (out_a / "trajectory.csv").read_bytes() != (out_c / "trajectory.csv").read_bytes()


def test_simulate_checks_every_configured_epsilon(tmp_path, capsys):
    plain = tmp_path / "plain"
    assert main(["simulate", "--config", write(tmp_path / "a.conf", SIR_CONF),
                 "--out", str(plain)]) == 0
    zero = tmp_path / "zero"
    conf = write(tmp_path / "b.conf", SIR_CONF + "noise.epsilon=0\n")
    assert main(["simulate", "--config", conf, "--out", str(zero)]) == 0
    assert (zero / "trajectory.csv").read_bytes() == (plain / "trajectory.csv").read_bytes()
    capsys.readouterr()
    conf = write(tmp_path / "c.conf", SIR_CONF + "noise.epsilon=-0.1\n")
    assert main(["simulate", "--config", conf, "--out", str(tmp_path / "out")]) == 2
    assert "epsilon must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_estimate_varying_mode(tmp_path, who_csv):
    # windowed fit through the generic estimate entry point
    conf = write(
        tmp_path / "cov.conf",
        "model.population=5700000\ncovid.gamma=0.072\ncovid.window=14\n",
    )
    out = tmp_path / "cov"
    assert main(["covid", "--config", conf, "--data", str(who_csv), "--out", str(out)]) == 0
    est_conf = write(
        tmp_path / "est.conf",
        "model.name=sir\n"
        "model.population=5700000\n"
        "estimate.mode=varying\n"
        "estimate.window=14\n"
        "known.gamma=0.072\n",
    )
    out2 = tmp_path / "est"
    code = main(
        [
            "estimate",
            "--config",
            est_conf,
            "--data",
            str(out / "states.csv"),
            "--out",
            str(out2),
        ]
    )
    assert code == 0
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["mode"] == "varying"
    assert summary["estimates"] == 87
    with open(out2 / "estimates.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "beta", "gamma", "residual_norm", "condition"]
    # known gamma passes through every windowed row
    assert all(float(row[2]) == 0.072 for row in rows[1:])


SINUSOIDAL_CONF = (
    "model.name=sir\n"
    "model.population=1.0\n"
    "sim.t_end=70\n"
    "sim.step=1\n"
    "sim.x0=0.9999,0.0001,0.0\n"
    "schedule.type=sinusoidal\n"
    "schedule.base=0.4,0.3333333333333333\n"
    "schedule.mean=0.4\n"
    "schedule.amplitude=0.05\n"
    "schedule.period=70\n"
)


def test_simulate_sinusoidal_schedule(tmp_path):
    for parameter, index in (("beta", 0), ("gamma", 1)):
        conf = write(
            tmp_path / "sin.conf", SINUSOIDAL_CONF + f"schedule.parameter={parameter}\n"
        )
        out = tmp_path / parameter
        assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        schedule = SinusoidalBetaSchedule(
            [0.4, 0.3333333333333333], 0.4, 0.05, 70.0, index=index
        )
        config = SimulationConfig(0.0, 70.0, 1.0, [0.9999, 0.0001, 0.0], schedule)
        expected = simulate(sir(1.0), config)
        np.testing.assert_array_equal(data[:, 0], expected.times)
        np.testing.assert_array_equal(data[:, 1:], expected.states)
    # the modulated parameter defaults to the model's first one, beta
    conf = write(tmp_path / "default.conf", SINUSOIDAL_CONF)
    assert main(["simulate", "--config", conf, "--out", str(tmp_path / "d")]) == 0
    default = (tmp_path / "d" / "trajectory.csv").read_bytes()
    assert default == (tmp_path / "beta" / "trajectory.csv").read_bytes()
    conf = write(tmp_path / "bad.conf", SINUSOIDAL_CONF + "schedule.parameter=zeta\n")
    assert main(["simulate", "--config", conf, "--out", str(tmp_path / "e")]) == 2
    conf = write(tmp_path / "kind.conf", SIR_CONF + "schedule.type=weekly\n")
    assert main(["simulate", "--config", conf, "--out", str(tmp_path / "f")]) == 2


@pytest.mark.parametrize("key, value", [("t_end", "inf"), ("t_end", "nan"), ("step", "inf")])
def test_exit_code_for_non_finite_times(tmp_path, capsys, key, value):
    lines = [
        f"sim.{key}={value}" if line.startswith(f"sim.{key}=") else line
        for line in SIR_CONF.splitlines()
    ]
    # an infinite horizon would overflow the length of the time grid
    sweep = lines + ["sweep.domain=0,0.5,0,0.3", "sweep.samples=2"]
    for command, body in (("simulate", lines), ("sweep", sweep)):
        conf = write(tmp_path / f"{command}.conf", "\n".join(body) + "\n")
        assert main([command, "--config", conf, "--out", str(tmp_path / "out")]) == 2
        assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_csv_values_are_parse_errors(tmp_path, capsys, value):
    conf = write(tmp_path / "run.conf", SIR_CONF)
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    data = out / "trajectory.csv"
    estimate = ["estimate", "--config", conf, "--out", str(tmp_path / "fit")]
    truth = write(tmp_path / "truth.csv", f"beta,gamma\n{value},0.3333333333333333\n")
    assert main(estimate + ["--data", str(data), "--truth", truth]) == 3
    assert f"{truth}:2: non-finite value" in capsys.readouterr().err
    # a blank line before the bad row still counts toward the line number
    lines = data.read_text().splitlines()
    t, _, *rest = lines[4].split(",")
    lines[4] = ",".join([t, value, *rest])
    bad = write(tmp_path / "bad.csv", "\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    assert main(estimate + ["--data", bad]) == 3
    assert f"{bad}:6: non-finite value" in capsys.readouterr().err


def test_estimate_varying_mode_with_truth(tmp_path):
    conf = write(
        tmp_path / "run.conf",
        SIR_CONF.replace("estimate.mode=constant", "estimate.mode=varying")
        + "estimate.window=14\n",
    )
    truth = write(tmp_path / "truth.csv", "beta,gamma\n0.5,0.3333333333333333\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    data = str(out / "trajectory.csv")
    assert main(
        ["estimate", "--config", conf, "--data", data, "--truth", truth, "--out", str(out)]
    ) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "varying"
    # days 13..79: the first day with a window is its width - 1
    assert summary["estimates"] == 67
    errors = summary["mean_relative_errors"]
    assert sorted(errors) == ["beta", "gamma"]
    # the mean over the day rows of |truth - estimate| / truth
    rows = np.loadtxt(out / "estimates.csv", delimiter=",", skiprows=1)
    expected = np.abs(rows[:, 1:3] - [0.5, 1.0 / 3.0]) / [0.5, 1.0 / 3.0]
    assert errors["beta"] == pytest.approx(expected[:, 0].mean(), rel=1e-12)
    assert errors["gamma"] == pytest.approx(expected[:, 1].mean(), rel=1e-12)
    assert max(errors.values()) < 1e-2


def test_sweep_with_normalized_solves(tmp_path):
    sweep = (
        "model.name=lotka_volterra\n"
        "sim.t_end=10\n"
        "sim.points=200\n"
        "sim.x0=1,1\n"
        "sweep.domain=0.1,0.9,0.5,1.5,0.7,1.5,0.3,1.2\n"
        "sweep.samples=4\n"
        "sweep.seed=8\n"
    )
    plain, both = tmp_path / "plain", tmp_path / "both"
    conf = write(tmp_path / "plain.conf", sweep)
    assert main(["sweep", "--config", conf, "--out", str(plain)]) == 0
    conf = write(tmp_path / "both.conf", sweep + "sweep.normalized=1\n")
    assert main(["sweep", "--config", conf, "--out", str(both)]) == 0
    with open(plain / "draws.csv") as handle:
        plain_rows = list(csv.reader(handle))
    with open(both / "draws.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "index",
        "max_rel_error",
        "mean_rel_error",
        "max_rel_error_normalizing",
        "mean_rel_error_normalizing",
        "status",
    ]
    # the plain columns do not depend on whether the normalized pair is solved
    assert [row[:3] + row[5:] for row in rows[1:]] == plain_rows[1:]
    assert all(float(row[3]) < 0.05 and float(row[4]) <= float(row[3]) for row in rows[1:])
    fractions = json.loads((both / "fractions.json").read_text())["fraction_below"]
    assert sorted(fractions) == ["max", "max_normalizing", "mean", "mean_normalizing"]
    assert fractions["max_normalizing"]["0.05"] == 1.0
    plain_fractions = json.loads((plain / "fractions.json").read_text())["fraction_below"]
    assert {key: fractions[key] for key in ("max", "mean")} == plain_fractions


def test_reynolds_manifest_with_region_reports_nonphysical_rows(tmp_path):
    # the decaying field played backwards grows, so every fit gives 1/Re < 0
    decaying = manufactured_diffusion_stack(0.01, 33, 33, 11, 0.1)
    growing = SnapshotStack(
        u=np.zeros_like(decaying.w),
        v=np.zeros_like(decaying.w),
        w=decaying.w[::-1].copy(),
        dx=decaying.dx,
        dy=decaying.dy,
        dt=decaying.dt,
    )
    manifest = write_snapshot_stack(growing, tmp_path / "fields")
    conf = write(
        tmp_path / "re.conf",
        "reynolds.counts=4,8\n"
        "reynolds.repeats=2\n"
        "reynolds.region=0.5,2.5,0.5,2.5\n",
    )
    out = tmp_path / "out"
    args = ["reynolds", "--config", conf, "--manifest", manifest, "--out", str(out)]
    assert main(args) == 0
    with open(out / "convergence.csv") as handle:
        rows = list(csv.reader(handle))
    assert [row[:2] for row in rows[1:]] == [
        ["plain", "4"], ["plain", "8"], ["ridge", "4"], ["ridge", "8"]
    ]
    assert all(row[6] == "nonphysical" for row in rows[1:])
    assert all(value == "nan" for row in rows[1:] for value in row[2:6])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["source"] == "snapshots"
    assert summary["full_field"]["plain"]["inverse_re"] < 0
    # the region is read: one too small for eight sensors fails the run
    small = write(
        tmp_path / "small.conf",
        "reynolds.counts=8\nreynolds.repeats=1\nreynolds.region=0.5,0.7,0.5,0.7\n",
    )
    small_args = ["reynolds", "--config", small, "--manifest", manifest]
    assert main(small_args + ["--out", str(tmp_path / "small")]) == 4


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_exit_code_for_non_finite_known_values(tmp_path, capsys, value):
    conf = write(tmp_path / "sir.conf", SIR_CONF)
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    data = str(out / "trajectory.csv")
    known = write(tmp_path / "known.conf", SIR_CONF + f"known.gamma={value}\n")
    assert main(["estimate", "--config", known, "--data", data, "--out", str(out)]) == 2
    assert "known.gamma must be finite" in capsys.readouterr().err
    # an S3I3R sweep with the vaccination rate held at the given value
    sweep = write(
        tmp_path / "sweep.conf",
        "model.name=s3i3r\n"
        "model.population=5701010\n"
        "sim.t_end=20\n"
        "sim.step=1\n"
        "sim.x0=5600000,100000,1000,10,0,0,0\n"
        f"known.tau={value}\n"
        "sweep.domain=0,0.5,0,0.3,0,0.3,0,0.3,0,0.03,0,0.3,0,0.5\n"
        "sweep.samples=3\n",
    )
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")]) == 2
    assert "known.tau must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("region", ["0,nan,0,3", "inf,3,0,3", "0,3,-inf,3"])
def test_exit_code_for_non_finite_reynolds_region(tmp_path, capsys, region):
    conf = write(
        tmp_path / "re.conf",
        "reynolds.nx=17\nreynolds.ny=17\nreynolds.snapshots=5\n"
        f"reynolds.counts=4\nreynolds.repeats=1\nreynolds.region={region}\n",
    )
    args = ["reynolds", "--config", conf, "--manufactured", "0.01"]
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    assert "reynolds.region must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("counts", ["4,0", "-3", "0"])
def test_exit_code_for_sensor_count_below_one(tmp_path, capsys, counts):
    conf = write(
        tmp_path / "re.conf",
        "reynolds.nx=17\nreynolds.ny=17\nreynolds.snapshots=5\n"
        f"reynolds.counts={counts}\nreynolds.repeats=1\n",
    )
    args = ["reynolds", "--config", conf, "--manufactured", "0.01"]
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    assert "sensor counts must be at least 1" in capsys.readouterr().err


COVID_DAILY = Path(__file__).resolve().parents[1] / "configs" / "covid_daily.csv"


def test_committed_covid_csv_is_the_synthetic_epidemic():
    lines = COVID_DAILY.read_text().splitlines()
    assert lines[0] == "date,new_cases"
    assert lines[1].startswith("2020-03-01,")
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == synthetic_daily_counts(130).tolist()


def test_getters_reject_non_finite_numbers():
    entries = {"x": "nan", "xs": "1,inf,2", "ok": "1e308"}
    with pytest.raises(ConfigError, match="^x=nan: x must be finite$"):
        get_float(entries, "x")
    with pytest.raises(ConfigError, match="^xs=1,inf,2: xs must be finite$"):
        get_floats(entries, "xs")
    assert get_float(entries, "ok") == 1e308
    # a default is returned as given
    assert get_float(entries, "absent", math.inf) == math.inf


SWEEP_CONF = (
    "model.name=sir\n"
    "model.population=1.0\n"
    "sim.t_end=20\n"
    "sim.step=1\n"
    "sim.x0=0.9999,0.0001,0.0\n"
    "sweep.domain=0,0.5,0,0.3\n"
    "sweep.samples=2\n"
)


@pytest.mark.parametrize(
    "command, body, key",
    [
        ("sweep", SWEEP_CONF.replace("0,0.5,0,0.3", "0,nan,0,0.3"), "sweep.domain"),
        ("sweep", SWEEP_CONF.replace("0,0.5,0,0.3", "0,inf,0,0.3"), "sweep.domain"),
        ("covid", "model.population=inf\ncovid.gamma=0.072\n", "model.population"),
        ("simulate", SIR_CONF.replace("0.9999,0.0001", "0.9999,nan"), "sim.x0"),
        ("simulate", SIR_CONF.replace("omega=0.5", "omega=nan"), "schedule.omega"),
        ("simulate", SINUSOIDAL_CONF.replace("mean=0.4", "mean=nan"), "schedule.mean"),
        ("simulate", SIR_CONF + "noise.epsilon=nan\n", "noise.epsilon"),
        ("simulate", SIR_CONF.replace("population=1.0", "population=inf"), "model.population"),
        ("sweep", SWEEP_CONF.replace("population=1.0", "population=inf"), "model.population"),
    ],
    ids=[
        "sweep-domain-nan",
        "sweep-domain-inf",
        "covid-population-inf",
        "simulate-x0-nan",
        "simulate-omega-nan",
        "simulate-mean-nan",
        "simulate-epsilon-nan",
        "simulate-population-inf",
        "sweep-population-inf",
    ],
)
def test_exit_code_for_non_finite_config_numbers(tmp_path, capsys, command, body, key):
    conf = write(tmp_path / "run.conf", body)
    args = [command, "--config", conf, "--out", str(tmp_path / "out")]
    if command == "covid":
        args += ["--data", str(COVID_DAILY)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{key} must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_ignores_schedule_keys(tmp_path):
    # simulate_draws replaces the schedule with each draw's parameters
    plain = write(tmp_path / "plain.conf", SWEEP_CONF)
    scheduled = write(
        tmp_path / "scheduled.conf",
        SWEEP_CONF + "schedule.type=sinusoidal\nschedule.omega=0.5\n",
    )
    for conf, out in ((plain, "a"), (scheduled, "b")):
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / out)]) == 0
    for name in ("draws.csv", "fractions.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("population", ["0", "-5700000"])
def test_exit_code_for_non_positive_covid_population(tmp_path, capsys, population):
    # the model is built before the case counts are read into compartments
    conf = write(tmp_path / "covid.conf", f"model.population={population}\n")
    args = ["covid", "--config", conf, "--data", str(COVID_DAILY)]
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "model.population" in err
    assert "must be finite and positive" in err


def test_exit_code_for_reversed_estimate_window(tmp_path, capsys):
    conf = write(tmp_path / "sir.conf", SIR_CONF)
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    data = str(out / "trajectory.csv")
    reversed_window = write(
        tmp_path / "reversed.conf",
        SIR_CONF.replace("estimate.start=0", "estimate.start=30").replace(
            "estimate.stop=49", "estimate.stop=20"
        ),
    )
    args = ["estimate", "--config", reversed_window, "--data", data]
    assert main(args + ["--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert "estimate.stop=20" in err
    assert "estimate.start=30" in err


@pytest.mark.parametrize("target", ["0", "-5"])
def test_exit_code_for_non_positive_reynolds_target(tmp_path, capsys, target):
    manifest = write_snapshot_stack(
        manufactured_diffusion_stack(0.01, 9, 9, 5, 0.1), tmp_path / "fields"
    )
    conf = write(tmp_path / "re.conf", f"reynolds.target={target}\nreynolds.counts=4\n")
    args = ["reynolds", "--config", conf, "--manifest", manifest]
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "reynolds.target" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_fits_without_unknown_parameters_are_typed_errors(tmp_path, capsys):
    known = "known.beta=0.5\nknown.gamma=0.3333333333333333\n"
    conf = write(tmp_path / "sir.conf", SIR_CONF)
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    varying = write(
        tmp_path / "varying.conf", SINUSOIDAL_CONF + known + "estimate.mode=varying\n"
    )
    args = ["estimate", "--config", varying, "--data", str(out / "trajectory.csv")]
    assert main(args + ["--out", str(tmp_path / "fit")]) == 4
    assert "system has no parameter columns" in capsys.readouterr().err
    sweep = write(
        tmp_path / "sweep.conf", SWEEP_CONF.replace("0,0.5,0,0.3", "") + known
    )
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err
    assert "at least one unknown parameter" in err
    assert "reshape" not in err


def test_covid_reports_windows_that_are_all_rank_deficient(tmp_path, capsys):
    # twelve days without a new case: every 3-day window is rank deficient
    days = [f"2020-03-{day:02d},0" for day in range(1, 13)]
    data = write(tmp_path / "zero.csv", "date,new_cases\n" + "\n".join(days) + "\n")
    conf = write(tmp_path / "covid.conf", "model.population=5700000\ncovid.window=3\n")
    args = ["covid", "--config", conf, "--out", str(tmp_path / "out")]
    with pytest.warns(UserWarning, match="rank-deficient"):
        assert main(args + ["--data", data]) == 4
    err = capsys.readouterr().err
    assert "every window was rank deficient: 10 days skipped" in err
    # a series too short for any window is still reported as such
    short = write(tmp_path / "short.csv", "date,new_cases\n2020-03-01,5\n")
    assert main(args + ["--data", short]) == 4
    assert "1 days of data give no full 3-day window" in capsys.readouterr().err


def test_read_csv_cells_rows_and_errors(tmp_path):
    table = write(tmp_path / "t.csv", " a , b\n\n1, 2\n , \n3,4\n")
    assert read_csv(table, "test") == (["a", "b"], [(3, ["1", "2"]), (5, ["3", "4"])])
    with pytest.raises(ParseError, match=r"r\.csv:3: 3 cells for 2 columns"):
        read_csv(write(tmp_path / "r.csv", "a,b\n1,2\n1,2,3\n"), "test")
    with pytest.raises(ParseError, match="empty test file"):
        read_csv(write(tmp_path / "e.csv", ""), "test")
    with pytest.raises(ParseError, match="cannot read test file"):
        read_csv(tmp_path / "missing.csv", "test")
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"a,b\n1,\xff\n")
    with pytest.raises(ParseError, match="latin.csv: test file is not UTF-8"):
        read_csv(latin, "test")


def test_exit_code_for_unreadable_case_counts(tmp_path, capsys):
    conf = write(tmp_path / "covid.conf", "model.population=5700000\n")
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"date,new_cases\n2020-03-01,5\xff\n")
    for data in (str(tmp_path / "missing.csv"), str(latin)):
        args = ["covid", "--config", conf, "--data", data]
        assert main(args + ["--out", str(tmp_path / "out")]) == 3
        assert "case-count file" in capsys.readouterr().err


def test_results_do_not_follow_numpy_print_options(tmp_path):
    def run(out):
        sir_conf = write(tmp_path / "sir.conf", SIR_CONF)
        varying = write(
            tmp_path / "varying.conf", SINUSOIDAL_CONF + "estimate.mode=varying\n"
        )
        sweep = write(tmp_path / "sweep.conf", SWEEP_CONF + "sweep.normalized=1\n")
        for name, conf in (("constant", sir_conf), ("varying", varying)):
            assert main(["simulate", "--config", conf, "--out", str(out / name)]) == 0
            data = str(out / name / "trajectory.csv")
            args = ["estimate", "--config", conf, "--data", data]
            assert main(args + ["--out", str(out / name)]) == 0
        assert main(["sweep", "--config", sweep, "--out", str(out / "sweep")]) == 0
        return {
            path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "run.log"
        }

    default = run(tmp_path / "default")
    options = np.get_printoptions()
    try:
        np.set_printoptions(legacy="1.13")
        legacy = run(tmp_path / "legacy")
    finally:
        np.set_printoptions(**options)
    assert len(default) == 8
    assert legacy == default


def files_under(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_failed_covid_writes_nothing(tmp_path, who_csv, capsys):
    conf = write(tmp_path / "covid.conf", "model.population=5700000\ncovid.gamma=0.072\n")
    short = write(tmp_path / "short.csv", "date,new_cases\n2020-03-01,5\n2020-03-02,7\n")
    fresh = tmp_path / "fresh"
    assert main(["covid", "--config", conf, "--data", short, "--out", str(fresh)]) == 4
    assert "give no full 14-day window" in capsys.readouterr().err
    assert not fresh.exists()
    # a failed rerun into the directory of a successful run changes no byte
    out = tmp_path / "out"
    assert main(["covid", "--config", conf, "--data", str(who_csv), "--out", str(out)]) == 0
    before = files_under(out)
    assert sorted(before) == ["beta.csv", "resim.csv", "run.log", "states.csv"]
    assert main(["covid", "--config", conf, "--data", short, "--out", str(out)]) == 4
    assert files_under(out) == before


def test_failed_estimate_writes_nothing(tmp_path):
    conf = write(tmp_path / "run.conf", SIR_CONF)
    out = tmp_path / "out"
    assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
    data = str(out / "trajectory.csv")
    assert main(["estimate", "--config", conf, "--data", data, "--out", str(out)]) == 0
    before = files_under(out)
    past = write(tmp_path / "past.conf", SIR_CONF.replace("stop=49", "stop=500"))
    for target in (out, tmp_path / "fresh"):
        assert main(["estimate", "--config", past, "--data", data, "--out", str(target)]) == 4
    assert files_under(out) == before
    assert not (tmp_path / "fresh").exists()


def test_varying_estimate_without_an_estimated_day_fails(tmp_path, capsys):
    conf = write(tmp_path / "run.conf", SIR_CONF)
    assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 0
    data = str(tmp_path / "sim" / "trajectory.csv")
    wide = write(
        tmp_path / "wide.conf",
        SIR_CONF.replace("mode=constant", "mode=varying") + "estimate.window=500\n",
    )
    args = ["estimate", "--config", wide, "--out", str(tmp_path / "out")]
    assert main(args + ["--data", data]) == 4
    assert "80 days of data give no full 500-day window" in capsys.readouterr().err
    # no new case on any day: every 3-day window is rank deficient
    flat = write(
        tmp_path / "flat.csv",
        "t,S,I,R\n" + "".join(f"{day},1.0,0.0,0.0\n" for day in range(12)),
    )
    narrow = write(
        tmp_path / "narrow.conf",
        SIR_CONF.replace("mode=constant", "mode=varying") + "estimate.window=3\n",
    )
    args = ["estimate", "--config", narrow, "--out", str(tmp_path / "out")]
    with pytest.warns(UserWarning, match="rank-deficient"):
        assert main(args + ["--data", flat]) == 4
    assert "every window was rank deficient: 10 days skipped" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_utf8_config_and_manifest_are_typed_errors(tmp_path, capsys):
    conf = tmp_path / "latin.conf"
    conf.write_bytes(SIR_CONF.encode() + b"# \xff\n")
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
    assert f"{conf}: config file is not UTF-8" in capsys.readouterr().err
    manifest = write_snapshot_stack(
        manufactured_diffusion_stack(0.01, 5, 5, 3, 0.1), tmp_path / "fields"
    )
    with open(manifest, "ab") as handle:
        handle.write(b"# \xff\n")
    assert main(["reynolds", "--manifest", manifest, "--out", str(tmp_path / "out")]) == 3
    assert f"snapshot manifest: {manifest}: config file is not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reynolds_manifest_wake_region_defaults_from_cylinder_metadata(tmp_path):
    stack = dataclasses.replace(
        manufactured_diffusion_stack(0.01, 33, 33, 11, 0.1),
        cylinder_center=(0.6, 1.5),
        diameter=0.3,
    )
    manifest = write_snapshot_stack(stack, tmp_path / "fields")
    counts = "reynolds.counts=4,8\nreynolds.repeats=2\n"
    region = ",".join(repr(float(bound)) for bound in default_wake_region(stack))
    outputs = {}
    for name, body in (("default", counts), ("given", counts + f"reynolds.region={region}\n")):
        conf = write(tmp_path / f"{name}.conf", body)
        out = tmp_path / name
        assert main(["reynolds", "--config", conf, "--manifest", manifest, "--out", str(out)]) == 0
        outputs[name] = {key: body for key, body in files_under(out).items() if key != "run.log"}
    assert sorted(outputs["default"]) == ["convergence.csv", "summary.json"]
    assert outputs["default"] == outputs["given"]
    # the whole-domain region draws other sensors
    plain = write(tmp_path / "plain.conf", counts)
    bare = write_snapshot_stack(dataclasses.replace(stack, cylinder_center=None), tmp_path / "b")
    out = tmp_path / "bare"
    assert main(["reynolds", "--config", plain, "--manifest", bare, "--out", str(out)]) == 0
    assert (out / "convergence.csv").read_bytes() != outputs["default"]["convergence.csv"]


TRAJECTORY = "t,S,I,R\n0,0.9999,0.0001,0\n1,0.9998,0.00015,0.00005\n2,0.9997,0.0002,0.0001\n"
REYNOLDS_SMALL = "reynolds.nx=9\nreynolds.ny=9\nreynolds.snapshots=5\nreynolds.counts=4\n"


@pytest.mark.parametrize(
    "command, body, data, code, named",
    [
        ("simulate", SIR_CONF + "sim.points=1\n", None, 2, "sim.points"),
        ("simulate", SIR_CONF.replace(",0.0001,0.0", ",0.0001"), None, 2, "sim.x0"),
        ("simulate", SIR_CONF.replace("omega=0.5,", "omega="), None, 2, "schedule.omega"),
        ("simulate", SINUSOIDAL_CONF + "schedule.parameter=zeta\n", None, 2, "schedule.parameter"),
        ("sweep", SWEEP_CONF + "known.zeta=1\n", None, 2, "known.zeta"),
        ("estimate", SIR_CONF.replace("=constant", "=weekly"), TRAJECTORY, 2, "estimate.mode"),
        ("sweep", SWEEP_CONF.replace("0,0.5,0,0.3", "0,0.5,0"), None, 2, "sweep.domain"),
        ("reynolds", REYNOLDS_SMALL + "reynolds.repeats=0\n", None, 2, "reynolds.repeats"),
        ("reynolds", REYNOLDS_SMALL + "reynolds.region=0,1,0\n", None, 2, "reynolds.region"),
        ("estimate", SIR_CONF, TRAJECTORY.replace("0.9998", "x"), 3, "data.csv:3"),
        ("estimate", SIR_CONF, TRAJECTORY[:TRAJECTORY.index("\n1,")], 3, "data.csv"),
        ("simulate", SIR_CONF, None, 3, "out"),
        ("simulate", SIR_CONF.replace("=sir", "=sirr"), None, 2, "unknown model 'sirr'"),
        # keys that the command's family accepts and the command never reads
        ("sweep", SWEEP_CONF + "schedule.mean=x\n", None, 2, "schedule.mean"),
        ("simulate", SIR_CONF + "estimate.window=x\n", None, 2, "estimate.window"),
    ],
    ids=[
        "sim-points-1",
        "sim-x0-length",
        "schedule-omega-length",
        "schedule-parameter-unknown",
        "known-unknown-name",
        "estimate-mode-unknown",
        "sweep-domain-odd",
        "reynolds-repeats-0",
        "reynolds-region-3-values",
        "data-non-numeric",
        "data-one-row",
        "out-is-a-file",
        "model-name-unknown",
        "unread-schedule-mean",
        "unread-estimate-window",
    ],
)
def test_cli_error_paths_write_no_out(tmp_path, capsys, command, body, data, code, named):
    out = tmp_path / "out"
    args = [command, "--config", write(tmp_path / "run.conf", body), "--out", str(out)]
    if data is not None:
        args += ["--data", write(tmp_path / "data.csv", data)]
    if command == "reynolds":
        args += ["--manufactured", "0.01"]
    out_is_a_file = named == "out"
    if out_is_a_file:
        out.write_text("not a directory\n")
        named = str(out)
    assert main(args) == code
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    if out_is_a_file:
        assert out.read_text() == "not a directory\n"
    else:
        assert not out.exists()


CONFIGS = COVID_DAILY.parent


def test_every_shipped_config_key_is_in_the_table():
    paths = sorted(CONFIGS.glob("*.conf"))
    assert len(paths) == 7
    for path in paths:
        for key in load_config(path):
            assert cli._table_key(key) in cli.CONFIG_KEYS, (path.name, key)
    # a key declared in two rows would keep only its last default
    declared = [key for _, _, keys in cli._KEY_ROWS for key in keys]
    assert len(declared) == len(set(declared)) == len(cli.CONFIG_KEYS)


@pytest.mark.parametrize(
    "command, body, key, nearest",
    [
        ("estimate", SIR_CONF, "estimate.windw", "estimate.window"),
        ("estimate", SIR_CONF, "estimat.mode", "estimate.mode"),
        ("simulate", SIR_CONF, "sim.tend", "sim.t_end"),
        ("simulate", SIR_CONF, "colour", None),
        ("sweep", SWEEP_CONF, "sweep.sampels", "sweep.samples"),
        ("covid", "model.population=5700000\n", "covid.gama", "covid.gamma"),
        ("reynolds", REYNOLDS_SMALL, "reynolds.count", "reynolds.counts"),
    ],
)
def test_misspelled_config_key_is_rejected(tmp_path, capsys, command, body, key, nearest):
    conf = write(tmp_path / "run.conf", body + f"{key}=3\n")
    out = tmp_path / "out"
    args = [command, "--config", conf, "--out", str(out)]
    if command == "estimate":
        args += ["--data", write(tmp_path / "data.csv", TRAJECTORY)]
    elif command == "covid":
        args += ["--data", str(COVID_DAILY)]
    elif command == "reynolds":
        args += ["--manufactured", "0.01"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{conf}: unknown config key {key}" in err
    if nearest is None:
        assert "did you mean" not in err
    else:
        assert f"(did you mean {nearest}?)" in err
    assert not out.exists()


def test_misspelled_keys_in_a_shipped_config_stop_estimate(tmp_path, capsys):
    # the rest of the config is valid, so without the check this run exits 0
    # in varying mode with a one-day window
    body = (CONFIGS / "sir_varying.conf").read_text()
    conf = write(tmp_path / "varying.conf", body + "estimate.windw=3\nestimat.mode=constant\n")
    out = tmp_path / "out"
    args = ["estimate", "--config", conf, "--data", write(tmp_path / "d.csv", TRAJECTORY)]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{conf}: unknown config key estimate.windw (did you mean estimate.window?)" in err
    assert not out.exists()


def test_covid_rejects_keys_that_its_family_never_reads(tmp_path, capsys):
    # each key is declared for another command; without the family check
    # this run exits 0 and writes its three files
    body = (CONFIGS / "covid.conf").read_text()
    for key in ("model.name=s3i3r", "known.gamma=0.5", "sim.t_end=3"):
        conf = write(tmp_path / "covid.conf", body + key + "\n")
        out = tmp_path / "out"
        args = ["covid", "--config", conf, "--data", str(COVID_DAILY), "--out", str(out)]
        assert main(args) == 2
        name = key.split("=")[0]
        assert f"{conf}: config key {name} is not read by the covid command" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, body, key",
    [
        ("simulate", SIR_CONF, "covid.gamma"),
        ("estimate", SIR_CONF, "reynolds.nx"),
        ("simulate", SIR_CONF, "sweep.samples"),
        ("sweep", SWEEP_CONF, "covid.window"),
        ("reynolds", REYNOLDS_SMALL, "model.population"),
        ("reynolds", REYNOLDS_SMALL, "known.beta"),
        ("covid", "model.population=5700000\n", "estimate.window"),
    ],
)
def test_key_of_another_family_is_rejected(tmp_path, capsys, command, body, key):
    conf = write(tmp_path / "run.conf", body + f"{key}=3\n")
    out = tmp_path / "out"
    args = [command, "--config", conf, "--out", str(out)]
    if command == "estimate":
        args += ["--data", write(tmp_path / "data.csv", TRAJECTORY)]
    elif command == "covid":
        args += ["--data", str(COVID_DAILY)]
    elif command == "reynolds":
        args += ["--manufactured", "0.01"]
    assert main(args) == 2
    assert f"{conf}: config key {key} is not read by the {command} command" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_every_shipped_config_is_read_by_its_commands():
    # a config serves the commands of one family; each shipped one loads
    # for every command that the CI step runs on it
    commands = {
        "covid": ["covid"],
        "reynolds_manufactured": ["reynolds"],
        "sir_sweep": ["sweep"],
        "s3i3r_sweep": ["sweep"],
    }
    for path in sorted(CONFIGS.glob("*.conf")):
        for command in commands.get(path.stem, ["simulate", "estimate"]):
            assert cli._load_config(path, command) == load_config(path)


@pytest.mark.parametrize("command", ["estimate", "covid"])
def test_seed_flag_only_on_commands_that_draw(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "estimate":
        conf = write(tmp_path / "run.conf", SIR_CONF)
        data = write(tmp_path / "data.csv", TRAJECTORY)
    else:
        conf = write(tmp_path / "run.conf", "model.population=5700000\n")
        data = str(COVID_DAILY)
    args = [command, "--config", conf, "--data", data, "--out", str(out)]
    assert main(args + ["--seed", "7"]) == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["2", "-1", "true", ""])
@pytest.mark.parametrize("key", ["estimate.normalize", "sweep.normalized"])
def test_flag_keys_accept_only_0_or_1(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    if key == "estimate.normalize":
        conf = write(tmp_path / "run.conf", SIR_CONF + f"{key}={value}\n")
        data = write(tmp_path / "data.csv", TRAJECTORY)
        args = ["estimate", "--config", conf, "--data", data]
    else:
        conf = write(tmp_path / "run.conf", SWEEP_CONF + f"{key}={value}\n")
        args = ["sweep", "--config", conf]
    assert main(args + ["--out", str(out)]) == 2
    assert f"config key {key} is not 0 or 1: {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["constant", "varying", "covid"])
def test_negative_ridge_exits_2_without_out(tmp_path, capsys, sir_trajectory, who_csv, mode):
    # every fit checks its ridge as solve_batch does, the windowed ones too
    if mode == "covid":
        body = "model.population=5700000\ncovid.gamma=0.072\ncovid.ridge=-1e-9\n"
        args = ["covid", "--data", str(who_csv)]
    else:
        table = np.column_stack([sir_trajectory.times, sir_trajectory.states])
        rows = ["t,S,I,R"] + [",".join(map(repr, row.tolist())) for row in table]
        data = write(tmp_path / "data.csv", "\n".join(rows) + "\n")
        body = (
            f"model.name=sir\nmodel.population=1.0\nestimate.mode={mode}\n"
            "estimate.window=14\nestimate.ridge=-1e-9\n"
        )
        args = ["estimate", "--data", data]
    out = tmp_path / "out"
    conf = write(tmp_path / "run.conf", body)
    assert main(args + ["--config", conf, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ridge_lambda must be finite and nonnegative: -1e-09" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_reynolds_manifest_with_overflowing_stencils_exits_4(tmp_path, capsys, overflowing_stack):
    manifest = write_snapshot_stack(overflowing_stack, tmp_path / "fields")
    conf = write(tmp_path / "run.conf", "reynolds.counts=4\nreynolds.repeats=2\n")
    out = tmp_path / "out"
    assert main(["reynolds", "--config", conf, "--manifest", manifest, "--out", str(out)]) == 4
    assert "are not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"diameter": None}, "a cylinder centre needs a diameter"),
        ({"cylinder_x": None, "cylinder_y": None}, "diameter needs cylinder_x and cylinder_y"),
        ({"diameter": "0"}, "diameter=0.0 is not positive"),
        ({"diameter": "-0.3"}, "diameter=-0.3 is not positive"),
    ],
    ids=["centre-without-diameter", "diameter-without-centre", "diameter-0", "diameter-negative"],
)
def test_exit_code_for_incomplete_cylinder_metadata(tmp_path, capsys, edit, message):
    stack = dataclasses.replace(
        manufactured_diffusion_stack(0.01, 5, 5, 3, 0.1), cylinder_center=(0.1, 0.2), diameter=0.1
    )
    manifest = Path(write_snapshot_stack(stack, tmp_path / "fields"))
    lines = []
    for line in manifest.read_text().splitlines():
        key = line.split("=")[0]
        if key not in edit:
            lines.append(line)
        elif edit[key] is not None:
            lines.append(f"{key}={edit[key]}")
    manifest.write_text("\n".join(lines) + "\n")
    # the manifest is checked before any field file is read
    for field in (tmp_path / "fields").glob("*.bin"):
        field.unlink()
    out = tmp_path / "out"
    assert main(["reynolds", "--manifest", str(manifest), "--out", str(out)]) == 3
    assert f"snapshot manifest: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_written_manifest_carries_cylinder_metadata_only_when_complete(tmp_path):
    stack = manufactured_diffusion_stack(0.01, 5, 5, 3, 0.1)
    for name, partial in (
        ("centre", dataclasses.replace(stack, cylinder_center=(0.1, 0.2))),
        ("diameter", dataclasses.replace(stack, diameter=0.1)),
    ):
        manifest = write_snapshot_stack(partial, tmp_path / name)
        assert load_config(manifest).keys() == {"nx", "ny", "dx", "dy", "dt", "n_snapshots"}


def private_names_of_other_modules(path: Path) -> list:
    """The private names that one package module imports from, or reads off,
    another package module, sorted: `from .m import _x` and
    `from artifact.m import _x`, and `m._x` after `from . import m`,
    `from artifact import m`, `import artifact.m as m` or `import artifact.m`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = {}, []  # a name the source binds to a package module: that module

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    def dotted(node) -> str | None:
        if isinstance(node, ast.Attribute):
            value = dotted(node.value)
            return None if value is None else f"{value}.{node.attr}"
        return node.id if isinstance(node, ast.Name) else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "artifact" or alias.name.startswith("artifact."):
                    module = alias.name.removeprefix("artifact.")
                    modules[alias.asname or alias.name] = module
                    if alias.asname is None:  # import artifact.m binds artifact too
                        modules["artifact"] = "artifact"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != "artifact" and not module.startswith("artifact."):
                    continue
                module = module.removeprefix("artifact").removeprefix(".")
            for alias in node.names:
                if not module:  # from . import m, from artifact import m
                    modules[alias.asname or alias.name] = alias.name
                if private(alias.name):
                    found.append(f"{module or 'artifact'}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            module = modules.get(dotted(node.value))
            if module is not None:
                found.append(f"{module}.{node.attr}")
    return sorted(found)


def test_cli_imports_no_private_name(tmp_path):
    # every module reaches the others through their public names: the commands
    # read configs and write files with what the library exports, through the
    # Reynolds study's one call, and the library's modules share no private helper
    sources = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert {"cli.py", "models.py", "vorticity.py"} <= {path.name for path in sources}
    found = {path.name: private_names_of_other_modules(path) for path in sources}
    assert {name: names for name, names in found.items() if names} == {}
    cli_tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(cli_tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "reynolds_convergence" in imported
    # every form is caught; a name from outside the package is not in scope
    sample = write(
        tmp_path / "sample.py",
        "import numpy as np\n"
        "from numpy._core.multiarray import c_einsum\n"
        "from . import regression\n"
        "from .models import _as_states, check_states\n"
        "from artifact.vorticity import _fit_sums\n"
        "from artifact import _private, integrator\n"
        "import artifact.estimation as estimation\n"
        "import artifact.differentiation\n"
        "regression._check_ridge_lambda(0.0)\n"
        "regression.__name__\n"
        "integrator._rk4\n"
        "estimation._formulate\n"
        "artifact.differentiation._finite_difference\n"
        "np._core\n",
    )
    assert private_names_of_other_modules(Path(sample)) == [
        "artifact._private",
        "differentiation._finite_difference",
        "estimation._formulate",
        "integrator._rk4",
        "models._as_states",
        "regression._check_ridge_lambda",
        "vorticity._fit_sums",
    ]


def test_sweep_rejects_noise_keys(tmp_path, capsys):
    # a sweep draws noise-free trajectories and fits no window: without the
    # family check these runs exit 0 and write draws.csv
    for key in ("noise.epsilon=0.5", "noise.seed=3", "estimate.window=5"):
        conf = write(tmp_path / "sweep.conf", SWEEP_CONF + key + "\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", conf, "--out", str(out)]) == 2
        name = key.split("=")[0]
        assert f"{conf}: config key {name} is not read by the sweep command" in (
            capsys.readouterr().err
        )
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--manifest", "m.txt", "--manufactured", "0.01"],
         "argument --manufactured: not allowed with argument --manifest"),
        ([], "one of the arguments --manifest --manufactured is required"),
    ],
    ids=["both", "neither"],
)
def test_reynolds_input_choice_is_checked_by_argparse(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(["reynolds", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("nu", ["1e-320", "5e-324"])
def test_manufactured_viscosity_whose_inverse_overflows_is_refused(tmp_path, capsys, nu):
    # 1/NU overflows to inf: without the refusal the run exits 0 with a null target_re
    conf = write(tmp_path / "re.conf", REYNOLDS_SMALL)
    out = tmp_path / "out"
    assert main(["reynolds", "--config", conf, "--manufactured", nu, "--out", str(out)]) == 2
    assert "--manufactured NU and 1/NU must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_re_spread_that_overflows_reads_inf(tmp_path, monkeypatch):
    # the squares of np.std((1e200, 1.1e200)) overflow: without errstate a
    # numpy warning would leave main as a traceback
    estimate = ReynoldsEstimate(4, 1.05e200, 1e-200, (1e200, 1.1e200), 0.0)
    monkeypatch.setattr(cli, "reynolds_convergence", lambda *args: {"plain": ([estimate], 0.01)})
    conf = write(tmp_path / "re.conf", REYNOLDS_SMALL)
    out = tmp_path / "out"
    assert main(["reynolds", "--config", conf, "--manufactured", "0.01", "--out", str(out)]) == 0
    with open(out / "convergence.csv") as handle:
        assert [row["re_spread"] for row in csv.DictReader(handle)] == ["inf"]


def steady_manifest(directory):
    """A 17^2 x 5 stack whose w is the same at every snapshot, at rest."""
    w = np.repeat(manufactured_diffusion_stack(0.01, 17, 17, 5, 0.1).w[:1], 5, axis=0)
    zero = np.zeros_like(w)
    return write_snapshot_stack(SnapshotStack(u=zero, v=zero, w=w, dx=0.2, dy=0.2, dt=0.1), directory)


def growing_manifest(directory):
    """The decaying 33^2 x 11 field played backwards: every fit gives 1/Re < 0."""
    decaying = manufactured_diffusion_stack(0.01, 33, 33, 11, 0.1)
    zero = np.zeros_like(decaying.w)
    growing = dataclasses.replace(decaying, u=zero, v=zero, w=decaying.w[::-1].copy())
    return write_snapshot_stack(growing, directory)


@pytest.mark.parametrize("source", ["steady", "manufactured-1e-300", "growing"])
def test_full_field_fit_that_is_not_positive_has_no_reynolds_number(tmp_path, source):
    # at the parent the first two raised ZeroDivisionError out of main and the
    # third wrote a negative re
    conf = write(tmp_path / "re.conf", "reynolds.counts=4\nreynolds.repeats=2\n")
    if source == "steady":
        args = ["--manifest", steady_manifest(tmp_path / "fields")]
    elif source == "growing":
        args = ["--manifest", growing_manifest(tmp_path / "fields")]
    else:
        conf = write(
            tmp_path / "re.conf",
            "reynolds.nx=17\nreynolds.ny=17\nreynolds.snapshots=5\nreynolds.counts=4\n",
        )
        args = ["--manufactured", "1e-300"]
    out = tmp_path / "out"
    assert main(["reynolds", "--config", conf, *args, "--out", str(out)]) == 0
    full_field = json.loads((out / "summary.json").read_text())["full_field"]
    for method in ("plain", "ridge"):
        fit = full_field[method]
        assert fit["inverse_re"] < 0 if source == "growing" else fit["inverse_re"] == 0.0
        assert fit["re"] is None and fit["relative_error"] is None
    with open(out / "convergence.csv") as handle:
        assert [row[6] for row in csv.reader(handle)][1:] == ["nonphysical"] * 2
