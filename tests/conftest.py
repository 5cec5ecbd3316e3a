"""Shared fixtures: reference trajectories and a synthetic daily-counts file."""

import dataclasses
from datetime import date, timedelta

import numpy as np
import pytest

from artifact import (
    ConstantSchedule,
    SimulationConfig,
    lotka_volterra,
    manufactured_diffusion_stack,
    simulate,
    sir,
)

LV_OMEGA = np.array([0.7, 1.3, 1.1, 0.9])
SIR_OMEGA = np.array([0.5, 1.0 / 3.0])


@pytest.fixture(scope="session")
def lv_trajectory():
    """Reference orbit: x0=(1,1), t in [0,10], 1000 samples."""
    config = SimulationConfig(
        0.0, 10.0, 10.0 / 999.0, np.array([1.0, 1.0]), ConstantSchedule(LV_OMEGA)
    )
    return simulate(lotka_volterra(), config)


@pytest.fixture(scope="session")
def sir_trajectory():
    """80 daily states of the unit-population epidemic."""
    config = SimulationConfig(
        0.0, 79.0, 1.0, np.array([0.9999, 1e-4, 0.0]), ConstantSchedule(SIR_OMEGA)
    )
    return simulate(sir(1.0), config)


def synthetic_daily_counts(n_days, population=5.7e6, i0=3e4):
    """Daily new-case counts from a slowly reopening epidemic.

    Ground truth: beta(t) = 0.078 - 0.012 t / 130 with gamma = 0.072, solved
    at step 0.02 and read off once per day; counts are day-over-day
    differences of the rounded cumulative infections.
    """

    class _Ramp:
        def omega_at(self, t):
            return np.array([0.078 - 0.012 * t / 130.0, 0.072])

    config = SimulationConfig(
        0.0, float(n_days - 1), 0.02, np.array([population - i0, i0, 0.0]), _Ramp()
    )
    fine = simulate(sir(population), config)
    daily = fine.states[::50]
    cumulative = np.round(population - daily[:, 0]).astype(np.int64)
    return np.diff(np.concatenate([[0], cumulative]))


def _item_assigned_matrices(name, states, population=None):
    """A(x) built one entry at a time, as the built-ins did before their tables."""
    states = np.asarray(states, dtype=float)
    if name == "lotka_volterra":
        x, y = states[..., 0], states[..., 1]
        a = np.zeros(states.shape[:-1] + (2, 4))
        a[..., 0, 0] = x
        a[..., 0, 1] = -x * y
        a[..., 1, 2] = -y
        a[..., 1, 3] = x * y
        return a
    if name == "sir":
        s, i = states[..., 0], states[..., 1]
        si = s * i / population
        a = np.zeros(states.shape[:-1] + (3, 2))
        a[..., 0, 0] = -si
        a[..., 1, 0] = si
        a[..., 1, 1] = -i
        a[..., 2, 1] = i
        return a
    s, i1, i2, i3, r1 = (states[..., k] for k in range(5))
    pool = s + i1 + r1
    si = s * i1 / population
    a = np.zeros(states.shape[:-1] + (7, 8))
    a[..., 0, 0] = -si
    a[..., 0, 4] = -s / pool
    a[..., 1, 0] = si
    a[..., 1, 1] = -i1
    a[..., 1, 4] = -i1 / pool
    a[..., 1, 6] = -i1
    a[..., 2, 2] = -i2
    a[..., 2, 6] = i1
    a[..., 2, 7] = -i2
    a[..., 3, 3] = -i3
    a[..., 3, 5] = -i3
    a[..., 3, 7] = i2
    a[..., 4, 1] = i1
    a[..., 4, 2] = i2
    a[..., 4, 3] = i3
    a[..., 4, 4] = -r1 / pool
    a[..., 5, 4] = 1.0
    a[..., 6, 5] = i3
    return a


@pytest.fixture(scope="session")
def item_assigned_matrices():
    """The entry-by-entry reference builder: (name, states, population) -> A."""
    return _item_assigned_matrices


@pytest.fixture()
def who_csv(tmp_path):
    """100-day single-column WHO-style CSV of the synthetic epidemic."""
    counts = synthetic_daily_counts(100)
    path = tmp_path / "daily.csv"
    lines = ["date,new_cases"]
    for k, c in enumerate(counts):
        lines.append(f"{date(2020, 3, 1) + timedelta(days=k)},{c}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def overflowing_stack():
    """A 17x17x7 manufactured stack whose vorticity is a +-1e308 checkerboard."""
    stack = manufactured_diffusion_stack(0.01, 17, 17, 7, 0.1)
    index = np.arange(17)
    sign = np.where((index[:, None] + index[None, :]) % 2, 1.0, -1.0)
    return dataclasses.replace(stack, w=np.broadcast_to(1e308 * sign, stack.w.shape).copy())
