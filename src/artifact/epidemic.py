"""Daily case-count ingestion and compartment-state reconstruction.

Raw surveillance data arrives as daily increments (new cases, deaths,
vaccinations, hospital and ICU admissions). The estimators need compartment
levels, so these transforms rebuild them under fixed recovery rates:

- infected levels are trailing sums of new cases over floor(1/gamma) days,
  inclusive of the current day;
- susceptibles follow a depletion recursion started from a virtual previous
  day with the whole population susceptible;
- the recovered compartment closes the population identity exactly.

Counts stay in integer arithmetic wherever possible so the closure is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .config import read_csv
from .differentiation import TimeSeries
from .errors import (
    DegenerateDenominator,
    MissingColumn,
    NegativeCompartment,
    NonMonotonicDates,
    ParseError,
)

CSV_COLUMNS = (
    "new_cases",
    "new_deaths",
    "new_vaccinated",
    "new_hospitalized",
    "new_icu",
)


@dataclass(frozen=True)
class RawDailySeries:
    """Daily increments; any column but new_cases may be absent (None)."""

    dates: tuple
    new_cases: np.ndarray
    new_deaths: np.ndarray | None = None
    new_vaccinated: np.ndarray | None = None
    new_hospitalized: np.ndarray | None = None
    new_icu: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.dates)
        for name in CSV_COLUMNS:
            column = getattr(self, name)
            if column is None:
                continue
            column = np.asarray(column, dtype=np.int64)
            if column.shape != (n,):
                raise ParseError(f"column {name} has {column.shape[0]} rows, expected {n}")
            if np.any(column < 0):
                raise ParseError(f"column {name} contains negative counts")
            object.__setattr__(self, name, column)
        if self.new_cases is None:
            raise MissingColumn("new_cases is required")

    def __len__(self) -> int:
        return len(self.dates)

    def require(self, *names) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise MissingColumn(f"column {name} is required for this transform")


@dataclass(frozen=True)
class FixedRates:
    """Recovery rates treated as known; 1/gamma acts as an integer day span."""

    gamma1: float = 1.0 / 9.0
    gamma2: float = 1.0 / 7.0
    gamma3: float = 1.0 / 16.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma3"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name}={value} must satisfy 0 < gamma <= 1")

    def window(self, which: str) -> int:
        return int(np.floor(1.0 / getattr(self, which)))


def _trailing_window_sum(increments: np.ndarray, window: int) -> np.ndarray:
    """Inclusive trailing sum over indices t-window..t (cumulative before)."""
    cumulative = np.cumsum(increments)
    out = cumulative.copy()
    if window + 1 <= len(increments):
        out[window + 1 :] = cumulative[window + 1 :] - cumulative[: -(window + 1)]
    return out


def _check_nonnegative(columns: dict) -> None:
    for name, column in columns.items():
        if np.any(column < 0):
            day = int(np.argmax(column < 0))
            raise NegativeCompartment(f"{name} goes negative on day {day}")


def build_sir_states(raw: RawDailySeries, population: int, rates: FixedRates) -> TimeSeries:
    """(S, I, R) levels from new-case counts.

    S depletes by each day's new cases (day zero included, so the population
    identity holds from the start); I is the trailing-window sum with window
    floor(1/gamma1); R = N - S - I. All integer until the final cast.
    """
    population = int(population)
    cases = raw.new_cases
    susceptible = population - np.cumsum(cases)
    infected = _trailing_window_sum(cases, rates.window("gamma1"))
    recovered = population - susceptible - infected
    _check_nonnegative({"S": susceptible, "I": infected, "R": recovered})
    states = np.column_stack([susceptible, infected, recovered]).astype(float)
    return TimeSeries(np.arange(len(raw), dtype=float), states)


def build_s3i3r_states(
    raw: RawDailySeries, population: int, rates: FixedRates
) -> TimeSeries:
    """(S, I1, I2, I3, R1, R2, R3) levels from the five daily-count columns.

    I1 excludes the hospitalized: each day's new admissions are subtracted
    from the trailing case sum. I2 and I3 are trailing sums of hospital and
    ICU admissions with windows floor(1/gamma2) and floor(1/gamma3). R2 and
    R3 accumulate vaccinations and deaths. S additionally loses the share of
    vaccinations attributable to susceptibles, S / (S + I1 + R1) evaluated on
    the previous day (virtual day -1 is the fully susceptible population).
    R1 closes the population identity exactly.
    """
    raw.require("new_deaths", "new_vaccinated", "new_hospitalized", "new_icu")
    population = int(population)
    n = len(raw)
    infected = (
        _trailing_window_sum(raw.new_cases, rates.window("gamma1"))
        - raw.new_hospitalized
    )
    hospitalized = _trailing_window_sum(raw.new_hospitalized, rates.window("gamma2"))
    icu = _trailing_window_sum(raw.new_icu, rates.window("gamma3"))
    vaccinated = np.cumsum(raw.new_vaccinated)
    dead = np.cumsum(raw.new_deaths)

    susceptible = np.empty(n)
    recovered = np.empty(n)
    previous_s, previous_i1, previous_r1 = float(population), 0.0, 0.0
    for t in range(n):
        pool = previous_s + previous_i1 + previous_r1
        if pool == 0.0:
            raise DegenerateDenominator(f"vaccinatable pool is zero before day {t}")
        share = previous_s / pool
        susceptible[t] = previous_s - raw.new_cases[t] - raw.new_vaccinated[t] * share
        recovered[t] = (
            population
            - susceptible[t]
            - infected[t]
            - hospitalized[t]
            - icu[t]
            - vaccinated[t]
            - dead[t]
        )
        previous_s, previous_i1, previous_r1 = (
            susceptible[t],
            float(infected[t]),
            recovered[t],
        )

    columns = {
        "S": susceptible,
        "I1": infected,
        "I2": hospitalized,
        "I3": icu,
        "R1": recovered,
        "R2": vaccinated,
        "R3": dead,
    }
    _check_nonnegative(columns)
    states = np.column_stack(list(columns.values())).astype(float)
    return TimeSeries(np.arange(n, dtype=float), states)


def load_who_csv(path) -> RawDailySeries:
    """Parse a daily-counts CSV, one row per day.

    Header must contain `date` and any of: new_cases, new_deaths,
    new_vaccinated, new_hospitalized, new_icu. Dates are ISO-8601; rows are
    sorted by date after parsing, and a missing day is a ParseError. Errors
    carry the 1-based line number.
    """
    header, lines = read_csv(path, "case-count")
    if "date" not in header:
        raise ParseError(f"{path}: header must contain a date column")
    unknown = set(header) - set(CSV_COLUMNS) - {"date"}
    if unknown:
        raise ParseError(f"{path}: unknown columns {sorted(unknown)}")
    rows = []
    for line_number, cells in lines:
        record = {}
        for name, cell in zip(header, cells):
            if name == "date":
                try:
                    record["date"] = date.fromisoformat(cell)
                except ValueError:
                    raise ParseError(f"{path}:{line_number}: bad date {cell!r}") from None
            else:
                try:
                    value = int(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}:{line_number}: column {name}: {cell!r} is not an integer"
                    ) from None
                if value < 0:
                    raise ParseError(
                        f"{path}:{line_number}: column {name}: negative count {value}"
                    )
                record[name] = value
        rows.append(record)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    rows.sort(key=lambda r: r["date"])
    dates = tuple(r["date"] for r in rows)
    if any(dates[i] >= dates[i + 1] for i in range(len(dates) - 1)):
        raise NonMonotonicDates(f"{path}: duplicate dates after sorting")
    for day, following in zip(dates, dates[1:]):
        if following - day > timedelta(days=1):
            raise ParseError(f"{path}: missing date {day + timedelta(days=1)}")
    columns = {}
    for name in CSV_COLUMNS:
        if name in header:
            columns[name] = np.array([r[name] for r in rows], dtype=np.int64)
        else:
            columns[name] = None
    if columns["new_cases"] is None:
        raise MissingColumn(f"{path}: new_cases column is required")
    return RawDailySeries(dates=dates, **columns)
