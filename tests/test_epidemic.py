"""Compartment reconstruction from daily counts and CSV ingestion."""

from datetime import date, timedelta

import numpy as np
import pytest

from artifact import (
    FixedRates,
    MissingColumn,
    NegativeCompartment,
    NonMonotonicDates,
    ParseError,
    RawDailySeries,
    build_s3i3r_states,
    build_sir_states,
    load_who_csv,
)


def day_range(n, start=date(2021, 1, 1)):
    return tuple(start + timedelta(days=k) for k in range(n))


def consistent_counts(n_days=40):
    """Admissions start only after the first cases have left their window."""
    rng = np.random.default_rng(5)
    day = np.arange(n_days)
    return RawDailySeries(
        dates=day_range(n_days),
        new_cases=20 + rng.integers(0, 11, n_days),
        new_deaths=np.where((day >= 22) & (day % 2 == 0), 1, 0),
        new_vaccinated=np.where(day >= 10, 50, 0),
        new_hospitalized=np.where(day >= 12, 2, 0),
        new_icu=np.where(day >= 18, 1, 0),
    )


def test_sir_worked_example():
    raw = RawDailySeries(dates=day_range(4), new_cases=[0, 2, 3, 0])
    series = build_sir_states(raw, 10, FixedRates(gamma1=0.5))
    np.testing.assert_array_equal(series.states[:, 0], [10, 8, 5, 5])
    np.testing.assert_array_equal(series.states[:, 1], [0, 2, 5, 5])
    np.testing.assert_array_equal(series.states[:, 2], [0, 0, 0, 0])


def test_sir_no_cases_means_all_susceptible():
    raw = RawDailySeries(dates=day_range(6), new_cases=np.zeros(6, int))
    series = build_sir_states(raw, 123, FixedRates())
    np.testing.assert_array_equal(series.states[:, 0], np.full(6, 123.0))
    assert not series.states[:, 1:].any()


def test_sir_closure_exact():
    rng = np.random.default_rng(2)
    raw = RawDailySeries(dates=day_range(60), new_cases=rng.integers(0, 50, 60))
    series = build_sir_states(raw, 100000, FixedRates())
    np.testing.assert_array_equal(series.states.sum(axis=1), np.full(60, 100000.0))


def test_sir_negative_compartment_names_day():
    raw = RawDailySeries(dates=day_range(3), new_cases=[0, 10, 0])
    with pytest.raises(NegativeCompartment, match="S goes negative on day 1"):
        build_sir_states(raw, 5, FixedRates())
    zeros = np.zeros(3, int)
    raw = RawDailySeries(
        dates=day_range(3),
        new_cases=zeros,
        new_deaths=np.array([0, 0, 9]),
        new_vaccinated=zeros,
        new_hospitalized=zeros,
        new_icu=zeros,
    )
    with pytest.raises(NegativeCompartment, match="R1 goes negative on day 2"):
        build_s3i3r_states(raw, 5, FixedRates())


def test_trailing_window_matches_brute_force():
    rng = np.random.default_rng(7)
    cases = rng.integers(0, 9, 30)
    raw = RawDailySeries(dates=day_range(30), new_cases=cases)
    for gamma, window in ((1.0, 1), (0.5, 2), (0.3, 3), (0.21, 4), (0.2, 5)):
        series = build_sir_states(raw, 10000, FixedRates(gamma1=gamma))
        expected = np.array(
            [cases[max(t - window, 0) : t + 1].sum() for t in range(30)], dtype=float
        )
        np.testing.assert_array_equal(series.states[:, 1], expected)


def test_s3i3r_all_zero_counts():
    zeros = np.zeros(5, int)
    raw = RawDailySeries(
        dates=day_range(5),
        new_cases=zeros,
        new_deaths=zeros,
        new_vaccinated=zeros,
        new_hospitalized=zeros,
        new_icu=zeros,
    )
    series = build_s3i3r_states(raw, 777, FixedRates())
    np.testing.assert_array_equal(series.states[:, 0], np.full(5, 777.0))
    assert not series.states[:, 1:].any()


def test_s3i3r_vaccination_pulse():
    zeros = np.zeros(3, int)
    raw = RawDailySeries(
        dates=day_range(3),
        new_cases=zeros,
        new_deaths=zeros,
        new_vaccinated=np.array([0, 7, 0]),
        new_hospitalized=zeros,
        new_icu=zeros,
    )
    series = build_s3i3r_states(raw, 100, FixedRates())
    np.testing.assert_array_equal(series.states[:, 0], [100, 93, 93])
    np.testing.assert_array_equal(series.states[:, 5], [0, 7, 7])
    np.testing.assert_array_equal(series.states.sum(axis=1), [100, 100, 100])


def test_s3i3r_closure_and_monotone_sinks():
    series = build_s3i3r_states(consistent_counts(), 1_000_000, FixedRates())
    assert np.abs(series.states.sum(axis=1) - 1_000_000).max() == 0.0
    assert np.all(np.diff(series.states[:, 5]) >= 0)
    assert np.all(np.diff(series.states[:, 6]) >= 0)


def test_s3i3r_requires_all_columns():
    raw = RawDailySeries(dates=day_range(4), new_cases=[0, 1, 2, 3])
    with pytest.raises(MissingColumn):
        build_s3i3r_states(raw, 100, FixedRates())


def test_raw_series_validation():
    with pytest.raises(ParseError):
        RawDailySeries(dates=day_range(3), new_cases=[0, -1, 2])
    with pytest.raises(ParseError):
        RawDailySeries(dates=day_range(3), new_cases=[0, 1])
    with pytest.raises(MissingColumn):
        RawDailySeries(dates=day_range(3), new_cases=None)


def test_fixed_rates_validation():
    with pytest.raises(ValueError):
        FixedRates(gamma1=0.0)
    with pytest.raises(ValueError):
        FixedRates(gamma2=1.5)
    assert FixedRates(gamma1=0.072).window("gamma1") == 13
    assert FixedRates().window("gamma1") == 9


def test_load_three_line_csv(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_cases\n2020-03-01,5\n2020-03-02,7\n2020-03-03,0\n")
    raw = load_who_csv(path)
    assert len(raw) == 3
    np.testing.assert_array_equal(raw.new_cases, [5, 7, 0])
    assert raw.new_deaths is None
    assert raw.new_vaccinated is None


def test_load_negative_cell_names_location(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_cases\n2020-03-01,5\n2020-03-02,-7\n")
    with pytest.raises(ParseError, match="new_cases"):
        load_who_csv(path)
    with pytest.raises(ParseError, match=":3:"):
        load_who_csv(path)


def test_load_sorts_rows_by_date(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_cases\n2020-03-03,3\n2020-03-01,1\n2020-03-02,2\n")
    raw = load_who_csv(path)
    np.testing.assert_array_equal(raw.new_cases, [1, 2, 3])
    assert raw.dates[0] == date(2020, 3, 1)


def test_load_duplicate_dates_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_cases\n2020-03-01,1\n2020-03-01,2\n")
    with pytest.raises(NonMonotonicDates):
        load_who_csv(path)


def test_load_bad_date(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_cases\n03/01/2020,1\n")
    with pytest.raises(ParseError, match="bad date"):
        load_who_csv(path)


def test_load_missing_cases_column(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_deaths\n2020-03-01,1\n")
    with pytest.raises(MissingColumn):
        load_who_csv(path)


def test_load_unknown_column(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_cases,flavor\n2020-03-01,1,2\n")
    with pytest.raises(ParseError, match="flavor"):
        load_who_csv(path)


def test_load_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_who_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("date,new_cases\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_who_csv(header_only)


def test_load_ragged_row(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_cases\n2020-03-01,1,9\n")
    with pytest.raises(ParseError, match=":2:"):
        load_who_csv(path)


def test_load_non_integer_cell(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_cases\n2020-03-01,1.5\n")
    with pytest.raises(ParseError, match="not an integer"):
        load_who_csv(path)


def test_load_missing_day_names_the_first_gap(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("date,new_cases\n2020-03-06,1\n2020-03-01,5\n2020-03-05,3\n")
    with pytest.raises(ParseError, match="counts.csv: missing date 2020-03-02$"):
        load_who_csv(path)
