"""Input files: flat key=value run configurations, and CSV tables (read_csv).

One assignment per line, # starts a comment, blank lines ignored. Section
membership is by key prefix (sim.step, noise.epsilon), not by bracketed
headers, so a file parses to a single flat dict of strings. Numbers must be
finite: get_float and get_floats reject NaN or an infinity with ConfigError.
"""

from __future__ import annotations

import csv
import math

from .errors import ConfigError, ParseError

# the default of a key that must be given: its getter raises ConfigError without it
REQUIRED = object()


def load_config(path) -> dict:
    entries = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{line_number}: expected key=value")
                key, _, value = stripped.partition("=")
                key = key.strip()
                if not key:
                    raise ConfigError(f"{path}:{line_number}: empty key")
                if key in entries:
                    raise ConfigError(f"{path}:{line_number}: duplicate key {key}")
                entries[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8: {exc.reason}") from None
    return entries


def read_csv(path, what: str):
    """(header, rows) of a CSV table, every cell stripped.

    rows pairs each row that is not blank with its line number. ParseError
    names the file for one that cannot be read as UTF-8 text or is empty,
    and the file and line for a row whose cell count differs from the
    header's.
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            lines = [[cell.strip() for cell in line] for line in csv.reader(handle)]
    except OSError as exc:
        raise ParseError(f"cannot read {what} file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {what} file is not UTF-8: {exc.reason}") from None
    if not lines:
        raise ParseError(f"{path}: empty {what} file")
    header = lines[0]
    rows = [(number, cells) for number, cells in enumerate(lines[1:], start=2) if any(cells)]
    for number, cells in rows:
        if len(cells) != len(header):
            raise ParseError(f"{path}:{number}: {len(cells)} cells for {len(header)} columns")
    return header, rows


def _get(entries: dict, key: str, default, parse, kind: str, finite: bool = False):
    if key not in entries:
        if default is REQUIRED:
            raise ConfigError(f"missing required config key {key}")
        return default
    value = entries[key]
    try:
        parsed = parse(value)
    except ValueError:
        raise ConfigError(f"config key {key} is not {kind}: {value!r}") from None
    numbers = parsed if isinstance(parsed, list) else [parsed]
    if finite and not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{key}={value}: {key} must be finite")
    return parsed


def _comma_list(parse):
    return lambda value: [parse(part) for part in value.split(",") if part.strip()]


def get_str(entries: dict, key: str, default=REQUIRED):
    return _get(entries, key, default, str, "a string")


def get_int(entries: dict, key: str, default=REQUIRED):
    return _get(entries, key, default, int, "an integer")


def get_float(entries: dict, key: str, default=REQUIRED):
    return _get(entries, key, default, float, "a number", finite=True)


def _flag(value: str) -> bool:
    if value not in ("0", "1"):
        raise ValueError(value)
    return value == "1"


def get_flag(entries: dict, key: str, default=REQUIRED):
    """0 or 1, as a bool."""
    return _get(entries, key, default, _flag, "0 or 1")


def get_floats(entries: dict, key: str, default=REQUIRED):
    """Comma-separated float list."""
    return _get(entries, key, default, _comma_list(float), "a number list", finite=True)


def get_ints(entries: dict, key: str, default=REQUIRED):
    """Comma-separated integer list."""
    return _get(entries, key, default, _comma_list(int), "an integer list")
