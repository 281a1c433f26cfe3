"""CSV ingestion and emission.

Two file schemas, both UTF-8 with '.' decimals:

* censored samples: header exactly ``z,delta``, one observation per row;
* raw survival records: header exactly ``start,end,status`` with ISO-8601
  dates and status ``D`` (dead) or ``A`` (alive), converted to censored
  observations by :func:`derive_survival`.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import operator
from numbers import Integral
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CsvFormatError",
    "read_censored_csv",
    "write_censored_csv",
    "read_raw_records",
    "derive_survival",
    "fmt",
    "fmt_float",
]

CENSORED_HEADER = ["z", "delta"]
RAW_HEADER = ["start", "end", "status"]


class CsvFormatError(ValueError):
    """A CSV file does not match the expected schema."""


def fmt_float(value: float) -> str:
    """:func:`fmt` of a float: the fast way to a CSV cell from ``array.tolist()``."""
    return "" if math.isnan(value) else f"{value:.6g}"


def fmt(value) -> str:
    """Render a value for CSV output: 6 significant digits, '' for missing."""
    if value is None:
        return ""
    if isinstance(value, Integral):  # np.integer is Integral, np.bool_ is not
        return str(int(value))
    return fmt_float(float(value))


def _data_rows(path, header):
    """Yield ``(lineno, row)`` for the non-blank rows of a CSV file with this exact header.

    Raises :class:`CsvFormatError` on a wrong header, a row with the wrong
    field count, or a file without data rows.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        row = next(reader, None)
        if row is None or [c.strip() for c in row] != header:
            raise CsvFormatError(f"{path}: expected header {','.join(header)!r}, got {row!r}")
        empty = True
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            empty = False
            yield lineno, row
    if empty:
        raise CsvFormatError(f"{path}: no data rows")


def read_censored_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``z,delta`` file into C-contiguous float64 z and int64 delta arrays."""
    import numpy as np  # imported on use: convert runs without numpy

    from .rules import _from_text  # on use too: convert runs io alone

    def observations():
        for lineno, row in _data_rows(path, CENSORED_HEADER):
            if isinstance(value := _from_text(row[0]), str):
                raise CsvFormatError(f"{path}: line {lineno}, field z: not a number: {row[0]!r}")
            if not math.isfinite(value) or value <= 0:
                raise CsvFormatError(f"{path}: line {lineno}, field z: must be finite and > 0, got {row[0]!r}")
            if (delta := row[1].strip(" \t\n\r\x0b\x0c")) not in ("0", "1"):  # ASCII whitespace only
                raise CsvFormatError(f"{path}: line {lineno}, field delta: must be 0 or 1, got {row[1]!r}")
            yield value, delta == "1"

    # straight into one record array, not two lists of Python objects; each field is copied out contiguous
    rows = np.fromiter(observations(), dtype=[("z", np.float64), ("delta", np.int64)])
    return rows["z"].copy(), rows["delta"].copy()


def write_censored_csv(path_or_file, z, delta) -> None:
    """Write (z, delta) as a ``z,delta`` file; round-trips exactly."""

    def _write(fh):  # the bytes csv.writer wrote: no repr of a float or int needs quoting
        fh.write(",".join(CENSORED_HEADER) + "\n")
        fh.writelines(map("{!r},{}\n".format, map(float, z), map(int, delta)))  # float(): numpy 2's repr names its type

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
            _write(fh)


def read_raw_records(path) -> list[tuple[dt.date, dt.date, str]]:
    """Read a ``start,end,status`` file of ISO dates and D/A status flags."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    fast = len(rows) > 1 and rows[0] == RAW_HEADER and set(map(len, rows)) == {3}  # else the row rule reads again
    linenos, rows = (range(2, len(rows) + 1), rows[1:]) if fast else zip(*_data_rows(path, RAW_HEADER))
    try:
        columns = _raw_columns(rows)
    except CsvFormatError:  # each row alone: the first that fails names its line, and its first bad field
        for lineno, row in zip(linenos, rows):
            _raw_columns([row], f"{path}: line {lineno}")
        raise
    del rows, linenos  # the cells go before the records are built: not both held at the peak
    return list(zip(*columns))


def _raw_columns(rows, where: str = "") -> tuple[list[dt.date], list[dt.date], list[str]]:
    """Each column of raw rows parsed at once; a CsvFormatError after ``where`` names a lone row's bad field."""
    cells, dates = list(zip(*rows)), []
    for field, column in zip(("start", "end"), cells):
        try:
            dates.append(list(map(dt.date.fromisoformat, map(str.strip, column))))
        except ValueError:
            raise CsvFormatError(f"{where}, field {field}: not an ISO date: {column[0]!r}") from None
    if not {"D", "A"}.issuperset(statuses := list(map(str.strip, cells[2]))):
        raise CsvFormatError(f"{where}, field status: must be D or A, got {cells[2][0]!r}") from None
    if any(map(operator.lt, dates[1], dates[0])):
        raise CsvFormatError(f"{where}: end date precedes start date") from None
    return dates[0], dates[1], statuses


def derive_survival(records: Iterable[Sequence]) -> tuple[np.ndarray, np.ndarray]:
    """Turn (start, end, status) records into censored observations.

    The survival time is the day count from start to end plus one (so
    same-day events still yield a positive time); delta is 1 for status
    ``D`` and 0 for ``A``.
    """
    import numpy as np
    z, delta = _survival_lists(records)
    return np.asarray(z), np.asarray(delta, dtype=np.int64)


def _survival_lists(records: Iterable[Sequence]) -> tuple[list[float], list[int]]:
    """:func:`derive_survival` as two lists, the form ``convert`` writes."""
    z: list[float] = []
    delta: list[int] = []
    for start, end, status in records:
        if end < start:
            raise ValueError(f"end date {end} precedes start date {start}")
        if status not in ("D", "A"):
            raise ValueError(f"unknown status {status!r} (expected D or A)")
        z.append(float((end - start).days + 1))
        delta.append(1 if status == "D" else 0)
    return z, delta
