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

    def observations():
        for lineno, row in _data_rows(path, CENSORED_HEADER):
            try:
                value = float(row[0])
            except ValueError:
                raise CsvFormatError(f"{path}: line {lineno}, field z: not a number: {row[0]!r}") from None
            if not math.isfinite(value) or value <= 0:
                raise CsvFormatError(f"{path}: line {lineno}, field z: must be finite and > 0, got {row[0]!r}")
            if row[1].strip() not in ("0", "1"):
                raise CsvFormatError(f"{path}: line {lineno}, field delta: must be 0 or 1, got {row[1]!r}")
            yield value, int(row[1])

    # straight into one record array, not two lists of Python objects; each field is copied out contiguous
    rows = np.fromiter(observations(), dtype=[("z", np.float64), ("delta", np.int64)])
    return rows["z"].copy(), rows["delta"].copy()


def write_censored_csv(path_or_file, z, delta) -> None:
    """Write (z, delta) as a ``z,delta`` file; round-trips exactly."""

    def _write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CENSORED_HEADER)
        writer.writerows([repr(float(zi)), int(di)] for zi, di in zip(z, delta))

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
            _write(fh)


def read_raw_records(path) -> list[tuple[dt.date, dt.date, str]]:
    """Read a ``start,end,status`` file of ISO dates and D/A status flags."""
    records: list[tuple[dt.date, dt.date, str]] = []
    for lineno, row in _data_rows(path, RAW_HEADER):
        dates = []
        for field, cell in zip(("start", "end"), row[:2]):
            try:
                dates.append(dt.date.fromisoformat(cell.strip()))
            except ValueError:
                raise CsvFormatError(f"{path}: line {lineno}, field {field}: not an ISO date: {cell!r}") from None
        status = row[2].strip()
        if status not in ("D", "A"):
            raise CsvFormatError(f"{path}: line {lineno}, field status: must be D or A, got {row[2]!r}")
        if dates[1] < dates[0]:
            raise CsvFormatError(f"{path}: line {lineno}: end date precedes start date")
        records.append((dates[0], dates[1], status))
    return records


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
