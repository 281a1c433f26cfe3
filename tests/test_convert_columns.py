"""``convert`` parses and writes whole columns: its rules and bytes are those of a row-by-row parse.

``io.read_raw_records`` reads every row, parses each column at once, and,
when a column holds a bad cell, checks the rows one at a time to name the
first bad row by its line, and its first bad field in the order a row is
checked (start, end, status, then the order of the dates).
``io.write_censored_csv`` writes each row with one format call: the bytes
``csv.writer`` wrote for the same values.
"""

import csv
import io as io_module

import numpy as np
import pytest

from tailcens import CsvFormatError, read_raw_records, stream, write_censored_csv
from tailcens.cli import main

GOOD = "1990-01-01,1990-01-11,D"
BAD = {  # row -> the message after "line <n>"
    "1990-13-01,1990-01-02,D": ", field start: not an ISO date: '1990-13-01'",
    "1990-01-01, 1990-02-30,A": ", field end: not an ISO date: ' 1990-02-30'",
    "1990-01-01,1990-01-02, X": ", field status: must be D or A, got ' X'",
    "1990-02-01,1990-01-01,D": ": end date precedes start date",
    "1990-01-01,1990-01-02": ": expected 3 fields, got 2",
    "1990-01-01,1990-01-02,D,1": ": expected 3 fields, got 4",
}


def raw_file(tmp_path, lines, newline="\n"):
    path = tmp_path / "raw.csv"
    path.write_bytes(newline.join(["start,end,status", *lines, ""]).encode())
    return path


@pytest.mark.parametrize("where", ["last_row", "after_a_blank_line"])
@pytest.mark.parametrize("row", BAD)
def test_a_bad_row_names_its_line_and_field(tmp_path, row, where):
    lines = [GOOD] * 5 + ([row] if where == "last_row" else ["", GOOD, "", row, GOOD])
    path = raw_file(tmp_path, lines)
    with pytest.raises(CsvFormatError) as info:
        read_raw_records(path)
    assert str(info.value) == f"{path}: line {lines.index(row) + 2}{BAD[row]}"


def test_the_first_bad_row_is_named_with_its_first_bad_field(tmp_path):
    # the later row has a bad start date, the earlier one a bad status and reversed dates
    path = raw_file(tmp_path, [GOOD, "1990-02-01,1990-01-01,X", "1990-13-01,1990-01-02,D"])
    with pytest.raises(CsvFormatError, match=r"line 3, field status: must be D or A, got 'X'$"):
        read_raw_records(path)


@pytest.mark.parametrize("text,message", [
    ("start,end,status\n", "no data rows"),
    ("start,end,status\n\n", "no data rows"),
    ("", "expected header 'start,end,status', got None"),
    ("start,end\n1990-01-01,1990-01-02\n", "expected header 'start,end,status', got ['start', 'end']"),
])
def test_a_file_without_its_header_or_rows_is_named(tmp_path, text, message):
    path = tmp_path / "raw.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as info:
        read_raw_records(path)
    assert str(info.value) == f"{path}: {message}"


def test_rows_of_three_fields_after_a_blank_line_are_read(tmp_path):
    records = read_raw_records(raw_file(tmp_path, ["", GOOD, "", " 1990-01-01 ,1990-01-01, A "]))
    assert records == read_raw_records(raw_file(tmp_path, [GOOD, " 1990-01-01 ,1990-01-01, A "]))
    assert [(str(a), str(b), s) for a, b, s in records] == [("1990-01-01", "1990-01-11", "D"),
                                                            ("1990-01-01", "1990-01-01", "A")]


@pytest.mark.parametrize("blank", [False, True])  # without a blank line the rows are read at once
def test_a_crlf_file_converts_to_the_same_bytes(tmp_path, blank):
    lines = [GOOD, "1991-03-04,1991-05-06,A"] + [""] * blank + ["1985-12-31,1986-01-01,D"]
    outs = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        (tmp_path / name).mkdir()
        path = raw_file(tmp_path / name, lines, newline)
        assert main(["convert", "--input", str(path), "--out", str(tmp_path / name / "out.csv")]) == 0
        outs.append((tmp_path / name / "out.csv").read_bytes())
    assert outs[0] == outs[1] == b"z,delta\n11.0,1\n64.0,0\n2.0,1\n"


def csv_writer_bytes(z, delta):
    """The bytes of the csv-module writer that write_censored_csv replaced."""
    buf = io_module.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["z", "delta"])
    writer.writerows([repr(float(zi)), int(di)] for zi, di in zip(z, delta))
    return buf.getvalue()


@pytest.mark.parametrize("values", [
    np.array([1e-05, 1e16, 1e-300, 123456789.125, 0.1, 2.0**60, 5e-324]),  # reprs with exponents
    stream(3).random(500) * 10.0 ** stream(4).uniform(-8, 20, 500),  # numpy floats of many magnitudes
    [1e-05, 1e+16, 3.0, 7],  # Python floats and an int
])
def test_written_bytes_are_the_csv_writers(values):
    delta = np.arange(len(values)) % 2 == 0  # numpy bools, written as 0 and 1
    buf = io_module.StringIO()
    write_censored_csv(buf, values, delta)
    assert buf.getvalue() == csv_writer_bytes(values, delta)
    assert "np." not in buf.getvalue()
