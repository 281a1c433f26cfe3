import datetime as dt
import io as io_module

import numpy as np
import pytest

from tailcens import CsvFormatError, derive_survival, read_censored_csv, read_raw_records, stream, write_censored_csv
from tailcens.io import fmt


class TestCensoredCsv:
    def test_read(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("z,delta\n1.5,1\n2.0,0\n")
        z, d = read_censored_csv(path)
        assert z.tolist() == [1.5, 2.0]
        assert d.tolist() == [1, 0]

    def test_contiguous_float64_and_int64(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("z,delta\n1.5,1\n2,0\n\n3e2, 1\n")
        z, d = read_censored_csv(path)
        assert (z.dtype, d.dtype) == (np.float64, np.int64)
        assert z.flags.c_contiguous and d.flags.c_contiguous
        assert z.tolist() == [1.5, 2.0, 300.0] and d.tolist() == [1, 0, 1]

    def test_roundtrip(self, tmp_path):
        rng = stream(21)
        z = rng.random(100) * 1e6 + 1e-4
        d = (rng.random(100) < 0.5).astype(int)
        path = tmp_path / "rt.csv"
        write_censored_csv(path, z, d)
        z2, d2 = read_censored_csv(path)
        assert np.array_equal(z, z2)
        assert np.array_equal(d, d2)

    def test_write_to_file_object(self):
        buf = io_module.StringIO()
        write_censored_csv(buf, [1.25], [1])
        assert buf.getvalue() == "z,delta\n1.25,1\n"

    def test_bad_z_names_line_and_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,delta\nabc,1\n")
        with pytest.raises(CsvFormatError, match=r"line 2, field z"):
            read_censored_csv(path)

    def test_bad_delta(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,delta\n1.0,1\n2.0,2\n")
        with pytest.raises(CsvFormatError, match=r"line 3, field delta"):
            read_censored_csv(path)

    def test_nonpositive_z(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,delta\n0,1\n")
        with pytest.raises(CsvFormatError, match="> 0"):
            read_censored_csv(path)

    def test_exact_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta,z\n1,1.0\n")
        with pytest.raises(CsvFormatError, match="header"):
            read_censored_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("z,delta\n")
        with pytest.raises(CsvFormatError, match="no data"):
            read_censored_csv(path)


class TestRawRecords:
    def test_read_and_derive(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("start,end,status\n1990-01-01,1990-01-11,D\n1990-01-01,1990-01-01,A\n")
        records = read_raw_records(path)
        z, d = derive_survival(records)
        assert z.tolist() == [11.0, 1.0]
        assert d.tolist() == [1, 0]

    def test_reversed_dates_rejected_on_read(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("start,end,status\n1990-02-01,1990-01-01,D\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_raw_records(path)

    def test_bad_date_names_field(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("start,end,status\n1990-13-01,1990-01-02,D\n")
        with pytest.raises(CsvFormatError, match=r"field start"):
            read_raw_records(path)

    def test_bad_status(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("start,end,status\n1990-01-01,1990-01-02,X\n")
        with pytest.raises(CsvFormatError, match=r"field status"):
            read_raw_records(path)

    def test_derive_survival_validation(self):
        with pytest.raises(ValueError, match="precedes"):
            derive_survival([(dt.date(1990, 2, 1), dt.date(1990, 1, 1), "D")])
        with pytest.raises(ValueError, match="status"):
            derive_survival([(dt.date(1990, 1, 1), dt.date(1990, 1, 2), "dead")])

    def test_day_count_oracle(self):
        # calendar day difference plus one
        start, end = dt.date(1990, 1, 1), dt.date(1990, 1, 11)
        assert (end - start).days + 1 == 11
        z, d = derive_survival([(start, end, "D")])
        assert z.tolist() == [11.0] and d.tolist() == [1]


class TestFmt:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.2746530721670274, "0.274653"),
            (1.0, "1"),
            (None, ""),
            (float("nan"), ""),
            (522, "522"),
            (0.0430119444720736, "0.0430119"),
        ],
    )
    def test_six_significant_digits(self, value, expected):
        assert fmt(value) == expected
