"""Each input rule has one home in the library; the other entry points reuse it.

The library raises ValueError with the rule's message; the CLI turns the same
message into a usage error (exit 2).
"""

import dataclasses
import datetime as dt
import json
import numbers
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from tailcens import (
    Burr,
    CsvFormatError,
    Frechet,
    LogGamma,
    McConfig,
    ModelSpecError,
    Pareto,
    asymptotic_ci,
    censor,
    cvm_stat,
    default_k_grid,
    delta_curve,
    estimate_report,
    generate_censored,
    gof_pvalue,
    ks_stat,
    parse_model,
    read_censored_csv,
    read_raw_records,
    reiss_thomas_k,
    run_variance_check,
    sort_censored,
    stream,
    sweep,
    weighted_functional,
    write_censored_csv,
)
from tailcens.cli import build_parser, main
from tailcens.estimators import ESTIMATOR_IDS, _check_count, _check_fit, _check_level, _checked_id, attached_ci
from tailcens.parallel import _check_workers
from tailcens.rules import _check_flag, _number
from tailcens.selection import _check_theta


def _message(check, value) -> str:
    with pytest.raises(ValueError) as exc:
        check(value)
    return str(exc.value)


@pytest.fixture
def sample():
    z, d = generate_censored(Pareto(1.0), Pareto(1.0), 60, stream(8))
    return sort_censored(z, d)


class TestSweepThresholds:
    @pytest.mark.parametrize("estimator_id", ESTIMATOR_IDS)
    @pytest.mark.parametrize("ks", [[2.7], [True], np.array([2.0]), [3, 4.5], np.array([True, False]), [5, True]])
    def test_non_integer_thresholds_raise(self, sample, estimator_id, ks):
        with pytest.raises(ValueError, match="k must be an integer in"):
            sweep(sample, estimator_id, ks)

    @pytest.mark.parametrize(
        "ks", [[2**70], [5, 2**63], np.array([2**64], dtype=object), np.array([2**63 + 1], dtype=np.uint64)]
    )
    def test_thresholds_beyond_int64_raise(self, sample, ks):
        # an integer the int64 path cannot hold is refused, not wrapped or left to overflow
        with pytest.raises(ValueError, match="k must be an integer in"):
            sweep(sample, "hill", ks)

    def test_message_names_the_first_bad_threshold(self, sample):
        with pytest.raises(ValueError, match=r"k must be an integer in \[2, 59\], got 2\.7"):
            sweep(sample, "new", [2.7, 3.0])

    @pytest.mark.parametrize("ks", [[], np.array([]), np.array([], dtype=np.int32)])
    def test_empty_grid_keeps_shape(self, sample, ks):
        assert sweep(sample, "hill", ks).shape == (0,)

    def test_integer_dtypes_and_out_of_range(self, sample):
        expected = sweep(sample, "hill", [0, 1, 5, 59, 60])
        assert np.isnan(expected[[0, 4]]).all() and not np.isnan(expected[1:4]).any()
        for dtype in (np.int32, np.uint16, np.int64):
            got = sweep(sample, "hill", np.array([0, 1, 5, 59, 60], dtype=dtype))
            assert np.array_equal(got, expected, equal_nan=True)


def small_config(**overrides):
    base = dict(
        model_x=Pareto(1.0), model_y=Pareto(1.0), n=80, reps=2,
        k_grid=(5, 10), estimators=("hill", "new"), seed=3,
    )
    base.update(overrides)
    return McConfig(**base)


class TestMcConfig:
    @pytest.mark.parametrize("grid", [(5.5,), (True, 5), (5, 10.0), (0,), (80,)])
    def test_grid_uses_the_k_rule(self, grid):
        with pytest.raises(ValueError, match=r"k must be an integer in \[1, 79\]"):
            small_config(k_grid=grid)

    def test_numpy_integer_grid_accepted(self):
        assert small_config(k_grid=(np.int64(5), 79)).k_grid == (5, 79)

    @pytest.mark.parametrize("field", ["k_grid", "estimators"])
    def test_empty_field_is_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must not be empty$"):
            small_config(**{field: ()})

    def test_estimator_uses_the_id_rule(self):
        with pytest.raises(ValueError) as exc:
            small_config(estimators=("hill", "moment"))
        assert str(exc.value) == _message(_checked_id, "moment")


class TestReissThomas:
    @pytest.mark.parametrize(
        "kwargs,pattern",
        [
            ({"k_min": 2.5}, r"k_min must be an integer in \[2, 58\], got 2\.5"),
            ({"k_min": True}, r"k_min must be an integer"),
            ({"k_max": 30.0}, r"k_max must be an integer in \[3, 59\], got 30\.0"),
            ({"k_min": 10, "k_max": 10}, r"k_max must be an integer in \[11, 59\], got 10"),
            ({"theta": True}, r"theta must be a number in \[0, 0\.5\]"),
            ({"theta": "0.3"}, r"theta must be a number in \[0, 0\.5\]"),
            ({"theta": float("nan")}, r"theta must be a number in \[0, 0\.5\]"),
        ],
    )
    def test_rules(self, sample, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            reiss_thomas_k(sample, "hill", **kwargs)

    def test_numpy_integer_bounds_accepted(self, sample):
        sel = reiss_thomas_k(sample, "hill", k_min=np.int64(3), k_max=np.int64(40))
        assert sel.k_grid[0] == 3 and sel.k_grid[-1] == 40


class TestNumberRule:
    @pytest.mark.parametrize("value", [0.25, 0, np.float64(0.25), np.int64(0), Fraction(1, 4)])
    def test_numbers(self, value):
        assert _number(value) == _check_theta(value) == value and type(_check_theta(value)) is float

    @pytest.mark.parametrize("value", [True, np.bool_(False), Decimal("0.25"), "0.25", None])
    def test_not_numbers(self, value):
        assert np.isnan(_number(value))
        with pytest.raises(ValueError, match="theta must be a number"):
            _check_theta(value)


class TestAsymptoticCi:
    @pytest.mark.parametrize("level", [0.0, 1.0, float("nan"), "0.9", True])
    def test_level_rule(self, level):
        with pytest.raises(ValueError, match=r"level must be a number in \(0, 1\)"):
            asymptotic_ci(0.5, 0.5, 10, level)

    @pytest.mark.parametrize("level", [0.0, 1.5, float("nan"), "x", True])
    @pytest.mark.parametrize("estimator_id", ESTIMATOR_IDS)
    def test_attached_level_rule_whatever_the_estimator(self, sample, level, estimator_id):
        # the rule applies before it is decided whether an interval applies at all
        with pytest.raises(ValueError, match=r"level must be a number in \(0, 1\)"):
            estimate_report(sample, 10, estimator_id, ci_level=level)
        with pytest.raises(ValueError, match=r"level must be a number in \(0, 1\)"):
            attached_ci("new", 0.5, 0.0, 10, level)  # p_hat = 0: no interval, but the level is still checked

    def test_no_level_no_interval(self, sample):
        assert attached_ci("new", 0.5, 0.5, 10, None) is None
        assert estimate_report(sample, 10, "hill").ci is None

    @pytest.mark.parametrize("k", [0, 2.5, True])
    def test_k_rule(self, k):
        with pytest.raises(ValueError, match="k must be an integer in"):
            asymptotic_ci(0.5, 0.5, k, 0.9)


class TestCurveDomain:
    def test_nan_rejected(self, tiny5):
        curve = delta_curve(tiny5, 3)
        for x in (np.nan, [2.0, np.nan]):
            with pytest.raises(ValueError, match="x >= 1"):
                curve(x)


def _reference_curve(s, k):
    # the curve built by sorting the atoms and grouping equal positions
    n = s.n
    m = np.arange(1, k)
    weights = (m / (s.top_delta_prefix[: k - 1] + m / k)) / k
    positions = s.z[n - 1 - m] / s.z[n - k - 1]
    keep = positions > 1.0
    positions, weights = positions[keep], weights[keep]
    order = np.argsort(positions)
    positions, weights = positions[order], weights[order]
    if not positions.size:
        return np.empty(0), np.zeros(1)
    breakpoints, starts = np.unique(positions, return_index=True)
    grouped = np.add.reduceat(weights, starts)
    return breakpoints, np.concatenate([np.cumsum(grouped[::-1])[::-1], [0.0]])


class TestDeltaCurveGrouping:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_on_tie_free_samples(self, sample_factory, seed):
        s = sample_factory(seed)
        for k in (2, 3, s.n // 3, s.n - 1):
            curve = delta_curve(s, k)
            breakpoints, levels = _reference_curve(s, k)
            assert np.array_equal(curve.breakpoints, breakpoints)
            assert np.array_equal(curve.levels, levels)

    def test_tie_heavy_days(self):
        rng = stream(12)
        z = rng.integers(1, 40, size=500).astype(float)
        s = sort_censored(z, (rng.random(500) < 0.6).astype(np.int64))
        for k in (2, 10, 100, 250, 499):
            curve = delta_curve(s, k)
            breakpoints, levels = _reference_curve(s, k)
            assert np.array_equal(curve.breakpoints, breakpoints)
            np.testing.assert_allclose(curve.levels, levels, rtol=1e-13, atol=0)

    def test_all_atoms_tied_with_threshold(self):
        s = sort_censored([1.0, 3.0, 3.0, 3.0], [1, 1, 0, 1])
        curve = delta_curve(s, 2)
        assert curve.breakpoints.size == 0 and curve.levels.tolist() == [0.0]


@pytest.fixture
def tiny5_csv(tmp_path):
    path = tmp_path / "tiny5.csv"
    write_censored_csv(path, [1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 1])
    return path


_CLI_RULES = [
    # (command and its other flags, flag, text given, library rule, value the rule sees)
    (["estimate", "--k", "auto"], "--theta", "0.9", _check_theta, 0.9),
    (["estimate", "--k", "auto"], "--theta", "-0.1", _check_theta, -0.1),
    (["select-k"], "--theta", "nan", _check_theta, float("nan")),
    (["select-k"], "--theta", "abc", _check_theta, "abc"),
    (["estimate", "--k", "3"], "--ci", "1.5", _check_level, 1.5),
    (["estimate", "--k", "3"], "--ci", "0", _check_level, 0.0),
    (["estimate", "--k", "3"], "--ci", "high", _check_level, "high"),
    (["estimate", "--k", "3"], "--estimator", "moment", _checked_id, "moment"),
    (["estimate", "--k", "3"], "--estimator", "new,Hill", _checked_id, "Hill"),
    (["estimate", "--k", "3"], "--estimator", "new,,efg,", _checked_id, ""),
    (["select-k"], "--estimator", "moment", _checked_id, "moment"),
    (["gof", "--k", "3", "--reps", "100"], "--workers", "-5", _check_workers, -5),
    (["gof", "--k", "3", "--reps", "100"], "--workers", "1.5", _check_workers, "1.5"),
    (["gof", "--k", "3", "--reps", "100"], "--workers", "two", _check_workers, "two"),
]

_SIMULATE = ["simulate", "--model", "pareto:1", "--censor", "pareto:1", "--n", "50", "--reps", "2"]


class TestCliSharesLibraryRules:
    @pytest.mark.parametrize("head,flag,text,check,value", _CLI_RULES)
    def test_stderr_carries_the_library_message(self, tiny5_csv, capsys, head, flag, text, check, value):
        with pytest.raises(SystemExit) as exc:
            main(head[:1] + ["--input", str(tiny5_csv)] + head[1:] + [flag, text])
        assert exc.value.code == 2
        assert _message(check, value) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,text,check,value",
        [
            ("--estimators", "new,moment", _checked_id, "moment"),
            ("--estimators", "new,", _checked_id, ""),
            ("--workers", "0", _check_workers, 0),
            ("--workers", "1.5", _check_workers, "1.5"),
        ],
    )
    def test_simulate(self, capsys, flag, text, check, value):
        with pytest.raises(SystemExit) as exc:
            main(_SIMULATE + [flag, text])
        assert exc.value.code == 2
        assert _message(check, value) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "0"],
            ["--k", "2.5"],
            ["--estimator", ","],
        ],
    )
    def test_other_estimate_usage_errors(self, tiny5_csv, argv):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(tiny5_csv)] + argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("grid", ["0,5", "5,x", "5,,10", ""])
    def test_k_grid_usage_errors(self, capsys, grid):
        with pytest.raises(SystemExit) as exc:
            main(_SIMULATE + ["--k-grid", grid])
        assert exc.value.code == 2
        assert "k must be an integer in [1, inf]" in capsys.readouterr().err

    def test_k_grid_repeat_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_SIMULATE + ["--k-grid", "5,5"])
        assert exc.value.code == 2
        assert "k_grid must hold distinct values, got (5, 5)" in capsys.readouterr().err

    def test_select_k_estimator_is_checked(self, tiny5_csv, capsys):
        assert main(["select-k", "--input", str(tiny5_csv), "--estimator", "hill"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",hill")


class TestCsvRows:
    """Both readers share the header, blank-row, field-count and no-data rules."""

    CASES = [
        # reader, header, good row, row with a wrong field count, (expected, got) fields, rows read
        (read_censored_csv, "z,delta\n", "1.5,1\n", "1.5,1,0\n", (2, 3), lambda out: out[0].size),
        (read_raw_records, "start,end,status\n", "1990-01-01,1990-01-02,D\n", "1990-01-01,1990-01-02\n", (3, 2), len),
    ]

    @pytest.mark.parametrize("read,header,good,bad,fields,rows", CASES)
    def test_blank_rows_skipped(self, tmp_path, read, header, good, bad, fields, rows):
        path = tmp_path / "f.csv"
        path.write_text(header + "\n" + good + "\n\n" + good)
        assert rows(read(path)) == 2

    @pytest.mark.parametrize("read,header,good,bad,fields,rows", CASES)
    def test_field_count_names_line(self, tmp_path, read, header, good, bad, fields, rows):
        path = tmp_path / "f.csv"
        path.write_text(header + good + "\n" + bad)
        with pytest.raises(CsvFormatError, match=rf"line 4: expected {fields[0]} fields, got {fields[1]}"):
            read(path)

    @pytest.mark.parametrize("read,header", [case[:2] for case in CASES])
    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_no_data_rows(self, tmp_path, read, header, body):
        path = tmp_path / "f.csv"
        path.write_text(header + body)
        with pytest.raises(CsvFormatError, match="no data rows"):
            read(path)

    @pytest.mark.parametrize("read", [case[0] for case in CASES])
    @pytest.mark.parametrize("text", ["", "z;delta\n1.5;1\n"])
    def test_header_checked(self, tmp_path, read, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match="expected header"):
            read(path)

    def test_raw_values(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("start,end,status\n 1990-01-01 ,1990-01-02, A \n")
        assert read_raw_records(path) == [(dt.date(1990, 1, 1), dt.date(1990, 1, 2), "A")]


def _count_rule(lo, name):
    return lambda value: _check_count(value, lo, name)


class TestCountRule:
    """Counts of replicates and sample sizes are integers with a lower end, like k."""

    def test_message(self):
        assert _message(_count_rule(100, "reps"), 100.5) == "reps must be an integer in [100, inf], got 100.5"

    @pytest.mark.parametrize(
        "field,value,lo",
        [("reps", 2.5, 1), ("reps", True, 1), ("reps", 0, 1), ("reps", "3", 1), ("n", 50.5, 3), ("n", True, 3), ("n", 2, 3)],
    )
    def test_mc_config(self, field, value, lo):
        with pytest.raises(ValueError) as exc:
            small_config(**{field: value})
        assert str(exc.value) == _message(_count_rule(lo, field), value)

    @pytest.mark.parametrize("n", [20.5, True, 2, "20"])
    def test_default_k_grid(self, n):
        with pytest.raises(ValueError) as exc:
            default_k_grid(n)
        assert str(exc.value) == _message(_count_rule(3, "n"), n)

    def test_default_k_grid_without_room(self):
        with pytest.raises(ValueError, match="sample size 9 leaves no room for the default grid"):
            default_k_grid(9)
        assert default_k_grid(np.int64(10)) == (5,)

    def test_mc_config_numpy_integers_accepted(self):
        cfg = small_config(n=np.int64(80), reps=np.int32(2))
        assert cfg.n == 80 and cfg.reps == 2

    @pytest.mark.parametrize("reps", [100.5, 99, True, 1e3])
    def test_gof_reps(self, sample, reps):
        with pytest.raises(ValueError) as exc:
            gof_pvalue(sample, 10, reps=reps, seed=0)
        assert str(exc.value) == _message(_count_rule(100, "reps"), reps)

    @pytest.mark.parametrize("k", [1, 60, 2.5, True])
    def test_gof_k(self, sample, k):
        with pytest.raises(ValueError, match=r"k must be an integer in \[2, 59\]"):
            gof_pvalue(sample, k, reps=100, seed=0)

    @pytest.mark.parametrize("reps", [1, 2.5, True])
    def test_variance_check_reps(self, reps):
        with pytest.raises(ValueError) as exc:
            run_variance_check(Pareto(1.0), Pareto(1.0), n=50, k=5, reps=reps, seed=0)
        assert str(exc.value) == _message(_count_rule(2, "reps"), reps)


_CLI_COUNTS = [
    # (command and its other flags, flag, text given, lower end, name, value the rule sees)
    (["gof", "--k", "3"], "--reps", "100.5", 100, "reps", "100.5"),
    (["gof", "--k", "3"], "--reps", "99", 100, "reps", 99),
    (["gof", "--reps", "100"], "--k", "1", 2, "k", 1),
    (["gof", "--reps", "100"], "--k", "x", 2, "k", "x"),
    (["select-k"], "--k-min", "1", 2, "k_min", 1),
    (["select-k"], "--k-min", "2.5", 2, "k_min", "2.5"),
    (["select-k"], "--k-max", "2", 3, "k_max", 2),
]


class TestCliCounts:
    @pytest.mark.parametrize("head,flag,text,lo,name,value", _CLI_COUNTS)
    def test_sample_commands(self, tiny5_csv, capsys, head, flag, text, lo, name, value):
        with pytest.raises(SystemExit) as exc:
            main(head[:1] + ["--input", str(tiny5_csv)] + head[1:] + [flag, text])
        assert exc.value.code == 2
        assert _message(_count_rule(lo, name), value) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,text,lo,name,value",
        [("--n", "2", 3, "n", 2), ("--n", "50.5", 3, "n", "50.5"), ("--reps", "0", 1, "reps", 0), ("--reps", "1.5", 1, "reps", "1.5")],
    )
    def test_simulate(self, capsys, flag, text, lo, name, value):
        with pytest.raises(SystemExit) as exc:
            main(_SIMULATE + [flag, text])
        assert exc.value.code == 2
        assert _message(_count_rule(lo, name), value) in capsys.readouterr().err


_NUMBER_FLAGS = [
    # (command and its other flags, flag, form of its value, a valid text, integer flag, library rule)
    (["estimate", "--input", "in.csv"], "--k", "{}", "3", True, _count_rule(1, "k")),
    (["estimate", "--input", "in.csv"], "--theta", "{}", "0.3", False, _check_theta),
    (["estimate", "--input", "in.csv"], "--ci", "{}", "0.9", False, _check_level),
    (["select-k", "--input", "in.csv"], "--theta", "{}", "0.3", False, _check_theta),
    (["select-k", "--input", "in.csv"], "--k-min", "{}", "5", True, _count_rule(2, "k_min")),
    (["select-k", "--input", "in.csv"], "--k-max", "{}", "5", True, _count_rule(3, "k_max")),
    (["gof", "--input", "in.csv", "--k", "3"], "--k", "{}", "5", True, _count_rule(2, "k")),
    (["gof", "--input", "in.csv", "--k", "3"], "--reps", "{}", "200", True, _count_rule(100, "reps")),
    (["gof", "--input", "in.csv", "--k", "3"], "--seed", "{}", "5", True, _count_rule(0, "seed")),
    (["gof", "--input", "in.csv", "--k", "3"], "--workers", "{}", "2", True, _check_workers),
    (_SIMULATE, "--n", "{}", "60", True, _count_rule(3, "n")),
    (_SIMULATE, "--reps", "{}", "5", True, _count_rule(1, "reps")),
    (_SIMULATE, "--seed", "{}", "5", True, _count_rule(0, "seed")),
    (_SIMULATE, "--workers", "{}", "2", True, _check_workers),
    (_SIMULATE, "--k-grid", "3,{}", "5", True, _count_rule(1, "k")),  # an item after a valid one
]
_FLAG_IDS = [f"{head[0]}{flag}" for head, flag, *_ in _NUMBER_FLAGS]
_NOT_NUMBERS = ["1_0", "\uff12", "\u0663", "\u00a05"]  # underscore, full-width 2, Arabic-Indic 3, no-break space


def _parsed_flag(head, flag, form, text):
    return getattr(build_parser().parse_args(head + [flag, form.format(text)]), flag[2:].replace("-", "_"))


class TestTextNumbers:
    """Which text is a number is one rule (``rules._from_text``): ASCII that the builtin int or float reads, no ``_``.

    A text it rejects reaches the site's own rule or message as the text itself.
    """

    @pytest.mark.parametrize("text", _NOT_NUMBERS)
    @pytest.mark.parametrize("head,flag,form,valid,integer,check", _NUMBER_FLAGS, ids=_FLAG_IDS)
    def test_flag_rejects(self, capsys, head, flag, form, valid, integer, check, text):
        with pytest.raises(SystemExit) as exc:
            main(head + [flag, form.format(text)])
        assert exc.value.code == 2
        assert f"argument {flag}: {_message(check, text)}" in capsys.readouterr().err

    @pytest.mark.parametrize("head,flag,form,valid,integer,check", _NUMBER_FLAGS, ids=_FLAG_IDS)
    def test_flag_reads_ascii_as_the_builtin_does(self, capsys, head, flag, form, valid, integer, check):
        want = _parsed_flag(head, flag, form, valid)
        assert _parsed_flag(head, flag, form, f" {valid} ") == _parsed_flag(head, flag, form, f"+{valid}") == want
        for text in ["inf", "nan"] + (["1e1", "5.0"] if integer else []):
            with pytest.raises(SystemExit):
                _parsed_flag(head, flag, form, text)
            seen = text if integer else float(text)  # int() reads none of them, float() all
            assert f"argument {flag}: {_message(check, seen)}" in capsys.readouterr().err
        if not integer:
            assert _parsed_flag(head, flag, form, "3e-1") == 0.3

    @staticmethod
    def _csv(tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(f"z,delta\n1,1\n{text},1\n2,0\n3,1\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("text", _NOT_NUMBERS)
    def test_z_cell_rejects(self, tmp_path, capsys, text):
        assert main(["estimate", "--input", str(self._csv(tmp_path, text)), "--k", "2"]) == 1
        assert f"line 3, field z: not a number: {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("text,z", [(" 5 ", 5.0), ("+5", 5.0), ("3e-1", 0.3), ("1e1", 10.0), ("5.0", 5.0)])
    def test_z_cell_reads_ascii_as_float_does(self, tmp_path, text, z):
        assert read_censored_csv(self._csv(tmp_path, text))[0].tolist() == [1.0, z, 2.0, 3.0]

    @pytest.mark.parametrize("text", ["inf", "nan"])
    def test_z_cell_range(self, tmp_path, text):
        with pytest.raises(CsvFormatError, match=f"line 3, field z: must be finite and > 0, got '{text}'$"):
            read_censored_csv(self._csv(tmp_path, text))

    @staticmethod
    def _delta_csv(tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(f"z,delta\n1,1\n2,{text}\n", encoding="utf-8")
        return path

    # em space, no-break space, a separator str.strip() takes, full-width 1, Arabic-Indic 0, a sign, a leading 0
    @pytest.mark.parametrize("text", ["\u20031", "\u00a01", "\x1c1", "\uff11", "\u0660", "+1", "01"])
    def test_delta_cell_rejects(self, tmp_path, text):
        with pytest.raises(CsvFormatError, match=re.escape(f"line 3, field delta: must be 0 or 1, got {text!r}") + "$"):
            read_censored_csv(self._delta_csv(tmp_path, text))

    @pytest.mark.parametrize("text,delta", [(" 1 ", 1), ("\t0", 0)])
    def test_delta_cell_strips_ascii_whitespace(self, tmp_path, text, delta):
        assert read_censored_csv(self._delta_csv(tmp_path, text))[1].tolist() == [1, delta]

    @pytest.mark.parametrize("text", _NOT_NUMBERS)
    def test_model_field_rejects(self, text):
        with pytest.raises(ModelSpecError) as exc:
            parse_model(f"burr:1,{text},2")
        assert str(exc.value) == f"model 'burr' field 'tau': {text!r} is not a number"

    @pytest.mark.parametrize("text,gamma", [(" 5 ", 5.0), ("+5", 5.0), ("3e-1", 0.3), ("1e1", 10.0)])
    def test_model_field_reads_ascii_as_float_does(self, text, gamma):
        assert parse_model(f"pareto:{text}") == Pareto(gamma)

    @pytest.mark.parametrize("text", ["inf", "nan"])
    def test_model_field_range(self, text):
        with pytest.raises(ModelSpecError, match=f"parameter gamma must be a finite positive number, got {text}$"):
            parse_model(f"pareto:{text}")


class TestFittedTailRule:
    """asymptotic_ci and the fit statistics share one rule for (gamma, p)."""

    BAD = [(0.5, "0.5"), ("0.5", 0.5), (True, 0.5), (0.5, True), (0.5, 1.5), (0.5, 0.0), (0.0, 0.5),
           (-0.2, 0.5), (float("nan"), 0.5), (0.5, float("nan")), (None, 0.5), (float("inf"), 0.5)]

    def test_message(self):
        assert _message(lambda v: _check_fit(*v), (0.5, 1.5)) == (
            "a fitted tail needs numbers gamma finite and > 0, p in (0, 1], got gamma=0.5, p=1.5"
        )

    @pytest.mark.parametrize("gamma,p", BAD)
    def test_asymptotic_ci(self, gamma, p):
        with pytest.raises(ValueError) as exc:
            asymptotic_ci(gamma, p, 10, 0.9)
        assert str(exc.value) == _message(lambda v: _check_fit(*v), (gamma, p))

    @pytest.mark.parametrize("stat", [ks_stat, cvm_stat])
    @pytest.mark.parametrize("gamma,p", BAD)
    def test_fit_statistics(self, sample, stat, gamma, p):
        with pytest.raises(ValueError) as exc:
            stat(sample, 40, gamma, p)
        assert str(exc.value) == _message(lambda v: _check_fit(*v), (gamma, p))

    @pytest.mark.parametrize("gamma,p", [(0.5, 1.0), (np.float64(0.5), np.float64(0.3)), (2, 1)])
    def test_accepted(self, sample, gamma, p):
        assert asymptotic_ci(gamma, p, 10, 0.9)[0] > 0
        assert ks_stat(sample, 40, gamma, p) >= 0 and cvm_stat(sample, 40, gamma, p) >= 0


class TestSampleCounts:
    """Sizes reaching the models' sample, generate_censored and the replicate engine follow the count rule."""

    @pytest.mark.parametrize("model", [Pareto(1.0), LogGamma(2.0, 0.7)])
    @pytest.mark.parametrize("count", [2.5, True, 0, np.float64(3.0)])
    def test_model_sample(self, model, count):
        with pytest.raises(ValueError) as exc:
            model.sample(count, stream(0))
        assert str(exc.value) == _message(_count_rule(1, "count"), count)

    @pytest.mark.parametrize("n", [2.5, True, 0])
    def test_generate_censored(self, n):
        with pytest.raises(ValueError) as exc:
            generate_censored(Pareto(1.0), Pareto(1.0), n, stream(0))
        assert str(exc.value) == _message(_count_rule(1, "n"), n)

    def test_variance_check_n(self):
        with pytest.raises(ValueError) as exc:
            run_variance_check(Pareto(1.0), Pareto(1.0), n=50.5, k=5, reps=2, seed=0)
        assert str(exc.value) == _message(_count_rule(1, "n"), 50.5)

    def test_numpy_integers_accepted(self):
        assert Pareto(1.0).sample(np.int64(3), stream(0)).shape == (3,)
        assert LogGamma(2.0, 0.7).sample(np.int32(3), stream(0)).shape == (3,)
        assert generate_censored(Pareto(1.0), Pareto(1.0), np.int64(4), stream(0))[0].shape == (4,)


class TestWeightedFunctionalAlpha:
    """With g = None the normalizer Gamma(alpha + 1) must be finite."""

    @pytest.mark.parametrize("alpha", [170.625, 200.0, 1e6])
    def test_overflowing_normalizer_rejected(self, sample, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 170\.624\], where Gamma\(alpha \+ 1\) is finite"):
            weighted_functional(sample, 40, alpha=alpha)

    def test_upper_end_accepted(self, sample):
        assert np.isfinite(weighted_functional(sample, 40, alpha=170.624))


class TestFlagRule:
    """``complete_data`` is a bool wherever it enters, with one message."""

    @pytest.mark.parametrize("flag", ["no", "", 1, 0, None, np.True_])
    def test_mc_config_and_variance_check(self, flag):
        want = _message(lambda v: _check_flag(v, "complete_data"), flag)
        assert want == f"complete_data must be a bool, got {flag!r}"
        assert _message(lambda v: small_config(complete_data=v), flag) == want
        assert _message(lambda v: run_variance_check(Pareto(1.0), Pareto(1.0), 50, 5, 3, 0, complete_data=v), flag) == want


class TestInfiniteAlpha:
    """Gamma(inf) is inf without an OverflowError; the overflow rule still applies."""

    def test_rejected(self, sample):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 170\.624\], where Gamma\(alpha \+ 1\) is finite"):
            weighted_functional(sample, 10, alpha=float("inf"))


# The rule matrix: odd values crossed with the entry points, each value made from the entry's valid base value.
# Every pair either raises the entry's rule error, or returns builtin-typed results bit-equal to the results for
# the equal Python int or float: the rule hands back what it accepts, so no float32, Fraction or numpy scalar
# reaches a kernel.
_VALUES = {
    "float32": np.float32,
    "int64": np.int64,
    "fraction": Fraction,
    "int_2**70": lambda base: 2**70,
    "int_2**2000": lambda base: 2**2000,
    "string": str,
    "bool": lambda base: True,
    "numpy_bool": lambda base: np.bool_(True),
    "array_0d": np.array,
    "nan": lambda base: float("nan"),
    "inf": lambda base: float("inf"),
    "-inf": lambda base: -float("inf"),
}


def _scalar_equal(value):
    """The Python int or float equal to a number; None for a string, a bool or an array."""
    if isinstance(value, (bool, np.bool_, str, np.ndarray)):
        return None
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def _array_equal(value):
    """The Python float equal to a value numpy holds as numbers (not bools); None otherwise."""
    arr = np.asarray(value)
    return float(arr) if arr.dtype.kind in "iuf" else None


def _model(cls, at, value):
    params = [2.0] * len(dataclasses.fields(cls))
    params[at] = value
    model = cls(*params)
    with np.errstate(over="ignore"):  # 2**70 as an index overflows the draw, the same for the equal float
        return model, model.true_evi, model.sample(3, stream(0))


_FIT = r"a fitted tail needs numbers"
_MODELS = [(cls, at, name) for cls in (Burr, Frechet, LogGamma, Pareto)
           for at, name in enumerate(f.name for f in dataclasses.fields(cls))]

# (entry point and argument, call(sample, value), base value, rule pattern, equal value, runs a work size)
_ENTRIES = [
    ("asymptotic_ci-gamma", lambda s, v: asymptotic_ci(v, 0.5, 10), 0.5, _FIT, _scalar_equal, False),
    ("asymptotic_ci-p", lambda s, v: asymptotic_ci(0.5, v, 10), 0.5, _FIT, _scalar_equal, False),
    ("asymptotic_ci-k", lambda s, v: asymptotic_ci(0.5, 0.5, v), 10, r"k must be an integer in \[1, inf\]",
     _scalar_equal, False),
    ("asymptotic_ci-level", lambda s, v: asymptotic_ci(0.5, 0.5, 10, v), 0.9, r"level must be a number in \(0, 1\)",
     _scalar_equal, False),
    ("attached_ci-value", lambda s, v: attached_ci("new", v, 0.5, 10, 0.9), 0.5, _FIT, _scalar_equal, False),
    ("attached_ci-level", lambda s, v: attached_ci("new", 0.5, 0.5, 10, v), 0.9, r"level must be a number in \(0, 1\)",
     _scalar_equal, False),
    ("ks_stat-gamma", lambda s, v: ks_stat(s, 10, v, 0.5), 0.3, _FIT, _scalar_equal, False),
    ("ks_stat-p", lambda s, v: ks_stat(s, 10, 0.3, v), 0.5, _FIT, _scalar_equal, False),
    ("cvm_stat-gamma", lambda s, v: cvm_stat(s, 10, v, 0.5), 0.3, _FIT, _scalar_equal, False),
    ("cvm_stat-p", lambda s, v: cvm_stat(s, 10, 0.3, v), 0.5, _FIT, _scalar_equal, False),
    ("reiss_thomas_k-theta", lambda s, v: reiss_thomas_k(s, "hill", theta=v), 0.25,
     r"theta must be a number in \[0, 0\.5\]", _scalar_equal, False),
    ("reiss_thomas_k-k_min", lambda s, v: reiss_thomas_k(s, "hill", k_min=v), 3,
     r"k_min must be an integer in \[2, 58\]", _scalar_equal, False),
    ("reiss_thomas_k-k_max", lambda s, v: reiss_thomas_k(s, "hill", k_max=v), 40,
     r"k_max must be an integer in \[3, 59\]", _scalar_equal, False),
    ("weighted_functional-alpha", lambda s, v: weighted_functional(s, 10, alpha=v), 2.0, r"alpha must (be a|lie in)",
     _scalar_equal, False),
    ("gof_pvalue-reps", lambda s, v: gof_pvalue(s, 10, reps=v, seed=3), 100, r"reps must be an integer in \[100, inf\]",
     _scalar_equal, True),
    ("gof_pvalue-seed", lambda s, v: gof_pvalue(s, 10, reps=100, seed=v), 3, r"seed must be an integer in \[0, inf\]",
     _scalar_equal, False),
    ("gof_pvalue-workers", lambda s, v: gof_pvalue(s, 10, reps=100, seed=3, workers=v), 1,
     r"workers must be an integer >= 1", _scalar_equal, False),
    ("run_variance_check-n", lambda s, v: run_variance_check(Pareto(1.0), Pareto(1.0), v, 5, 3, 0), 50,
     r"n must be an integer in \[1, inf\]", _scalar_equal, True),
    ("run_variance_check-k", lambda s, v: run_variance_check(Pareto(1.0), Pareto(1.0), 50, v, 3, 0), 5,
     r"k must be an integer in \[2, 49\]", _scalar_equal, False),
    ("run_variance_check-reps", lambda s, v: run_variance_check(Pareto(1.0), Pareto(1.0), 50, 5, v, 0), 3,
     r"reps must be an integer in \[2, inf\]", _scalar_equal, True),
    ("run_variance_check-seed", lambda s, v: run_variance_check(Pareto(1.0), Pareto(1.0), 50, 5, 3, v), 0,
     r"seed must be an integer in \[0, inf\]", _scalar_equal, False),
    ("McConfig-n", lambda s, v: small_config(n=v), 80, r"n must be an integer in \[3, inf\]", _scalar_equal, False),
    ("McConfig-reps", lambda s, v: small_config(reps=v), 2, r"reps must be an integer in \[1, inf\]", _scalar_equal,
     False),
    ("McConfig-seed", lambda s, v: small_config(seed=v), 3, r"seed must be an integer in \[0, inf\]", _scalar_equal,
     False),
    ("McConfig-k_grid", lambda s, v: small_config(k_grid=(5, v)), 10, r"k must be an integer in \[1, 79\]",
     _scalar_equal, False),
    ("stream-seed", lambda s, v: stream(v).random(3), 0, r"seed must be an integer in \[0, inf\]", _scalar_equal,
     False),
    ("stream-key", lambda s, v: stream(0, v).random(3), 1, r"key must be an integer in \[0, inf\]", _scalar_equal,
     False),
    *[(f"{cls.__name__}-{name}", lambda s, v, cls=cls, at=at: _model(cls, at, v), 2.0,
       rf"parameter {name} must be a finite positive number", _scalar_equal, False) for cls, at, name in _MODELS],
    ("cdf", lambda s, v: Pareto(1.0).cdf(v), 2.0, r"cdf argument must (be an array of numbers|be finite)",
     _array_equal, False),
    ("quantile", lambda s, v: Pareto(1.0).quantile(v), 0.5,
     r"quantile argument must (be an array of numbers|lie strictly inside)", _array_equal, False),
    ("curve", lambda s, v: delta_curve(s, 10)(v), 2.0, r"x must be an array of numbers|defined for x >= 1",
     _array_equal, False),
    ("censor-x", lambda s, v: censor([v], [3.0]), 2.0, r"x must be an array of numbers|must hold no NaN", _array_equal,
     False),
    ("censor-y", lambda s, v: censor([3.0], [v]), 2.0, r"y must be an array of numbers|must hold no NaN", _array_equal,
     False),
]


def _bit_equal(got, want) -> bool:
    """Values of the same builtin types, floats by repr (-0.0 and NaN too), arrays bit for bit, field by field."""
    if dataclasses.is_dataclass(want):
        return type(got) is type(want) and all(
            _bit_equal(getattr(got, f.name), getattr(want, f.name)) for f in dataclasses.fields(want))
    if isinstance(want, np.ndarray):
        return type(got) is np.ndarray and got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if isinstance(want, tuple):
        return type(got) is tuple and len(got) == len(want) and all(map(_bit_equal, got, want))
    return type(got) is type(want) and repr(got) == repr(want)


_MATRIX = [pytest.param(call, make(base), pattern, equal, id=f"{entry}-{value}")
           for entry, call, base, pattern, equal, work in _ENTRIES for value, make in _VALUES.items()
           if not (work and value == "int_2**70")]  # 2**70 replicates or values cannot run; McConfig takes them


def _model_rule(name, value):
    return rf"^{name} must be a HeavyTailModel, got {re.escape(repr(value))}$"


# (entry point and argument, call(sample), rule pattern): values the number table cannot build from a base value
_NON_NUMBERS = [
    ("McConfig-model_x", lambda s: small_config(model_x="pareto:1"), _model_rule("model_x", "pareto:1")),
    ("McConfig-model_y", lambda s: small_config(model_y=Pareto), _model_rule("model_y", Pareto)),
    ("McConfig-k_grid_repeat", lambda s: small_config(k_grid=(5, 10, np.int64(5))),
     r"^k_grid must hold distinct values, got \(5, 10, 5\)$"),
    ("run_variance_check-model_x", lambda s: run_variance_check("pareto:1", Pareto(1.0), 50, 5, 3, 0),
     _model_rule("model_x", "pareto:1")),
    ("run_variance_check-model_y", lambda s: run_variance_check(Pareto(1.0), None, 50, 5, 3, 0),
     _model_rule("model_y", None)),
    ("generate_censored-model_x", lambda s: generate_censored(1.0, Pareto(1.0), 5, stream(0)),
     _model_rule("model_x", 1.0)),
    ("generate_censored-rng", lambda s: generate_censored(Pareto(1.0), Pareto(1.0), 5, 0),
     r"^rng must be a Generator, got 0$"),
    ("parse_model-spec", lambda s: parse_model(123), r"^spec must be a str, got 123$"),
    ("weighted_functional-g_bool", lambda s: weighted_functional(s, 10, g=lambda x: True),
     r"^g's values must be a 1-D array of numbers, got a 1-D array of bool$"),
    ("weighted_functional-g_string", lambda s: weighted_functional(s, 10, g=lambda x: "1"),
     r"^g's values must be a 1-D array of numbers, got a 1-D array of <U1$"),
    ("weighted_functional-g_array", lambda s: weighted_functional(s, 10, g=lambda x: np.ones(2)),
     r"^g's values must be a 1-D array of numbers, got a 2-D array of float64$"),
]


class TestRuleMatrix:
    @pytest.mark.parametrize("call,pattern", [pytest.param(c, p, id=entry) for entry, c, p in _NON_NUMBERS])
    def test_non_number_rule_error(self, sample, call, pattern):
        with pytest.raises(ValueError, match=pattern):
            call(sample)

    @pytest.mark.parametrize("call,value,pattern,equal", _MATRIX)
    def test_rule_error_or_the_builtin_result(self, sample, call, value, pattern, equal):
        same = equal(value)
        if same is not None:
            try:
                want = call(sample, same)
            except ValueError as exc:  # the equal builtin breaks the rule too
                assert re.search(pattern, str(exc)), str(exc)
                same = None
        if same is None:
            with pytest.raises(ValueError, match=pattern):
                call(sample, value)
        else:
            assert _bit_equal(call(sample, value), want)

    def test_config_is_json_ready(self):
        cfg = small_config(n=np.int64(80), reps=np.int32(2), seed=np.uint8(3), k_grid=[np.int64(5), 10])
        assert json.dumps([cfg.n, cfg.reps, cfg.seed, cfg.k_grid]) == "[80, 2, 3, [5, 10]]"

    def test_gof_seed_checked_on_entry(self):
        s = sort_censored([1.0, 2.0, 3.0, 4.0, 5.0], [1] * 5)  # p_hat = 1: no null to simulate from
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, inf\], got -1$"):
            gof_pvalue(s, 3, reps=100, seed=-1)
