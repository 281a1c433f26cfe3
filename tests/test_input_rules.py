"""Each input rule has one home in the library; the other entry points reuse it.

The library raises ValueError with the rule's message; the CLI turns the same
message into a usage error (exit 2).
"""

import datetime as dt
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from tailcens import (
    CsvFormatError,
    LogGamma,
    McConfig,
    Pareto,
    asymptotic_ci,
    cvm_stat,
    default_k_grid,
    delta_curve,
    estimate_report,
    generate_censored,
    gof_pvalue,
    ks_stat,
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
from tailcens.cli import main
from tailcens.estimators import ESTIMATOR_IDS, _check_count, _check_fit, _check_level, _checked_id, attached_ci
from tailcens.parallel import _check_workers
from tailcens.rules import _check_flag, _is_number
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
        assert _is_number(value) and _check_theta(value) == value

    @pytest.mark.parametrize("value", [True, np.bool_(False), Decimal("0.25"), "0.25", None])
    def test_not_numbers(self, value):
        assert not _is_number(value)
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
