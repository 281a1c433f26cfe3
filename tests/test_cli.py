import warnings

import pytest

from tailcens import Pareto, generate_censored, stream, write_censored_csv
from tailcens.cli import main


@pytest.fixture
def tiny5_csv(tmp_path):
    path = tmp_path / "tiny5.csv"
    write_censored_csv(path, [1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 1])
    return path


@pytest.fixture
def pareto_csv(tmp_path):
    z, d = generate_censored(Pareto(1.0), Pareto(1.0), 150, stream(55))
    path = tmp_path / "pareto.csv"
    write_censored_csv(path, z, d)
    return path


@pytest.fixture
def tie_csv(tmp_path):
    # new(2) = 0: the second-largest value ties with the threshold
    path = tmp_path / "tie.csv"
    write_censored_csv(path, [1.0, 2.0, 5.0, 5.0, 5.0], [1, 0, 1, 1, 0])
    return path


def run_ok(args):
    assert main([str(a) for a in args]) == 0


class TestEstimate:
    def test_fixture_row(self, tiny5_csv, tmp_path, capsys):
        run_ok(["estimate", "--input", tiny5_csv, "--k", "3", "--estimator", "new"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "estimator,k,value,p_hat,std_err,ci_lo,ci_hi"
        assert out.splitlines()[1] == "new,3,0.274653,1,,,"

    def test_ci_fields(self, tiny5_csv, capsys):
        run_ok(["estimate", "--input", tiny5_csv, "--k", "3", "--estimator", "new", "--ci", "0.95"])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[4] != "" and float(row[5]) <= float(row[2]) <= float(row[6])

    def test_multiple_estimators(self, tiny5_csv, capsys):
        run_ok(["estimate", "--input", tiny5_csv, "--k", "2", "--estimator", "hill,efg,ww1,ww2,new"])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["hill", "efg", "ww1", "ww2", "new"]
        values = {line.split(",")[0]: line.split(",")[2] for line in lines[1:]}
        assert values["hill"] == "0.399254"
        assert values["ww1"] == "0.143841"
        assert values["ww2"] == "0.0719205"
        assert values["new"] == "0.095894"

    def test_all_k_row_count(self, pareto_csv, capsys):
        run_ok(["estimate", "--input", pareto_csv, "--all-k", "--estimator", "new"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + (149 - 2 + 1)  # k from 2 to n-1

    @pytest.mark.parametrize("k", ["40", "auto"])
    def test_k_with_all_k_is_usage_error(self, pareto_csv, capsys, k):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(pareto_csv), "--k", k, "--all-k"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument --k" in captured.err

    def test_auto_k(self, pareto_csv, capsys):
        run_ok(["estimate", "--input", pareto_csv, "--k", "auto", "--estimator", "new"])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert 2 <= int(row[1]) <= 149

    def test_out_file(self, tiny5_csv, tmp_path):
        out = tmp_path / "res.csv"
        run_ok(["estimate", "--input", tiny5_csv, "--k", "3", "--estimator", "new", "--out", out])
        assert out.read_text().splitlines()[1] == "new,3,0.274653,1,,,"

    def test_k_out_of_range_is_data_error(self, tiny5_csv, capsys):
        assert main(["estimate", "--input", str(tiny5_csv), "--k", "99", "--estimator", "new"]) == 1
        assert "k must be" in capsys.readouterr().err

    def test_unknown_estimator_is_usage_error(self, tiny5_csv):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(tiny5_csv), "--k", "2", "--estimator", "moment"])
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv"), "--k", "2"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", [["estimate", "--k", "2"], ["select-k"], ["convert"]])
    def test_seed_only_where_the_command_draws(self, tiny5_csv, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--input", str(tiny5_csv), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestEstimateCi:
    def test_no_ci_when_value_is_zero(self, tie_csv, capsys):
        run_ok(["estimate", "--input", tie_csv, "--all-k", "--estimator", "new", "--ci", "0.95"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "new,2,0,0.5,,,"
        assert all(line.split(",")[4] != "" for line in lines[2:])  # k = 3, 4 have a value > 0
        run_ok(["estimate", "--input", tie_csv, "--k", "2", "--estimator", "new", "--ci", "0.95"])
        assert capsys.readouterr().out.splitlines()[1] == "new,2,0,0.5,,,"

    def test_no_ci_when_proportion_is_zero(self, tmp_path, capsys):
        path = tmp_path / "top_censored.csv"
        write_censored_csv(path, [1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 0])
        run_ok(["estimate", "--input", path, "--k", "2", "--estimator", "new", "--ci", "0.95"])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[3] == "0" and float(row[2]) > 0 and row[4:] == ["", "", ""]

    def test_overflowing_ratio_is_data_error(self, tmp_path, capsys):
        # every value is finite, but max/min overflows: hill and new would be inf, behind numpy overflow warnings
        path = tmp_path / "overflow.csv"
        path.write_text("z,delta\n" + "".join(f"{z!r},1\n" for z in (1e-300, 1e-300, 2e-300, 1e300, 1.5e300, 1.7e300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["estimate", "--input", str(path), "--k", "3", "--estimator", "hill,new", "--ci", "0.95"]) == 1
        assert "finite ratio" in capsys.readouterr().err


class TestSelectK:
    def test_row_and_criterion_file(self, pareto_csv, tmp_path, capsys):
        crit = tmp_path / "crit.csv"
        run_ok(["select-k", "--input", pareto_csv, "--estimator", "hill", "--criterion-out", crit])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k_star,theta,estimator"
        k_star, theta, est = lines[1].split(",")
        assert 2 <= int(k_star) <= 149 and theta == "0.3" and est == "hill"
        crit_lines = crit.read_text().splitlines()
        assert crit_lines[0] == "k,criterion"
        assert len(crit_lines) == 1 + 148

    def test_criterion_out_dash_prints_the_criterion_table(self, pareto_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a file named "-" would land here
        row, crit = tmp_path / "row.csv", tmp_path / "crit.csv"
        run_ok(["select-k", "--input", pareto_csv, "--criterion-out", crit])
        written = capsys.readouterr().out
        run_ok(["select-k", "--input", pareto_csv, "--out", row, "--criterion-out", "-"])
        assert capsys.readouterr().out == crit.read_text() and crit.read_text().startswith("k,criterion\n")
        assert row.read_text() == written and not (tmp_path / "-").exists()

    def test_theta_validation(self, pareto_csv):
        with pytest.raises(SystemExit) as exc:
            main(["select-k", "--input", str(pareto_csv), "--theta", "0.9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["select-k"], ["estimate"], ["estimate", "--k", "auto"]])
    def test_tiny_sample_is_data_error(self, tmp_path, capsys, command):
        # no --k-min given: the message names n, not the k_min rule's empty range
        path = tmp_path / "tiny3.csv"
        write_censored_csv(path, [1.0, 2.0, 3.0], [1, 0, 1])
        assert main(command + ["--input", str(path)]) == 1
        assert "needs a sample of n >= 4, got n = 3" in capsys.readouterr().err


class TestGof:
    def test_report_row(self, pareto_csv, capsys):
        run_ok(["gof", "--input", pareto_csv, "--k", "30", "--reps", "100", "--seed", "5"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ks,cvm,p_ks,p_cvm,k,n,reps,seed"
        cells = lines[1].split(",")
        assert cells[4:] == ["30", "150", "100", "5"]
        assert 0 < float(cells[2]) <= 1 and 0 < float(cells[3]) <= 1

    def test_deterministic(self, pareto_csv, capsys):
        run_ok(["gof", "--input", pareto_csv, "--k", "30", "--reps", "100", "--seed", "5"])
        first = capsys.readouterr().out
        run_ok(["gof", "--input", pareto_csv, "--k", "30", "--reps", "100", "--seed", "5", "--workers", "4"])
        assert capsys.readouterr().out == first


class TestSimulate:
    def test_byte_identical_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", "--model", "pareto:1", "--censor", "pareto:1",
            "--n", "200", "--reps", "10", "--seed", "7",
        ]
        run_ok(args + ["--out", out1])
        run_ok(args + ["--out", out2])
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.meta").read_text() == (tmp_path / "b.csv.meta").read_text()

    def test_header_and_grid(self, tmp_path):
        out = tmp_path / "r.csv"
        run_ok([
            "simulate", "--model", "burr:1,2,1", "--censor", "frechet:0.5",
            "--n", "50", "--reps", "3", "--seed", "1",
            "--k-grid", "5,10,20", "--estimators", "new,efg", "--out", out,
        ])
        lines = out.read_text().splitlines()
        assert lines[0] == "estimator,k,bias,rmse,undefined_count"
        assert len(lines) == 1 + 2 * 3

    def test_bad_model_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "pareto:-1", "--censor", "pareto:1", "--n", "50", "--reps", "2"])
        assert exc.value.code == 2

    def test_complete_flag(self, tmp_path, capsys):
        run_ok([
            "simulate", "--model", "pareto:1", "--censor", "pareto:1",
            "--n", "60", "--reps", "5", "--seed", "2", "--complete",
            "--k-grid", "10", "--estimators", "new",
        ])
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[4] == "0"


class TestWorkers:
    @pytest.mark.parametrize("value", ["-5", "0", "1.5", "two"])
    def test_bad_workers_is_usage_error(self, pareto_csv, value, capsys):
        for args in (
            ["gof", "--input", str(pareto_csv), "--k", "30", "--reps", "100"],
            ["simulate", "--model", "pareto:1", "--censor", "pareto:1", "--n", "50", "--reps", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(args + ["--workers", value])
            assert exc.value.code == 2
            assert "workers must be an integer >= 1" in capsys.readouterr().err

    def test_overflowing_censoring_law_is_accepted(self, tmp_path):
        # Pareto(100) censoring times overflow to inf at this n and observe their lifetimes
        out = tmp_path / "r.csv"
        args = ["simulate", "--model", "pareto:1", "--censor", "pareto:100", "--n", "20000", "--reps", "2"]
        run_ok(args + ["--k-grid", "50,100", "--estimators", "new", "--out", out])
        assert len(out.read_text().splitlines()) == 3

    def test_overflowing_model_is_data_error(self, capsys):
        args = ["simulate", "--model", "pareto:200", "--censor", "pareto:1", "--n", "200", "--reps", "3"]
        assert main(args + ["--k-grid", "5,10"]) == 1
        assert "Pareto(gamma=200.0)" in capsys.readouterr().err

    def test_underflowing_censoring_law_is_data_error(self, capsys):
        # Burr(1, 0.01, 1) censoring times underflow to 0 at this n: an observation of 0 is refused
        args = ["simulate", "--model", "pareto:1", "--censor", "burr:1,0.01,1", "--n", "10000", "--reps", "1"]
        assert main(args + ["--k-grid", "10", "--estimators", "hill"]) == 1
        err = capsys.readouterr().err
        assert "Burr(beta=1.0, tau=0.01, lam=1.0) drew censoring times <= 0" in err and "RuntimeWarning" not in err


class TestConvert:
    def test_convert_roundtrip(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("start,end,status\n1990-01-01,1990-01-11,D\n1990-01-01,1990-01-01,A\n")
        run_ok(["convert", "--input", raw])
        assert capsys.readouterr().out == "z,delta\n11.0,1\n1.0,0\n"

    def test_bad_row_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("start,end,status\n1990-01-01,1990-01-11,Q\n")
        assert main(["convert", "--input", str(raw)]) == 1
        assert "status" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--frobnicate"])
        assert exc.value.code == 2
