import math

import numpy as np
import pytest
from scipy import integrate, special
from conftest import draw_block

from tailcens import (
    Burr,
    Frechet,
    HeavyTailModel,
    LogGamma,
    ModelSpecError,
    Pareto,
    censoring_profile,
    format_model,
    parse_model,
    stream,
)

ALL_MODELS = [Burr(1.0, 2.0, 1.5), Frechet(0.8), LogGamma(2.0, 0.5), Pareto(1.2)]


class TestCdf:
    def test_burr_unit_params(self):
        # F(x) = x/(1+x) at beta=tau=lam=1
        assert Burr(1.0, 1.0, 1.0).cdf(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_frechet_at_one(self):
        assert Frechet(1.0).cdf(1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_loggamma_equals_incomplete_gamma(self):
        # independently: quadrature of the density of exp(Gamma(a, b))
        a, b = 2.0, 0.5
        oracle, _ = integrate.quad(
            lambda t: (math.log(t)) ** (a - 1) * math.exp(-math.log(t) / b) / t,
            1.0,
            math.e,
        )
        oracle /= b**a * math.gamma(a)
        assert oracle == pytest.approx(0.593994, abs=1e-6)
        assert LogGamma(a, b).cdf(math.e) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_limits_and_monotonicity(self, model):
        xs = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 200)])
        vals = model.cdf(xs)
        assert vals[0] <= 1e-12
        assert vals[-1] > 0.999
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((vals >= 0) & (vals <= 1))

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            Pareto(1.0).cdf(bad)


class TestQuantile:
    def test_burr_median(self):
        assert Burr(1.0, 1.0, 1.0).quantile(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_frechet_unit_point(self):
        assert Frechet(2.0).quantile(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_burr_closed_form(self):
        beta, tau, lam, u = 1.0, 2.0, 1.0, 0.75
        oracle = (beta * ((1.0 - u) ** (-1.0 / lam) - 1.0)) ** (1.0 / tau)
        assert oracle == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert Burr(beta, tau, lam).quantile(u) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.4])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            Frechet(1.0).quantile(bad)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_roundtrip(self, model):
        us = np.linspace(0.001, 0.999, 400)
        back = model.cdf(model.quantile(us))
        assert np.max(np.abs(back - us)) < 1e-9

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_strictly_increasing(self, model):
        us = np.linspace(0.01, 0.99, 100)
        qs = model.quantile(us)
        assert np.all(np.diff(qs) > 0)


class _FixedUniforms:
    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def random(self, *, out):
        assert out.size == self._values.size
        out[:] = self._values
        return out


class TestSample:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_deterministic_given_seed(self, model):
        a = model.sample(3, stream(7, 1))
        b = model.sample(3, stream(7, 1))
        assert np.array_equal(a, b)

    def test_pareto_inverse_transform(self):
        # (1-u)**(-gamma) at u = 0.5, 0.75
        out = Pareto(1.0).sample(2, _FixedUniforms([0.5, 0.75]))
        assert out == pytest.approx([2.0, 4.0], abs=1e-12)

    def test_frechet_inverse_transform(self):
        out = Frechet(1.0).sample(1, _FixedUniforms([math.exp(-1.0)]))
        assert out == pytest.approx([1.0], abs=1e-12)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            Pareto(1.0).sample(0, stream(0))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_empirical_cdf_matches(self, model):
        draws = model.sample(100_000, stream(99))
        points = model.quantile(np.array([0.1, 0.3, 0.5, 0.7, 0.9]))
        ecdf = np.array([np.mean(draws <= point) for point in points])
        assert np.max(np.abs(ecdf - model.cdf(points))) < 0.01

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_samples_positive(self, model):
        assert np.all(model.sample(1000, stream(5)) > 0)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_draw_path_checks_no_quantile_domain(self, model, monkeypatch):
        # the draw path has forced every u into (0, 1) itself, so it skips the public quantile's check
        def refuse(self, u):
            raise AssertionError("the draw path went through the public quantile")

        monkeypatch.setattr(HeavyTailModel, "quantile", refuse)
        assert draw_block(model, Pareto(1.0), 30, 4, range(5)).z.shape == (5, 30)
        assert model.sample(3, stream(2)).shape == (3,)


class TestParameterRule:
    @pytest.mark.parametrize("cls", [Burr, Frechet, LogGamma, Pareto])
    def test_applied_by_the_base_class_alone(self, cls):
        assert "__post_init__" not in vars(cls)

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: Burr(0.0, 2.0, 1.0), "beta"),
            (lambda: Burr(1.0, 2.0, math.inf), "lam"),
            (lambda: Burr(1.0, -1.0, -1.0), "tau"),  # fields in order: the first bad one is named
            (lambda: Frechet(-0.5), "gamma"),
            (lambda: LogGamma(2.0, math.nan), "b"),
            (lambda: LogGamma(False, 1.0), "a"),
            (lambda: Pareto(0.0), "gamma"),
        ],
    )
    def test_names_the_first_bad_field(self, build, name):
        with pytest.raises(ValueError, match=rf"^parameter {name} must be a finite positive number, got"):
            build()


class TestTrueEvi:
    def test_burr(self):
        assert Burr(1.0, 2.0, 2.5).true_evi == pytest.approx(0.2, abs=1e-12)

    def test_frechet_pareto(self):
        assert Frechet(0.7).true_evi == 0.7
        assert Pareto(1.3).true_evi == 1.3

    def test_loggamma_tail_slope(self):
        # numeric slope of -log(1-F) against log x deep in the tail
        a, b = 3.0, 0.4
        lx1, lx2 = 80.0, 120.0
        s1 = special.gammaincc(a, lx1 / b)
        s2 = special.gammaincc(a, lx2 / b)
        slope = (math.log(s1) - math.log(s2)) / (lx2 - lx1)
        assert abs(slope * b - 1.0) < 0.02
        assert LogGamma(a, b).true_evi == pytest.approx(0.4, abs=1e-12)

    def test_pareto_tail_exact(self):
        # survival of the quantile reproduces the pure power law; the cdf
        # itself is exact to float rounding, the survival 1-cdf to relative
        # rounding wherever the subtraction does not cancel
        model = Pareto(1.7)
        ss = np.geomspace(1e-6, 0.9, 50)
        cdf_vals = model.cdf(model.quantile(1.0 - ss))
        assert np.max(np.abs(cdf_vals - (1.0 - ss))) < 1e-15
        moderate = ss >= 1e-3
        back = 1.0 - cdf_vals[moderate]
        assert np.max(np.abs(back / ss[moderate] - 1.0)) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Burr(1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            Frechet(0.0)
        with pytest.raises(ValueError):
            LogGamma(1.0, float("nan"))


class TestCensoringProfile:
    def test_direct_arithmetic(self):
        prof = censoring_profile(Frechet(0.6), Frechet(1.4))
        assert prof.gamma == pytest.approx(0.42, abs=1e-12)
        assert prof.p == pytest.approx(0.7, abs=1e-12)

    def test_symmetric_case(self):
        prof = censoring_profile(Pareto(1.0), Pareto(1.0))
        assert prof.gamma == pytest.approx(0.5, abs=1e-15)
        assert prof.p == pytest.approx(0.5, abs=1e-15)

    def test_strong_censoring_point(self):
        # gamma2 = gamma1 * p / (1 - p) inverted at p = 0.33
        prof = censoring_profile(Pareto(1.0), Pareto(0.4925))
        assert prof.p == pytest.approx(0.33, abs=1e-4)

    @pytest.mark.parametrize("mx,my", [(Pareto(0.5), Frechet(1.1)), (Burr(1, 2, 1), LogGamma(2, 0.3))])
    def test_symmetry_relations(self, mx, my):
        ab = censoring_profile(mx, my)
        ba = censoring_profile(my, mx)
        assert ab.gamma == pytest.approx(ba.gamma, rel=1e-15)
        assert ab.p + ba.p == pytest.approx(1.0, abs=1e-15)


class TestModelSpecGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("burr:1,2,0.5", Burr(1.0, 2.0, 0.5)),
            ("frechet:0.9", Frechet(0.9)),
            ("loggamma:2,0.5", LogGamma(2.0, 0.5)),
            ("pareto:1", Pareto(1.0)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_model(text) == expected

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_format_roundtrip(self, model):
        assert parse_model(format_model(model)) == model

    def test_unknown_model(self):
        with pytest.raises(ModelSpecError, match="unknown model 'weibull'"):
            parse_model("weibull:1")

    def test_wrong_arity(self):
        with pytest.raises(ModelSpecError, match="3 parameters"):
            parse_model("burr:1,2")

    def test_bad_field_named(self):
        with pytest.raises(ModelSpecError, match="'tau'"):
            parse_model("burr:1,x,0.5")

    def test_nonpositive_field_named(self):
        with pytest.raises(ModelSpecError, match="gamma"):
            parse_model("pareto:-1")
