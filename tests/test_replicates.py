"""The one replicate loop, the one sample type, and the seed and number rules.

``censored._replicates`` is the only place that blocks, draws and joins
replicates; the Monte Carlo engines call it once each.  Seeds and model
parameters follow one rule each, wherever they enter, and every scalar
argument rule is defined in ``rules`` alone.
"""

from pathlib import Path

import numpy as np
import pytest
import oracle
from conftest import draw_block

from tailcens import (
    Burr,
    DegenerateNullError,
    McConfig,
    Pareto,
    generate_censored,
    gof_pvalue,
    sort_censored,
    stream,
    weighted_functional,
)
from tailcens import censored, distributions, estimators, harness, parallel, rules, selection, tailprocess
from tailcens.censored import _blocks, _replicates
from tailcens.cli import main

N = 200
ROWS = {top: _blocks(N, 1, top).step for top in (None, 11)}  # rows a block at n = 200: 40 whole, 81 cut
# one block, two, and two and a row, of either kind: 40, 80, 81, 162 and 163
EDGES = sorted({5} | {reps for rows in ROWS.values() for reps in (rows, 2 * rows, 2 * rows + 1)})


def tied_sample():
    """Every value 1.0 but the top two, one float above: the fitted null index is about 2.2e-19."""
    z = np.ones(3_000)
    z[-2:] = np.nextafter(1.0, 2.0)
    delta = (np.random.default_rng(0).random(z.size) < 0.5).astype(np.int64)
    return z, delta


class TestReplicateLoop:
    @pytest.mark.parametrize("reps", EDGES)
    @pytest.mark.parametrize("top", [None, 11])
    def test_rows_joined_in_replicate_order(self, reps, top):
        model_x, model_y, seed = Pareto(1.0), Pareto(2.0), 4
        got = _replicates(model_x, model_y, N, reps, seed, lambda v: v.z.copy(), 1, top=top)  # the next block reuses v
        m = N if top is None else top
        want = np.stack([oracle.draw(model_x, model_y, N, seed, r).z[N - m :] for r in range(reps)])
        assert np.array_equal(got, want)

    def test_complete_data_rows(self):
        got = _replicates(Pareto(0.5), Pareto(1.0), N, 3, 2, lambda v: v.delta.copy(), 1, complete_data=True)
        assert got.shape == (3, N) and np.all(got == 1)

    @pytest.mark.parametrize("workers", [0, True, 1.5])
    def test_workers_rule(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            _replicates(Pareto(1.0), Pareto(1.0), N, 5, 0, lambda v: v.z, workers)


class TestStructure:
    @pytest.mark.parametrize("module", [tailprocess, harness])
    def test_engines_reach_blocks_only_through_the_loop(self, module):
        assert not {"_blocks", "_draw_block", "replicate_map"} & set(vars(module))
        assert module._replicates is censored._replicates

    def test_one_sample_type(self):
        assert not {"_SampleBlock", "_TailView"} & set(vars(censored))
        block = draw_block(Pareto(1.0), Pareto(1.0), N, 0, range(3))
        assert type(block) is censored.SortedCensoredSample and block.z.shape == (3, N)

    def test_one_number_predicate(self):
        assert estimators._number is rules._number

    @pytest.mark.parametrize(
        "name", ["_check_level", "_check_fit", "_check_theta", "_check_workers", "_require_positive", "_check_instance",
                 "_check_models"]
    )
    def test_scalar_rule_defined_in_rules_alone(self, name):
        assert getattr(rules, name).__module__ == "tailcens.rules"
        sources = {path.name: path.read_text(encoding="utf-8") for path in Path(rules.__file__).parent.glob("*.py")}
        assert [file for file, text in sources.items() if f"def {name}(" in text] == ["rules.py"]
        assert not [file for file, text in sources.items() if "estimators._check_" in text]

    @pytest.mark.parametrize("module,names", [
        (estimators, ["_check_count", "_check_fit", "_check_level"]),
        (selection, ["_check_theta"]),
        (parallel, ["_check_workers"]),
        (distributions, ["_require_positive"]),
    ])
    def test_modules_apply_the_rules_objects(self, module, names):
        for name in names:
            assert getattr(module, name) is getattr(rules, name), (module.__name__, name)


class TestTiedNull:
    def test_library_raises(self):
        s = sort_censored(*tied_sample())
        with pytest.raises(DegenerateNullError, match=r"estimated index 2\.21823e-19 is too small for a Pareto null"):
            gof_pvalue(s, 1_000, reps=100, seed=0)

    def test_cli_exits_1_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        z, delta = tied_sample()
        path.write_text("z,delta\n" + "".join(f"{a!r},{b}\n" for a, b in zip(z.tolist(), delta.tolist())))
        assert main(["gof", "--input", str(path), "--k", "1000", "--reps", "100"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: estimated index 2.21823e-19") and err.count("\n") == 1


class TestSeedRule:
    @pytest.mark.parametrize("seed", [2.7, 2.0, True, -1, "2"])
    def test_stream(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, inf\], got"):
            stream(seed)

    def test_integer_seeds_draw_as_before(self):
        draws = stream(np.int64(2), 3).random(4)
        ss = np.random.SeedSequence(entropy=2, spawn_key=(3,))
        assert np.array_equal(draws, np.random.Generator(np.random.Philox(ss)).random(4))
        assert np.array_equal(stream(0).random(2), stream(np.uint8(0)).random(2))

    def test_gof_pvalue(self):
        s = sort_censored(*generate_censored(Pareto(1.0), Pareto(1.0), 100, stream(1)))
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, inf\], got 2\.7"):
            gof_pvalue(s, 20, reps=100, seed=2.7)

    @pytest.mark.parametrize("seed", [2.5, True, -3])
    def test_mc_config(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, inf\], got"):
            McConfig(Pareto(1.0), Pareto(1.0), 50, 2, (5,), ("new",), seed)

    @pytest.mark.parametrize("value", ["-1", "2.5", "x"])
    def test_cli_usage_error(self, tmp_path, capsys, value):
        path = tmp_path / "s.csv"
        path.write_text("z,delta\n" + "".join(f"{i + 1.5},{i % 2}\n" for i in range(50)))
        with pytest.raises(SystemExit) as exc:
            main(["gof", "--input", str(path), "--k", "10", "--seed", value])
        assert exc.value.code == 2
        assert "seed must be an integer in [0, inf]" in capsys.readouterr().err


class TestNumberRule:
    @pytest.mark.parametrize("build", [lambda: Pareto(True), lambda: Burr(1.0, True, 1.0), lambda: Pareto("1")])
    def test_model_parameters(self, build):
        with pytest.raises(ValueError, match="must be a finite positive number"):
            build()

    def test_numpy_real_parameters_build(self):
        assert Pareto(np.float32(0.5)).gamma == np.float32(0.5)

    @pytest.mark.parametrize("alpha", [True, "x", float("nan"), 0.0])
    def test_weighted_functional_alpha(self, alpha):
        s = sort_censored(*generate_censored(Pareto(1.0), Pareto(1.0), 60, stream(8)))
        with pytest.raises(ValueError, match=r"alpha must be a number > 0, got"):
            weighted_functional(s, 10, alpha=alpha)

    @pytest.mark.parametrize("flag", ["no", 1, 0, None])
    def test_complete_data_flag(self, flag):
        with pytest.raises(ValueError, match=r"complete_data must be a bool, got"):
            McConfig(Pareto(1.0), Pareto(1.0), 50, 2, (5,), ("new",), 0, flag)
