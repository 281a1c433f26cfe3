"""The bulk keyed replicate draw against numpy's own seeding.

Replicate r's streams are ``stream(seed, r, 0)`` (lifetimes) and
``stream(seed, r, 1)`` (censoring), or ``stream(seed, r)`` for complete
data.  The block engine derives their Philox keys for many rows at once
(``rng._keys``) and re-keys one generator per row (``rng._keyed``).  The
references here are built from ``SeedSequence``, ``Philox`` and the models'
``quantile`` (or, for LogGamma, numpy's gamma sampler) alone, so a numpy
release that seeds differently fails here rather than shifting every
seeded output quietly.
"""

import numpy as np
import pytest
from conftest import draw_block

from tailcens import Burr, Frechet, LogGamma, Pareto, stream
from tailcens.censored import _draw_block
from tailcens.rng import _keyed, _keys

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**130 + 3]  # 2**130 + 3 has more words than the pool
ROWS = [range(0, 3), range(2**32 - 3, 2**32 + 3)]  # one word, then two from 2**32 on
TAILS = [(), (0,), (1,)]
MODELS = [Burr(1.0, 2.0, 1.0), Frechet(0.9), LogGamma(2.0, 0.6), Pareto(1.3)]


def philox(seed, *spawn_key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


class TestKeyRule:
    @pytest.mark.parametrize("key", [2.5, 2.0, True, "3", -1, None])
    def test_stream(self, key):
        with pytest.raises(ValueError, match=r"key must be an integer in \[0, inf\], got"):
            stream(0, key)

    @pytest.mark.parametrize("key", [2.5, True, "3", -1])
    def test_stream_later_parts(self, key):
        with pytest.raises(ValueError, match=r"key must be an integer in \[0, inf\], got"):
            stream(0, 4, key)

    @pytest.mark.parametrize("tail", [(2.5,), (True,), ("1",), (-1,)])
    def test_keys_tail(self, tail):
        with pytest.raises(ValueError, match=r"key must be an integer in \[0, inf\], got"):
            _keys(0, range(3), *tail)

    def test_keys_rows(self):
        with pytest.raises(ValueError, match=r"key must be an integer in \[0, inf\], got -1"):
            _keys(0, range(-1, 3))

    def test_keys_seed(self):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, inf\], got 2\.5"):
            _keys(2.5, range(3))

    def test_integer_keys_draw_as_before(self):
        assert np.array_equal(stream(0, np.int64(2), np.uint8(1)).random(3), philox(0, 2, 1).random(3))
        assert np.array_equal(_keys(0, range(2), np.int64(1)), _keys(0, range(2), 1))


class TestKeyDerivation:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("tail", TAILS)
    def test_matches_seed_sequence(self, seed, rows, tail):
        got = _keys(seed, rows, *tail)
        want = [np.random.SeedSequence(seed, spawn_key=(r, *tail)).generate_state(2, np.uint64) for r in rows]
        assert got.dtype == np.uint64 and got.shape == (len(rows), 2)
        assert np.array_equal(got, np.array(want)), "numpy's SeedSequence no longer derives the keys _keys mirrors"

    def test_empty_rows(self):
        assert _keys(0, range(0), 1).shape == (0, 2)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_rekeyed_generator_draws_as_stream(self, seed, rows):
        for j in (0, 1):
            for r, gen in zip(rows, _keyed(_keys(seed, rows, j))):
                draws = gen.random(5), gen.gamma(2.0, 0.5, 3), gen.integers(0, 2**32, 3, dtype=np.uint32)
                for ref in (stream(seed, r, j), stream(seed, r).spawn(2)[j]):
                    assert np.array_equal(draws[0], ref.random(5))
                    assert np.array_equal(draws[1], ref.gamma(2.0, 0.5, 3))
                    assert np.array_equal(draws[2], ref.integers(0, 2**32, 3, dtype=np.uint32))

    def test_complete_data_key_is_the_stream_itself(self):
        for r, gen in zip(range(4), _keyed(_keys(9, range(4)))):
            assert np.array_equal(gen.random(4), stream(9, r).random(4))

    def test_rekeying_clears_buffered_words(self):
        gens, ref = _keyed(_keys(3, range(2), 0)), philox(3, 1, 0)
        next(gens).integers(0, 2**32, 3, dtype=np.uint32)  # leaves Philox output and half a 64-bit word buffered
        gen = next(gens)
        assert np.array_equal(gen.integers(0, 2**32, 3, dtype=np.uint32), ref.integers(0, 2**32, 3, dtype=np.uint32))
        assert np.array_equal(gen.random(3), ref.random(3))


def reference_row(model, n, seed, *spawn_key):
    """One row drawn as Philox seeded by SeedSequence draws it, through the model's quantile or gamma."""
    gen = philox(seed, *spawn_key)
    if isinstance(model, LogGamma):
        return np.exp(gen.gamma(shape=model.a, scale=model.b, size=n))
    u = gen.random(n)
    u[u == 0.0] = 0.5 / (1 << 53)
    return model.quantile(u)


def reference_block(model_x, model_y, n, seed, block, complete_data):
    rows = []
    for r in block:
        if complete_data:
            z, delta = reference_row(model_x, n, seed, r), np.ones(n, dtype=np.int64)
        else:
            x, y = reference_row(model_x, n, seed, r, 0), reference_row(model_y, n, seed, r, 1)
            z, delta = np.minimum(x, y), (x <= y).astype(np.int64)
        order = np.lexsort((1 - delta, z))
        rows.append((z[order], delta[order]))
    return rows


class TestDrawBlock:
    @pytest.mark.parametrize("model_x", MODELS)
    @pytest.mark.parametrize("complete_data", [False, True])
    @pytest.mark.parametrize("block", [range(5, 9), range(2**32 - 2, 2**32 + 2)])
    @pytest.mark.parametrize("top", [None, 11])
    def test_against_seed_sequence_reference(self, model_x, complete_data, block, top):
        n, model_y = 40, Pareto(0.8)
        got = draw_block(model_x, model_y, n, 17, block, complete_data, top)
        m = n if top is None else top
        assert got.z.shape == got.delta.shape == (len(block), m)
        for j, (z, delta) in enumerate(reference_block(model_x, model_y, n, 17, block, complete_data)):
            assert np.array_equal(got.z[j], z[-m:]) and np.array_equal(got.delta[j], delta[-m:])
            assert np.array_equal(got.top_delta_prefix[j], np.cumsum(delta[::-1])[:m])

    @pytest.mark.parametrize("complete_data", [False, True])
    def test_given_keys_match_derived_keys(self, complete_data):
        block = range(3, 7)
        tails = [()] if complete_data else [(0,), (1,)]
        whole = [_keys(2, range(10), *t)[3:7] for t in tails]
        a = _draw_block(Frechet(0.9), Pareto(1.0), 30, whole)
        b = draw_block(Frechet(0.9), Pareto(1.0), 30, 2, block, complete_data)
        assert np.array_equal(a.z, b.z) and np.array_equal(a.delta, b.delta)

    @pytest.mark.parametrize("model", MODELS)
    def test_sample_is_one_row(self, model):
        assert np.array_equal(model.sample(25, stream(4, 2)), reference_row(model, 25, 4, 2))
