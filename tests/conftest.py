import os
import tempfile

import numpy as np
import pytest

from tailcens import (
    Burr, Frechet, LogGamma, Pareto, censored, estimators, generate_censored, parallel, sort_censored, stream,
)

# hypothesis writes what it learns under the working directory unless told otherwise; it reads this
# variable when it first touches that storage, after conftest has run, so the tree stays clean
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "tailcens-hypothesis"))

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself
    pass
else:  # fixed examples, so a run is reproducible and needs no example database
    settings.register_profile("tailcens", derandomize=True, database=None, deadline=None, max_examples=60)
    settings.load_profile("tailcens")


@pytest.fixture
def tiny5():
    """Five observations with one censored point at the second position."""
    return sort_censored([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 1])


_PAIRS = [
    (Pareto(1.0), Pareto(1.0)),
    (Pareto(0.8), Pareto(2.0)),
    (Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 2.0)),
    (Burr(2.0, 1.0, 0.8), Frechet(0.9)),
    (Frechet(1.2), Burr(1.0, 1.5, 1.0)),
    (LogGamma(2.0, 0.7), Pareto(1.5)),
]


def make_sample(seed, n=None):
    """A censored sample from a cycling catalog of model pairs."""
    rng = stream(seed)
    if n is None:
        n = int(rng.integers(20, 501))
    mx, my = _PAIRS[seed % len(_PAIRS)]
    z, d = generate_censored(mx, my, n, stream(seed, 1))
    return sort_censored(z, d)


def draw_block(model_x, model_y, n, seed, block, complete_data=False, top=None):
    """censored._draw_block of replicates ``block`` from ``seed``, with the keys _replicates derives for them."""
    return censored._draw_block(model_x, model_y, n, censored._stream_keys(seed, block, complete_data), top)


@pytest.fixture
def sample_factory():
    return make_sample


@pytest.fixture
def forked(monkeypatch):
    """Split every ``new`` path of two or more ks over forked processes, as on two CPUs.

    The list it gives collects the parts of each split, as lists of ks.
    """
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(estimators, "_SPLIT_VALUES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    splits, fork_map = [], parallel.fork_map

    def spy(fn, parts):
        splits.append([part.tolist() for part in parts])
        return fork_map(fn, parts)

    monkeypatch.setattr(parallel, "fork_map", spy)
    return splits
