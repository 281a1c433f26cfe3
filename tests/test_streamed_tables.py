"""The CLI's tables stream: rows leave in chunks, and a failed call writes no file.

``estimate`` computes every column of every estimator before its output
opens, then writes the rows ``cli.ROW_CHUNK`` at a time, as does
``select-k --criterion-out``.  The rows must equal the pointwise library
reference across chunk boundaries, and the memory of ``--all-k`` must stay
a few arrays of n, not a Python object per cell.
"""

import math
import tracemalloc

import numpy as np
import pytest

from tailcens import (
    Pareto,
    generate_censored,
    read_censored_csv,
    reiss_thomas_k,
    sort_censored,
    stream,
    write_censored_csv,
)
from tailcens import cli, estimators
from tailcens.io import fmt

N = 4500  # above cli.ROW_CHUNK: each estimator's table spans two chunks


def _pareto(n, seed):
    return generate_censored(Pareto(1.0), Pareto(1.0), n, stream(seed))


@pytest.fixture(scope="module", params=["pareto", "top_censored"])
def big_csv(request, tmp_path_factory):
    z, d = _pareto(N, 31)
    if request.param == "top_censored":
        # the largest 4 200 points censored: p_hat = 0 and efg undefined (an empty cell) for every k <= 4 200,
        # across the chunk boundary; new has an interval only above it
        d = d.copy()
        d[np.argsort(z)[-4200:]] = 0
    path = tmp_path_factory.mktemp("big") / f"{request.param}.csv"
    write_censored_csv(path, z, d)
    return path


def _reference_row(s, est, k, level):
    try:
        value = estimators.evaluate(s, k, est)
    except estimators.UndefinedEstimateError:
        value = math.nan
    p = estimators.p_hat(s, k)
    ci = estimators.attached_ci(est, value, p, k, level)
    return ",".join([est, str(k), fmt(value), fmt(p), *(map(fmt, ci) if ci else ("", "", ""))])


def test_all_k_rows_across_chunks_equal_the_pointwise_reference(big_csv, tmp_path):
    assert N - 1 > cli.ROW_CHUNK
    out = tmp_path / "allk.csv"
    ids = ",".join(estimators.ESTIMATOR_IDS)
    assert cli.main(["estimate", "--input", str(big_csv), "--all-k", "--estimator", ids, "--ci", "0.9",
                     "--out", str(out)]) == 0
    s = sort_censored(*read_censored_csv(big_csv))
    expected = [cli.ESTIMATE_CSV_HEADER] + [
        _reference_row(s, est, k, 0.9) for est in estimators.ESTIMATOR_IDS
        for k in range(estimators.min_valid_k(est), s.n)
    ]
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines == expected
    cells = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
    assert cells["new", str(s.n - 1)][2]  # an interval in the second chunk
    if big_csv.stem == "top_censored":  # empty cells on both sides of efg's chunk boundary
        assert cells["efg", str(cli.ROW_CHUNK)][0] == cells["efg", str(cli.ROW_CHUNK + 1)][0] == ""
    else:
        assert cells["new", "100"][2]  # and in the first


def test_criterion_rows_across_chunks_equal_the_library_curve(big_csv, tmp_path):
    crit = tmp_path / "crit.csv"
    argv = ["select-k", "--input", str(big_csv), "--estimator", "efg", "--out", str(tmp_path / "sel.csv")]
    assert cli.main(argv + ["--criterion-out", str(crit)]) == 0
    sel = reiss_thomas_k(sort_censored(*read_censored_csv(big_csv)), "efg")
    assert sel.k_grid.size > cli.ROW_CHUNK
    expected = ["k,criterion"] + [f"{k},{fmt(c)}" for k, c in zip(sel.k_grid.tolist(), sel.criterion_values.tolist())]
    assert crit.read_text(encoding="utf-8").splitlines() == expected


def test_undefined_later_estimator_writes_no_file(tmp_path, capsys):
    # hill is defined at k = 3, efg is not (the top 3 points are censored): every column comes before the output
    path, out = tmp_path / "top3.csv", tmp_path / "res.csv"
    write_censored_csv(path, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1, 1, 1, 0, 0, 0])
    assert cli.main(["estimate", "--input", str(path), "--k", "3", "--estimator", "hill,efg", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_all_k_memory_is_a_few_arrays_of_n(tmp_path):
    n = 20_000
    path, small, out = tmp_path / "s.csv", tmp_path / "small.csv", tmp_path / "out.csv"
    write_censored_csv(path, *_pareto(n, 32))
    write_censored_csv(small, *_pareto(50, 33))
    argv = ["--all-k", "--estimator", "hill,efg,ww1,ww2", "--out", str(out)]
    assert cli.main(["estimate", "--input", str(small), *argv]) == 0  # loads every module it runs first
    tracemalloc.start()
    try:
        assert cli.main(["estimate", "--input", str(path), *argv]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one Python string and float per cell until the end took about 520 bytes per sample point
    assert peak / n < 260, f"{peak / n:.0f} traced bytes per sample point"
