"""README's measured tables, recomputed from the streams and designs README names.

README's "Known red checks" prints three tables (the guard floor, the two
KS batches and the interval's coverage) and its CLI section a fourth (the
``k*`` that ``select-k`` and ``--k auto`` pick).  Each function here builds
one of them: a list of rows, each a list of cells.  A cell is a ``str``,
text README prints as it is, or a :class:`Cell`, a template whose ``{}``
fields take its numbers.  ``tests/test_readme.py`` compares README's
cells with these at the precision README prints; run this file to print
the tables as Markdown, with ``--slow`` for the n = 2 000 rows of the
``k*`` table, which tier-1 does not run (about 10 s):

    PYTHONPATH=src python tests/readme_tables.py [--slow]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from tailcens import (
    Burr, Pareto, censored, censoring_profile, generate_censored, hill, ks_stat, new_terms, new_weighted, p_hat,
    sort_censored, stream,
)
from tailcens.estimators import _sweep, attached_ci, min_valid_k
from tailcens.selection import _criterion

DRAWS, N = 1_000, 2_000  # test_04's design: Pareto(1) censored by Pareto(1) at k = 100
KS_DRAWS = 200  # each batch of test_null_median_two_batches, from stream(0, r) and stream(1, r)
THETA, K_MIN = 0.3, 2  # reiss_thomas_k's defaults


@dataclass(frozen=True)
class Cell:
    """A table cell: ``template`` with its ``{}`` fields filled by ``values``, each printed to its decimals."""

    template: str
    values: tuple[float, ...]
    decimals: tuple[int, ...]

    def __str__(self) -> str:
        return self.template.format(*(f"{v:,.{d}f}".replace(",", " ") for v, d in zip(self.values, self.decimals)))


def cell(template: str, *pairs) -> Cell:
    """A :class:`Cell` of (value, decimals) pairs."""
    return Cell(template, tuple(float(v) for v, _ in pairs), tuple(d for _, d in pairs))


def sig(value: float, digits: int, least: int = 0) -> tuple[float, int]:
    """``value`` with the decimals that print ``digits`` significant digits, and at least ``least``."""
    return value, max(least, digits - 1 - int(np.floor(np.log10(abs(value)))))


def burr_pair(p: float) -> tuple[Burr, Burr]:
    """Burr lifetimes of index 0.5 censored by the Burr of index 0.5 p / (1 - p), as test_05 draws them."""
    gamma2 = 0.5 * p / (1.0 - p)
    return Burr(1.0, 2.0, 1.0), Burr(1.0, 2.0, 1.0 / (2.0 * gamma2))


def draw(model_x, model_y, n: int, seed: int, r: int):
    return sort_censored(*generate_censored(model_x, model_y, n, stream(seed, r)))


def floor_row(label: str, model_x, model_y, k: int, samples) -> list:
    """The guard-floor table's row of ``samples`` at threshold ``k``.

    The share of draws with a floor term, the floor terms' mean share of the estimate where they exist, the
    mean and k times the variance (ddof 1) of ``new``, each with its target, and both again without floor terms.
    """
    terms = [new_terms(s, k) for s in samples]
    values = np.array([np.sum(t) for t, _ in terms])
    floor = np.array([mask.any() for _, mask in terms])
    part = [np.sum(t[mask]) / np.sum(t) for t, mask in terms if mask.any()]  # the floor terms' share of the estimate
    without = np.array([np.sum(t[~mask]) for t, mask in terms])
    profile = censoring_profile(model_x, model_y)
    target = (9.0 - 8.0 * profile.p) * profile.gamma1**2 / profile.p  # test_04's nominal limit variance
    return [
        label, str(k), cell("{}", (floor.mean(), 3)), cell("{}", (np.mean(part), 3)),
        cell("{} ({})", sig(values.mean(), 4), sig(profile.gamma1, 1)),
        cell("{} ({})", sig(k * values.var(ddof=1), 4), (target, 0 if target.is_integer() else 2)),
        cell("{}, {}", (without.mean(), 3), sig(k * without.var(ddof=1), 3, least=1)),
    ]


def floor_table(test_04_samples) -> list[list]:
    """Share and size of the guard-floor terms of ``new``, 1 000 draws from ``stream(0, r)`` per design."""
    rows = [floor_row("`test_04`: Pareto(1) by Pareto(1), n = 2 000", Pareto(1.0), Pareto(1.0), 100, test_04_samples)]
    for p in (0.33, 0.70):
        pair = burr_pair(p)
        samples = [draw(*pair, 200, 0, r) for r in range(DRAWS)]
        for k, label in ((101, f"`test_05`, p = {p:.2f}: Burr, n = 200"), (195, f"`test_05`, p = {p:.2f}")):
            rows.append(floor_row(label, *pair, k, samples))
    return rows


def ks_table(test_04_samples) -> list[list]:
    """test_null_median_two_batches' KS statistics split by the floor mask: 200 draws from each batch's stream."""
    rows = []
    for seed in (0, 1):
        samples = (test_04_samples[:KS_DRAWS] if seed == 0
                   else [draw(Pareto(1.0), Pareto(1.0), N, 1, r) for r in range(KS_DRAWS)])
        ks = np.array([ks_stat(s, 100, hill(s, 100), p_hat(s, 100)) for s in samples])
        floor = np.array([new_terms(s, 100)[1].any() for s in samples])
        rows.append([
            f"`stream({seed}, r)`", cell("{} of {} ({})", (floor.sum(), 0), (KS_DRAWS, 0), (floor.mean(), 3)),
            cell("{}", sig(np.median(ks), 4)),
            cell("{} (min {})", sig(np.median(ks[floor]), 4), sig(ks[floor].min(), 3)),
            cell("{} (max {})", sig(np.median(ks[~floor]), 4), sig(ks[~floor].max(), 3)),
        ])
    return rows


def coverage_table(test_04_samples) -> list[list]:
    """Coverage of the true index 1 by ``new``'s 95 % interval at test_04's design, by the draw's floor."""
    covered, floor = [], []
    for s in test_04_samples:
        _, lo, hi = attached_ci("new", new_weighted(s, 100), p_hat(s, 100), 100, 0.95)
        covered.append(lo <= 1.0 <= hi)
        floor.append(s.delta[-1] == 0)  # the top observation censored: a floor term at every k
    covered, floor = np.array(covered), np.array(floor)
    return [[label, cell("{}", (np.count_nonzero(rows), 0)), cell("{}", (covered[rows].mean(), 3))]
            for label, rows in (("floor-free (maximum uncensored)", ~floor),
                                ("with a floor term (maximum censored)", floor), ("all", np.ones_like(floor)))]


K_STAR_DESIGNS = (("Burr, p = 0.33", *burr_pair(0.33)), ("Burr, p = 0.70", *burr_pair(0.70)),
                  ("Pareto(1) by Pareto(1)", Pareto(1.0), Pareto(1.0)))


def k_star_table(n: int = 200, draws: int = 200) -> list[list]:
    """``reiss_thomas_k``'s k* at its defaults for ``new`` and ``efg``, draws from ``stream(1, r)``.

    Replicate r of ``censored._replicates`` at seed 1 is ``generate_censored(..., stream(1, r))``, and a block's
    path has each row's lone-sample bits, so the scan of row r gives that draw's ``reiss_thomas_k(s, est).k_star``.
    """
    rows = []
    for label, model_x, model_y in K_STAR_DESIGNS:
        for est in ("new", "efg"):
            ks = np.arange(min_valid_k(est), n)
            paths = censored._replicates(model_x, model_y, n, draws, 1, lambda v: _sweep(v, est, ks), 1)
            k_star = np.array([K_MIN + int(np.nanargmin(_criterion(est, ks, path, THETA, K_MIN))) for path in paths])
            at_k_star = paths[np.arange(draws), k_star - ks[0]]
            rows.append([
                label, f"{n:,} ({draws} draws)".replace(",", " "), f"`{est}`",
                cell("{}", (np.median(k_star), 1 if np.median(k_star) % 1 else 0)),
                cell("{}", (np.mean(k_star <= 10), 2)),
                cell("{} ({})", sig(np.median(at_k_star), 3), sig(model_x.true_evi, 1)),
            ])
    return rows


HEADERS = {  # each table's header row in README
    "floor": "| design | k | floor share | floor part of the estimate, where present | mean (target) "
             "| scaled variance (target) | without floor terms: mean, scaled variance |",
    "ks_batches": "| batch | draws with a floor term | median KS, all draws | median KS with floor terms "
                  "| median KS without |",
    "coverage": "| draws | count | coverage |",
    "k_star": "| design | n | estimator | median `k*` | share `k*` ≤ 10 | median estimate at `k*` (true index) |",
}


def all_tables() -> dict[str, list[list]]:
    """Every table tier-1 checks, keyed as ``HEADERS``; the test_04 draws are made once."""
    samples = [draw(Pareto(1.0), Pareto(1.0), N, 0, r) for r in range(DRAWS)]
    return {"floor": floor_table(samples), "ks_batches": ks_table(samples), "coverage": coverage_table(samples),
            "k_star": k_star_table()}


if __name__ == "__main__":
    tables = all_tables()
    if "--slow" in sys.argv[1:]:
        tables["k_star"] += k_star_table(2_000, 100)
    for name, rows in tables.items():
        print(HEADERS[name], "|---" * HEADERS[name].count(" | ") + "|---|", sep="\n")
        print("\n".join("| " + " | ".join(map(str, row)) + " |" for row in rows), end="\n\n")
