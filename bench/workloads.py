"""Seeded inputs and command sequences of the benchmark workloads.

Inputs are drawn with the standard library's ``random`` module, so they
depend on the workload seed alone and never on the program under test.
Censored samples follow the README Burr design, lifetime ``burr:1,2,1``
censored by ``burr:1,2,2.030303`` (uncensored share p = 0.33 in the tail).
Raw survival records are integer-day data shaped like the Australian AIDS
case study: many ties, same-day events, roughly 60% deaths, diagnosis
dates spread over 1982-1991.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass
from pathlib import Path

ALL_ESTIMATORS = "hill,efg,ww1,ww2,new"
P033 = ("--model", "burr:1,2,1", "--censor", "burr:1,2,2.030303")
P070 = ("--model", "burr:1,2,1", "--censor", "burr:1,2,0.428571")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass.

    ``label`` names the call and its output files, ``metric`` the
    per-command metric it adds to.  In ``argv``, ``{in}`` stands for the
    input directory and ``{out}`` for the pass's output directory.
    """

    label: str
    metric: str
    argv: tuple[str, ...]

    def outputs(self) -> list[str]:
        """Output file names the call writes into ``{out}``."""
        names = [a.removeprefix("{out}/") for a in self.argv if a.startswith("{out}/")]
        if self.metric == "simulate_s":
            names.append(f"{self.label}.csv.meta")
        return names

    def flag(self, name: str) -> str | None:
        """Value that follows ``name`` in ``argv``, or None."""
        return self.argv[self.argv.index(name) + 1] if name in self.argv else None

    def with_workers(self, workers: int) -> "Call":
        """The same call at another ``--workers`` count."""
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return Call(self.label, self.metric, tuple(argv))

    def resolve(self, in_dir: Path, out_dir: Path) -> list[str]:
        return [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in self.argv]


def _estimate(label, metric, sample, *flags):
    return Call(label, metric, ("estimate", "--input", sample, *flags, "--out", f"{{out}}/{label}.csv"))


def _gof(label, sample, k, reps, seed, workers):
    return Call(label, "gof_s", ("gof", "--input", sample, "--k", str(k), "--reps", str(reps),
                                 "--seed", str(seed), "--workers", str(workers), "--out", f"{{out}}/{label}.csv"))


def _simulate(label, design, reps, seed, workers):
    return Call(label, "simulate_s", ("simulate", *design, "--n", "200", "--reps", str(reps),
                                      "--seed", str(seed), "--workers", str(workers), "--out", f"{{out}}/{label}.csv"))


def calls(workload: str, seed: int) -> list[Call]:
    """The command sequence of one pass of ``workload``."""
    if workload == "cli-small":
        s = "{in}/sample200.csv"
        return [
            Call("convert", "convert_s", ("convert", "--input", "{in}/raw200.csv", "--out", "{out}/convert.csv")),
            _estimate("estimate", "estimate_s", s, "--k", "40", "--estimator", ALL_ESTIMATORS, "--ci", "0.95"),
            _estimate("estimate_auto", "estimate_auto_s", s, "--k", "auto", "--estimator", ALL_ESTIMATORS),
            _estimate("estimate_allk", "estimate_allk_s", s, "--all-k", "--estimator", ALL_ESTIMATORS),
            Call("select_k", "select_k_s", ("select-k", "--input", s, "--out", "{out}/select_k.csv",
                                            "--criterion-out", "{out}/criterion.csv")),
            _gof("gof", s, 40, 100, seed, 1),
            _simulate("simulate", P033, 20, seed, 1),
        ]
    if workload == "tail-scan":
        s = "{out}/convert.csv"  # the commands read what convert wrote in the same pass
        return [
            Call("convert", "convert_s", ("convert", "--input", "{in}/raw20000.csv", "--out", s)),
            _estimate("estimate_auto", "estimate_auto_s", s, "--k", "auto", "--estimator", "new", "--ci", "0.95"),
            _estimate("estimate_allk", "estimate_allk_s", s, "--all-k", "--estimator", "new,efg,ww1"),
            Call("select_k", "select_k_s", ("select-k", "--input", s, "--estimator", "efg",
                                            "--out", "{out}/select_k.csv", "--criterion-out", "{out}/criterion.csv")),
        ]
    if workload == "monte-carlo":
        return [
            _gof("gof_n2000", "{in}/sample2000.csv", 200, 2000, seed, 2),
            _gof("gof_n200", "{in}/sample200.csv", 40, 2000, seed, 2),
            _gof("gof_n20000", "{in}/sample20000.csv", 2000, 100, seed, 2),
            _simulate("simulate_p033", P033, 200, seed, 2),
            _simulate("simulate_p070", P070, 200, seed, 2),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cli-small", "tail-scan", "monte-carlo")

# Traced layers (the package's modules) and the public functions wrapped in
# each; every function reports <module>.<function>.{calls,total_s,self_s}.
LAYERS = {
    "io": ("read_censored_csv", "read_raw_records", "derive_survival", "write_censored_csv"),
    "estimators": ("hill", "p_hat", "efg", "ww1", "ww2", "new_weighted", "asymptotic_ci", "evaluate", "sweep"),
    "selection": ("reiss_thomas_k",),
    "censored": ("sort_censored", "generate_censored"),
    "distributions": ("sample",),
    "rng": ("stream",),
    "tailprocess": ("delta_curve", "ks_stat", "cvm_stat", "gof_pvalue"),
    "harness": ("run_bias_rmse", "write_result_csv", "write_meta"),
    "parallel": ("replicate_map",),
    "cli": ("main",),
}
INPUTS = {  # (kind, size); the file is <kind><size>.csv
    "cli-small": (("raw", 200), ("sample", 200)),
    "tail-scan": (("raw", 20000),),
    "monte-carlo": (("sample", 200), ("sample", 2000), ("sample", 20000)),
}


def _burr(rng: random.Random, lam: float) -> float:
    """Burr(1, 2, lam) variate by inverse transform."""
    u = rng.random()
    while u == 0.0:  # u = 0 would give the variate 0
        u = rng.random()
    return (u ** (-1.0 / lam) - 1.0) ** 0.5


def _sample_lines(rng: random.Random, n: int) -> list[str]:
    lines = ["z,delta"]
    for _ in range(n):
        x, y = _burr(rng, 1.0), _burr(rng, 2.030303)
        lines.append(f"{min(x, y)!r},{int(x <= y)}")
    return lines


def _raw_lines(rng: random.Random, n: int) -> list[str]:
    first, window = dt.date(1982, 1, 1), 3468  # diagnoses up to mid-1991
    lines = ["start,end,status"]
    for _ in range(n):
        life, cens = int(60 * _burr(rng, 1.0)), int(60 * _burr(rng, 0.75))
        start = first + dt.timedelta(days=rng.randrange(window))
        end = start + dt.timedelta(days=min(life, cens))
        lines.append(f"{start.isoformat()},{end.isoformat()},{'D' if life <= cens else 'A'}")
    return lines


def generate(workload: str, seed: int, in_dir: Path) -> None:
    """Write the input files of ``workload`` for ``seed`` into ``in_dir``."""
    in_dir.mkdir(parents=True, exist_ok=True)
    for kind, n in INPUTS[workload]:
        name = f"{kind}{n}.csv"
        rng = random.Random(f"{seed}:{name}")
        lines = _raw_lines(rng, n) if kind == "raw" else _sample_lines(rng, n)
        (in_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
