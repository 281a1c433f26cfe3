"""Extreme value index estimation for randomly right-censored heavy-tailed data.

The package covers the full workflow: heavy-tailed model simulation,
censored-sample handling, five tail index estimators (including a randomly
weighted one that stays stable under strong censoring), the exact piecewise
tail step function behind it, Kolmogorov-Smirnov / Cramer-von Mises fit
statistics with Monte Carlo p-values, adaptive threshold selection, and a
seeded Monte Carlo harness.  The ``tailcens`` CLI exposes the same
operations for batch use.

Start-up is lazy: ``import tailcens`` registers every library module in
``sys.modules`` and as a package attribute without running it, and a module
runs on first use, e.g. ``tailcens.hill`` runs ``estimators``.  So a CLI
call runs only the modules its subcommand uses, and ``--help``, like a usage
error that argparse or a count flag reports, loads no numpy.
"""

import importlib.util
import sys

# public name -> the module that defines it, read by __getattr__ on first use
_EXPORTS = {name: module for module, names in {
    "censored": "SortedCensoredSample censor generate_censored sort_censored",
    "distributions": "Burr CensoringProfile Frechet HeavyTailModel LogGamma ModelSpecError Pareto censoring_profile "
                     "format_model parse_model",
    "estimators": "ESTIMATOR_IDS EstimateReport KaplanMeierCurve UndefinedEstimateError asymptotic_ci efg "
                  "estimate_report evaluate hill kaplan_meier new_terms new_weighted p_hat sweep weighted_functional "
                  "ww1 ww2",
    "harness": "McConfig McResult default_k_grid run_bias_rmse run_variance_check",
    "io": "CsvFormatError derive_survival read_censored_csv read_raw_records write_censored_csv",
    "rng": "stream",
    "selection": "KSelection reiss_thomas_k",
    "tailprocess": "DegenerateNullError GofReport TailProcessCurve cvm_stat delta_curve gof_pvalue integrate_delta "
                   "ks_stat",
}.items() for name in names.split()}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"

# each library module goes in sys.modules and on the package, to run on first attribute access;
# cli stays out: ``python -m tailcens.cli`` runs it as __main__
for _name in ("censored", "distributions", "estimators", "harness", "io", "parallel", "rng", "rules", "selection",
              "tailprocess"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
