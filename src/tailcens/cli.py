"""Command-line front end.

Subcommands: ``simulate | estimate | select-k | gof | convert``.  All output
is CSV with a header row, numbers at 6 significant digits, missing cells
empty.  Exit status: 0 on success, 2 on usage errors, 1 on data or runtime
errors.  Every random quantity is driven by an explicit ``--seed``, so
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import estimators, io
from .censored import sort_censored
from .distributions import ModelSpecError, parse_model
from .harness import McConfig, default_k_grid, run_bias_rmse, write_meta, write_result_csv
from .parallel import _check_workers
from .selection import reiss_thomas_k
from .tailprocess import GOF_CSV_HEADER, gof_pvalue

ESTIMATE_CSV_HEADER = "estimator,k,value,p_hat,std_err,ci_lo,ci_hi"
SELECT_CSV_HEADER = "k_star,theta,estimator"
WORKERS_HELP = "integer >= 1, accepted but without effect: replicates run in order on one thread"


def _model_arg(text: str):
    try:
        return parse_model(text)
    except ModelSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _k_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"k must be an integer or 'auto', got {text!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"k must be >= 1, got {k}")
    return k


def _workers_arg(text: str) -> int:
    try:
        return _check_workers(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"workers must be an integer >= 1, got {text!r}") from None


def _estimators_arg(text: str) -> tuple[str, ...]:
    ids = tuple(part.strip() for part in text.split(",") if part.strip())
    if not ids:
        raise argparse.ArgumentTypeError("empty estimator list")
    for est in ids:
        if est not in estimators.ESTIMATOR_IDS:
            known = "|".join(estimators.ESTIMATOR_IDS)
            raise argparse.ArgumentTypeError(f"unknown estimator {est!r} (expected one of {known})")
    return ids


def _level_arg(text: str) -> float:
    try:
        level = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"confidence level must be a number, got {text!r}") from None
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError(f"confidence level must lie in (0, 1), got {text}")
    return level


def _theta_arg(text: str) -> float:
    try:
        theta = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"theta must be a number, got {text!r}") from None
    if not 0.0 <= theta <= 0.5:
        raise argparse.ArgumentTypeError(f"theta must lie in [0, 0.5], got {text}")
    return theta


def _k_grid_arg(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"k grid must be comma-separated integers, got {text!r}") from None
    if not grid or any(k < 1 for k in grid):
        raise argparse.ArgumentTypeError(f"k grid entries must be >= 1, got {text!r}")
    return grid


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _row(est: str, k: int, value, p, std_err=None, ci_lo=None, ci_hi=None) -> str:
    cells = [est, str(int(k)), io.fmt(value), io.fmt(p), io.fmt(std_err), io.fmt(ci_lo), io.fmt(ci_hi)]
    return ",".join(cells)


def _cmd_estimate(args) -> None:
    z, d = io.read_censored_csv(args.input)
    s = sort_censored(z, d)
    lines = [ESTIMATE_CSV_HEADER]
    for est in args.estimator:
        if args.all_k:
            ks = range(estimators.min_valid_k(est), s.n)
            values = estimators.sweep(s, est, list(ks))
        elif args.k == "auto":
            ks = [reiss_thomas_k(s, est, theta=args.theta).k_star]
            values = estimators.sweep(s, est, ks)
        else:
            ks = [args.k]
            values = [estimators.evaluate(s, args.k, est)]  # errors carry their message
        for k, value in zip(ks, values):
            p = estimators.p_hat(s, k)
            ci = estimators.attached_ci(est, value, p, k, args.ci) or ()
            lines.append(_row(est, k, value, p, *ci))
    with _open_out(args.out) as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_select_k(args) -> None:
    z, d = io.read_censored_csv(args.input)
    s = sort_censored(z, d)
    sel = reiss_thomas_k(s, args.estimator, theta=args.theta, k_min=args.k_min, k_max=args.k_max)
    with _open_out(args.out) as fh:
        fh.write(SELECT_CSV_HEADER + "\n")
        fh.write(f"{sel.k_star},{io.fmt(sel.theta)},{sel.estimator_id}\n")
    if args.criterion_out:
        with open(args.criterion_out, "w", encoding="utf-8", newline="") as fh:
            fh.write("k,criterion\n")
            for k, value in zip(sel.k_grid, sel.criterion_values):
                fh.write(f"{k},{io.fmt(value)}\n")


def _cmd_gof(args) -> None:
    z, d = io.read_censored_csv(args.input)
    s = sort_censored(z, d)
    report = gof_pvalue(s, args.k, reps=args.reps, seed=args.seed, workers=args.workers)
    with _open_out(args.out) as fh:
        fh.write(GOF_CSV_HEADER + "\n")
        fh.write(
            f"{io.fmt(report.ks)},{io.fmt(report.cvm)},{io.fmt(report.p_value_ks)},"
            f"{io.fmt(report.p_value_cvm)},{report.k},{report.n},{report.reps},{report.seed}\n"
        )


def _cmd_simulate(args) -> None:
    k_grid = args.k_grid if args.k_grid is not None else default_k_grid(args.n)
    cfg = McConfig(
        model_x=args.model,
        model_y=args.censor,
        n=args.n,
        reps=args.reps,
        k_grid=tuple(k_grid),
        estimators=args.estimators,
        seed=args.seed,
        complete_data=args.complete,
    )
    result = run_bias_rmse(cfg, workers=args.workers)
    with _open_out(args.out) as fh:
        write_result_csv(result, fh)
    if args.out and args.out != "-":
        with open(args.out + ".meta", "w", encoding="utf-8", newline="") as fh:
            write_meta(cfg, fh)


def _cmd_convert(args) -> None:
    records = io.read_raw_records(args.input)
    z, d = io.derive_survival(records)
    with _open_out(args.out) as fh:
        io.write_censored_csv(fh, z, d)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailcens",
        description="Extreme value index estimation for randomly right-censored heavy-tailed data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the tail index from a z,delta CSV")
    p_est.add_argument("--input", required=True, help="censored sample CSV (header z,delta)")
    p_est.add_argument("--k", type=_k_arg, default="auto", help="threshold count, or 'auto' (default)")
    p_est.add_argument(
        "--estimator", type=_estimators_arg, default=("new",),
        help="comma-separated ids among hill|efg|ww1|ww2|new (default new)",
    )
    p_est.add_argument("--ci", type=_level_arg, default=None, help="confidence level for the new estimator")
    p_est.add_argument("--all-k", action="store_true", help="emit one row per valid k instead of a single k")
    p_est.add_argument("--theta", type=_theta_arg, default=0.3, help="stability exponent for --k auto (default 0.3)")
    _add_common(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_sel = sub.add_parser("select-k", help="adaptive threshold choice")
    p_sel.add_argument("--input", required=True, help="censored sample CSV (header z,delta)")
    p_sel.add_argument("--estimator", default="new", choices=estimators.ESTIMATOR_IDS)
    p_sel.add_argument("--theta", type=_theta_arg, default=0.3, help="stability exponent (default 0.3)")
    p_sel.add_argument("--k-min", type=int, default=2)
    p_sel.add_argument("--k-max", type=int, default=None)
    p_sel.add_argument("--criterion-out", default=None, help="also write the k,criterion curve here")
    _add_common(p_sel)
    p_sel.set_defaults(func=_cmd_select_k)

    p_gof = sub.add_parser("gof", help="goodness-of-fit statistics with Monte Carlo p-values")
    p_gof.add_argument("--input", required=True, help="censored sample CSV (header z,delta)")
    p_gof.add_argument("--k", type=int, required=True)
    p_gof.add_argument("--reps", type=int, default=500, help="null replications (default 500)")
    p_gof.add_argument("--workers", type=_workers_arg, default=1, help=WORKERS_HELP)
    _add_common(p_gof)
    p_gof.set_defaults(func=_cmd_gof)

    p_sim = sub.add_parser("simulate", help="bias/RMSE Monte Carlo experiment")
    p_sim.add_argument("--model", type=_model_arg, required=True, help="lifetime model spec, e.g. burr:1,2,1")
    p_sim.add_argument("--censor", type=_model_arg, required=True, help="censoring model spec")
    p_sim.add_argument("--n", type=int, required=True, help="sample size per replication")
    p_sim.add_argument("--reps", type=int, required=True, help="number of replications")
    p_sim.add_argument("--k-grid", type=_k_grid_arg, default=None, help="comma-separated k values (default auto)")
    p_sim.add_argument(
        "--estimators", type=_estimators_arg, default=("new", "efg", "ww1"),
        help="comma-separated ids (default new,efg,ww1)",
    )
    p_sim.add_argument("--complete", action="store_true", help="complete-data mode: no censoring drawn")
    p_sim.add_argument("--workers", type=_workers_arg, default=1, help=WORKERS_HELP)
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_conv = sub.add_parser("convert", help="turn start,end,status records into a z,delta CSV")
    p_conv.add_argument("--input", required=True, help="raw records CSV (header start,end,status)")
    _add_common(p_conv)
    p_conv.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
