"""Command-line front end.

Subcommands: ``simulate | estimate | select-k | gof | convert``.  All output
is CSV with a header row, numbers at 6 significant digits, missing cells
empty.  Exit status: 0 on success, 2 on usage errors, 1 on data or runtime
errors, 141 when the reader closes the pipe early.  Every random quantity is
driven by an explicit ``--seed`` (``gof`` and ``simulate``), so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from contextlib import contextmanager
from functools import partial

# no tailcens code calls BLAS, so numpy's import need not start OpenBLAS's thread pool; a value the user set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# lazy module objects: each runs when a command first uses it, so --help loads no numpy
from . import censored, distributions, estimators, harness, io, rules, selection, tailprocess

ESTIMATE_CSV_HEADER = "estimator,k,value,p_hat,std_err,ci_lo,ci_hi"
SELECT_CSV_HEADER = "k_star,theta,estimator"
ROW_CHUNK = 4096  # table rows held as Python scalars at a time: a table of every k stays O(n) arrays
WORKERS_HELP = "integer >= 1: gof forks its replicates over up to this many CPUs (same output); simulate runs in order"


def _parsed(parse, text: str):
    """``parse(text)``, or the text itself when it does not parse, for the rule to reject."""
    try:
        return parse(text)
    except ValueError:
        return text


def _rule(check, parse=str):
    """argparse type applying the library rule ``check`` to the parsed text; its ValueError exits 2.

    Callers pass ``check`` as a lambda that looks the rule up when the flag is parsed, so building the
    parser runs no library module.
    """

    def convert(text: str):
        try:
            return check(_parsed(parse, text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _count(lo: int, name: str):
    """argparse type for an integer flag >= lo, checked by the library's count rule."""
    return _rule(lambda v: rules._check_count(v, lo, name), int)


def _k_grid(text: str) -> tuple[int, ...]:
    # no sample yet: only the lower end of the threshold range applies
    return tuple(rules._check_count(_parsed(int, part), 1, "k") for part in text.split(","))


def _estimator_ids(text: str) -> tuple[str, ...]:
    ids = tuple(part.strip() for part in text.split(",") if part.strip())
    if not ids:
        raise ValueError("empty estimator list")
    return tuple(map(estimators._checked_id, ids))


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _add_common(sub: argparse.ArgumentParser, draws: bool = False) -> None:
    if draws:  # only the commands that draw take a seed
        sub.add_argument("--seed", type=_count(0, "seed"), default=0, help="random seed, an integer >= 0 (default 0)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _sample(path: str):
    """The censored sample in the z,delta CSV at ``path``, sorted: every command's one read of its input."""
    return censored.sort_censored(*io.read_censored_csv(path))


def _write_rows(fh, row, *columns) -> None:
    """Write ``row(*scalars)`` for each row of the equal-length arrays ``columns``, ``ROW_CHUNK`` rows at a time."""
    for at in range(0, len(columns[0]), ROW_CHUNK):
        fh.writelines(map(row, *(column[at:at + ROW_CHUNK].tolist() for column in columns)))


def _cmd_estimate(args) -> None:
    import numpy as np

    s = _sample(args.input)
    tables = []  # every column of every estimator, before the output opens: a failed call writes no file
    for est in args.estimator:
        if args.all_k or args.k in (None, "auto"):  # a None default lets argparse see --k auto clash with --all-k
            ks = (np.arange(estimators.min_valid_k(est), s.n) if args.all_k
                  else np.array([selection.reiss_thomas_k(s, est, theta=args.theta).k_star]))
            values = estimators.sweep(s, est, ks)
        else:  # evaluate reads sweep's kernel, so its bits, and raises where k is out of range or undefined
            ks, values = np.array([args.k]), np.array([estimators.evaluate(s, args.k, est)])
        tables.append((est, ks, values, estimators._p_hat_path(s, ks)))  # p_hat at every k at once

    def row(est, k, value, p):
        ci = estimators.attached_ci(est, value, p, k, args.ci)
        ci_cells = ",".join(map(io.fmt, ci)) if ci else ",,"
        return f"{est},{k},{io.fmt_float(value)},{io.fmt_float(p)},{ci_cells}\n"

    with _open_out(args.out) as fh:
        fh.write(ESTIMATE_CSV_HEADER + "\n")
        for est, *columns in tables:
            _write_rows(fh, partial(row, est), *columns)


def _cmd_select_k(args) -> None:
    s = _sample(args.input)
    sel = selection.reiss_thomas_k(s, args.estimator, theta=args.theta, k_min=args.k_min, k_max=args.k_max)
    with _open_out(args.out) as fh:
        fh.write(SELECT_CSV_HEADER + "\n")
        fh.write(f"{sel.k_star},{io.fmt(sel.theta)},{sel.estimator_id}\n")
    if args.criterion_out:
        with _open_out(args.criterion_out) as fh:
            fh.write("k,criterion\n")
            _write_rows(fh, lambda k, value: f"{k},{io.fmt_float(value)}\n", sel.k_grid, sel.criterion_values)


def _cmd_gof(args) -> None:
    s = _sample(args.input)
    report = tailprocess.gof_pvalue(s, args.k, reps=args.reps, seed=args.seed, workers=args.workers)
    with _open_out(args.out) as fh:
        fh.write(tailprocess.GOF_CSV_HEADER + "\n")
        fh.write(
            f"{io.fmt(report.ks)},{io.fmt(report.cvm)},{io.fmt(report.p_value_ks)},"
            f"{io.fmt(report.p_value_cvm)},{report.k},{report.n},{report.reps},{report.seed}\n"
        )


def _cmd_simulate(args) -> None:
    k_grid = args.k_grid if args.k_grid is not None else harness.default_k_grid(args.n)
    cfg = harness.McConfig(
        model_x=args.model,
        model_y=args.censor,
        n=args.n,
        reps=args.reps,
        k_grid=tuple(k_grid),
        estimators=args.estimators,
        seed=args.seed,
        complete_data=args.complete,
    )
    result = harness.run_bias_rmse(cfg, workers=args.workers)
    with _open_out(args.out) as fh:
        harness.write_result_csv(result, fh)
        if fh is not sys.stdout:  # a file gets a config echo beside it
            with _open_out(args.out + ".meta") as meta:
                harness.write_meta(cfg, meta)


def _cmd_convert(args) -> None:
    z, d = io._survival_lists(io.read_raw_records(args.input))  # lists: convert loads no numpy
    with _open_out(args.out) as fh:
        io.write_censored_csv(fh, z, d)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailcens",
        description="Extreme value index estimation for randomly right-censored heavy-tailed data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    theta = _rule(lambda v: rules._check_theta(v), float)
    workers = _rule(lambda v: rules._check_workers(v), int)
    estimator_ids, model = _rule(_estimator_ids), _rule(lambda v: distributions.parse_model(v))

    p_est = sub.add_parser("estimate", help="estimate the tail index from a z,delta CSV")
    p_est.add_argument("--input", required=True, help="censored sample CSV (header z,delta)")
    k_choice = p_est.add_mutually_exclusive_group()
    k_choice.add_argument(
        "--k", type=_rule(lambda v: v if v == "auto" else rules._check_count(v, 1, "k"), int), default=None,
        help="threshold count, or 'auto' (default)",
    )
    k_choice.add_argument("--all-k", action="store_true", help="emit one row per valid k instead of a single k")
    p_est.add_argument(
        "--estimator", type=estimator_ids, default=("new",),
        help="comma-separated ids among hill|efg|ww1|ww2|new (default new)",
    )
    p_est.add_argument(
        "--ci", type=_rule(lambda v: rules._check_level(v), float), default=None,
        help="confidence level for the new estimator",
    )
    p_est.add_argument("--theta", type=theta, default=0.3, help="stability exponent for --k auto (default 0.3)")
    _add_common(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_sel = sub.add_parser("select-k", help="adaptive threshold choice")
    p_sel.add_argument("--input", required=True, help="censored sample CSV (header z,delta)")
    p_sel.add_argument(
        "--estimator", type=_rule(lambda v: estimators._checked_id(v)), default="new",
        help="one of hill|efg|ww1|ww2|new (default new)",
    )
    p_sel.add_argument("--theta", type=theta, default=0.3, help="stability exponent (default 0.3)")
    p_sel.add_argument("--k-min", type=_count(2, "k_min"), default=2)
    p_sel.add_argument("--k-max", type=_count(3, "k_max"), default=None)
    p_sel.add_argument("--criterion-out", default=None, help="also write the k,criterion curve here")
    _add_common(p_sel)
    p_sel.set_defaults(func=_cmd_select_k)

    p_gof = sub.add_parser("gof", help="goodness-of-fit statistics with Monte Carlo p-values")
    p_gof.add_argument("--input", required=True, help="censored sample CSV (header z,delta)")
    p_gof.add_argument("--k", type=_count(2, "k"), required=True)
    p_gof.add_argument("--reps", type=_count(100, "reps"), default=500, help="null replications (default 500)")
    p_gof.add_argument("--workers", type=workers, default=1, help=WORKERS_HELP)
    _add_common(p_gof, draws=True)
    p_gof.set_defaults(func=_cmd_gof)

    p_sim = sub.add_parser("simulate", help="bias/RMSE Monte Carlo experiment")
    p_sim.add_argument("--model", type=model, required=True, help="lifetime model spec, e.g. burr:1,2,1")
    p_sim.add_argument("--censor", type=model, required=True, help="censoring model spec")
    p_sim.add_argument("--n", type=_count(3, "n"), required=True, help="sample size per replication")
    p_sim.add_argument("--reps", type=_count(1, "reps"), required=True, help="number of replications")
    p_sim.add_argument("--k-grid", type=_rule(_k_grid), default=None, help="comma-separated k values (default auto)")
    p_sim.add_argument(
        "--estimators", type=estimator_ids, default=("new", "efg", "ww1"),
        help="comma-separated ids (default new,efg,ww1)",
    )
    p_sim.add_argument("--complete", action="store_true", help="complete-data mode: no censoring drawn")
    p_sim.add_argument("--workers", type=workers, default=1, help=WORKERS_HELP)
    _add_common(p_sim, draws=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_conv = sub.add_parser("convert", help="turn start,end,status records into a z,delta CSV")
    p_conv.add_argument("--input", required=True, help="raw records CSV (header start,end,status)")
    _add_common(p_conv)
    p_conv.set_defaults(func=_cmd_convert)

    return parser


def _pipe_closed() -> int:
    """Point stdout at ``os.devnull``, so that its last flush stays silent, and give the status of a closed pipe."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 141  # 128 + SIGPIPE: what a shell reports for a writer that the signal ended


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except BrokenPipeError:  # the reader closed the pipe early: no error of the data, so nothing to report
        return _pipe_closed()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    """Run :func:`main` as a command and leave by ``os._exit`` after the atexit callbacks and a flush of stdio.

    argparse's ``SystemExit`` (``--help``, usage errors) gives the status too.  A reader that closed the pipe
    before the last flush gives status 141 and no message, as in ``main``; where a flush fails otherwise, the
    interpreter ends as usual and reports it.  ``main`` has closed every output it opened.
    """
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()  # line-buffered: every message has ended its line, so a failed stdout flush skips nothing
    except BrokenPipeError:
        status = _pipe_closed()
    except (OSError, ValueError):
        raise SystemExit(status) from None
    os._exit(status)


if __name__ == "__main__":
    entry()
