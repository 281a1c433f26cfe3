"""In-process side of the benchmark: reference output checks and the traced pass.

Run as a child of ``run.py`` with ``src`` on ``PYTHONPATH``:

    python3 bench/inproc.py check <spec.json> <part> <parts>
    python3 bench/inproc.py trace <spec.json>

``check`` compares the CLI outputs named in the spec with references
computed here from the library's pointwise functions; it handles the rows
whose index modulo ``parts`` equals ``part``, so the costly all-k
comparison can be split over processes.  ``trace`` replays a pass by
calling ``tailcens.cli.main`` for each command, with the public functions
of every module wrapped in spans.  Both print one JSON object on stdout.
"""

from __future__ import annotations

import datetime as dt
import functools
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path

from tailcens import cli, estimators, harness, io
from tailcens.censored import sort_censored
from tailcens.distributions import HeavyTailModel, LogGamma, format_model, parse_model
from tailcens.tailprocess import cvm_stat, delta_curve, integrate_delta, ks_stat
from workloads import LAYERS

ESTIMATE_HEADER = "estimator,k,value,p_hat,std_err,ci_lo,ci_hi"
MIN_K = {"new": 2}  # every other estimator is defined from k = 1


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _lines(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _sample(path):
    return sort_censored(*io.read_censored_csv(path))


def _ref_row(s, est, k, ci):
    try:
        value = estimators.evaluate(s, k, est)
    except estimators.UndefinedEstimateError:
        value = None
    p = estimators.p_hat(s, k)
    std_err = lo = hi = None
    if value is not None and ci is not None and est == "new" and p > 0:
        std_err, lo, hi = estimators.asymptotic_ci(value, p, k, ci)
    return ",".join([est, str(k), io.fmt(value), io.fmt(p), io.fmt(std_err), io.fmt(lo), io.fmt(hi)])


def check_estimate(argv, part, parts):
    s = _sample(_arg(argv, "--input"))
    ests = _arg(argv, "--estimator", "new").split(",")
    ci = float(_arg(argv, "--ci")) if "--ci" in argv else None
    lines = _lines(_arg(argv, "--out"))
    if part == 0 and lines[:1] != [ESTIMATE_HEADER]:
        yield f"header {lines[:1]!r}"
    rows = lines[1:]
    if "--all-k" in argv:
        keys = [(e, k) for e in ests for k in range(MIN_K.get(e, 1), s.n)]
    elif _arg(argv, "--k") == "auto":
        keys = [(e, int(row.split(",")[1])) for e, row in zip(ests, rows)]
        if len(rows) != len(ests) or any(not 2 <= k <= s.n - 1 for _, k in keys):
            yield f"auto k outside [2, {s.n - 1}]: {keys}"
            return
    else:
        keys = [(e, int(_arg(argv, "--k"))) for e in ests]
    if len(rows) != len(keys):
        yield f"{len(rows)} rows, expected {len(keys)}"
        return
    for idx in range(part, len(rows), parts):
        expected = _ref_row(s, *keys[idx], ci)
        if rows[idx] != expected:
            yield f"row {idx + 1}: {rows[idx]!r} != reference {expected!r}"
            return


def check_select_k(argv, part, parts):
    if part != 0:
        return
    n = _sample(_arg(argv, "--input")).n
    lines = _lines(_arg(argv, "--out"))
    crit = _lines(_arg(argv, "--criterion-out"))
    est = _arg(argv, "--estimator", "new")
    if len(lines) != 2 or lines[0] != "k_star,theta,estimator" or not lines[1].endswith(f",0.3,{est}"):
        yield f"select-k output {lines!r}"
        return
    if crit[0] != "k,criterion" or [int(r.split(",")[0]) for r in crit[1:]] != list(range(2, n)):
        yield "criterion curve: header or k grid"
        return
    values = {int(k): float(v) for k, v in (r.split(",") for r in crit[1:]) if v}
    k_star = int(lines[1].split(",")[0])
    if values.get(k_star) != min(values.values()):
        yield f"k_star {k_star} is not at the criterion minimum"


def check_gof(argv, part, parts):
    if part != 0:
        return
    s = _sample(_arg(argv, "--input"))
    k = int(_arg(argv, "--k"))
    new = estimators.new_weighted(s, k)
    integral = integrate_delta(delta_curve(s, k))
    if not abs(integral - new) <= 1e-12 * abs(new):
        yield f"curve integral {integral!r} != new {new!r} at k={k}"
    gamma, p = estimators.hill(s, k), estimators.p_hat(s, k)
    lines = _lines(_arg(argv, "--out"))
    expected = [io.fmt(ks_stat(s, k, gamma, p)), io.fmt(cvm_stat(s, k, gamma, p))]
    fields = lines[1].split(",") if len(lines) == 2 else []
    tail = [str(k), str(s.n), _arg(argv, "--reps"), _arg(argv, "--seed")]
    if lines[:1] != ["ks,cvm,p_ks,p_cvm,k,n,reps,seed"] or fields[:2] != expected or fields[4:] != tail:
        yield f"gof output {lines!r}, expected ks,cvm {expected} and k,n,reps,seed {tail}"
    elif not all(0.0 < float(v) <= 1.0 for v in fields[2:4]):
        yield f"p-values outside (0, 1]: {fields[2:4]}"


def check_simulate(argv, part, parts):
    if part != 0:
        return
    n, reps = int(_arg(argv, "--n")), int(_arg(argv, "--reps"))
    ests = _arg(argv, "--estimators", "new,efg,ww1").split(",")
    grid = harness.default_k_grid(n)
    out = _arg(argv, "--out")
    lines = _lines(out)
    if lines[:1] != ["estimator,k,bias,rmse,undefined_count"]:
        yield f"header {lines[:1]!r}"
    rows = [r.split(",") for r in lines[1:]]
    keys = [(e, str(k)) for e in ests for k in grid]
    if [tuple(r[:2]) for r in rows] != keys:
        yield f"{len(rows)} rows do not follow the estimator x k grid"
    elif not all(len(r) == 5 and 0 <= int(r[4]) <= reps and (r[3] == "" or float(r[3]) >= 0) for r in rows):
        yield "a row has a bad rmse or undefined count"
    meta = dict(line.split("=", 1) for line in _lines(out + ".meta"))
    expected = {"n": str(n), "reps": str(reps), "seed": _arg(argv, "--seed"), "estimators": ",".join(ests),
                "k_grid": ",".join(map(str, grid)), "complete_data": "0"}
    if any(meta.get(key) != value for key, value in expected.items()):
        yield f"meta sidecar {meta}"
    for key, flag in (("model_x", "--model"), ("model_y", "--censor")):
        if meta.get(key) != format_model(parse_model(_arg(argv, flag))):
            yield f"meta {key}={meta.get(key)!r} does not match {_arg(argv, flag)}"


def check_convert(argv, part, parts):
    if part != 0:
        return
    raw = [r.split(",") for r in _lines(_arg(argv, "--input"))[1:]]
    expected = [
        (float((dt.date.fromisoformat(end) - dt.date.fromisoformat(start)).days + 1), int(status == "D"))
        for start, end, status in raw
    ]
    lines = _lines(_arg(argv, "--out"))
    got = [(float(z), int(d)) for z, d in (r.split(",") for r in lines[1:])]
    if lines[:1] != ["z,delta"] or got != expected:
        yield f"convert output differs from days + 1 and D/A of the {len(raw)} records"


CHECKS = {
    "estimate": check_estimate,
    "select-k": check_select_k,
    "gof": check_gof,
    "simulate": check_simulate,
    "convert": check_convert,
}


def run_checks(spec, part, parts) -> dict:
    failures = {}
    for label, argv in spec["calls"]:
        try:
            found = list(CHECKS[argv[0]](argv, part, parts))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            failures[label] = found
    return {"failures": failures}


class Tracer:
    """In-memory spans: (id, parent, trace, name, start, end, attrs).

    ``trace`` is the id of the root span, one per CLI call.  Each thread
    keeps its own stack of open spans; a span started in a worker thread
    names its parent explicitly through ``link``.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, note=None, link=None):
        link = link or self.current()
        sid = next(self._ids)
        parent, trace = link if link else (None, sid)
        stack = self._stack()
        stack.append((sid, trace))
        attrs = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                attrs = note(args, kwargs, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, trace, name, start, end, attrs))

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return wrapper


def _nan_count(values):
    return sum(1 for v in values if math.isnan(v))


NOTES = {
    "io.read_censored_csv": lambda a, kw, r: {"rows": len(r[0])},
    "io.read_raw_records": lambda a, kw, r: {"rows": len(r)},
    "io.write_censored_csv": lambda a, kw, r: {"rows": len(a[1])},
    "estimators.sweep": lambda a, kw, r: {"k_evals": len(r), "undefined": _nan_count(r)},
    "estimators.p_hat": lambda a, kw, r: {"zero": r == 0.0},
    "tailprocess.gof_pvalue": lambda a, kw, r: {"reps": r.reps},
    "harness.run_bias_rmse": lambda a, kw, r: {"reps": r.config.reps},
    "parallel.replicate_map": lambda a, kw, r: {"workers": max(1, a[2] if len(a) > 2 else kw.get("workers", 1))},
}


def install(tracer: Tracer) -> None:
    """Wrap the target functions at every module binding that holds them.

    Module globals bound by ``from ... import`` and module-level dicts
    (such as the estimator dispatch table) are rebound, so every path the
    CLI takes reaches a wrapper.  The models' ``sample`` methods are
    wrapped on their classes.
    """
    modules = [m for name, m in sys.modules.items() if name == "tailcens" or name.startswith("tailcens.")]
    swaps = {}
    for layer, names in LAYERS.items():
        if layer == "distributions":
            continue  # methods, wrapped on their classes below
        module = sys.modules[f"tailcens.{layer}"]
        for fname in names:
            orig, name = getattr(module, fname), f"{layer}.{fname}"
            target = _traced_map(tracer, orig) if name == "parallel.replicate_map" else orig
            swaps[id(orig)] = tracer.wrap(name, target, NOTES.get(name))
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in swaps:
                setattr(module, attr, swaps[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in swaps:
                        value[key] = swaps[id(item)]
    for cls in (HeavyTailModel, LogGamma):
        cls.sample = tracer.wrap("distributions.sample", cls.__dict__["sample"])


def _traced_map(tracer, replicate_map):
    """``replicate_map`` whose per-replicate callable runs in a child span."""

    def traced(fn, count, workers=1):
        link = tracer.current()
        return replicate_map(lambda r: tracer.call("parallel.replicate", fn, (r,), {}, link=link), count, workers)

    return traced


def _covered(intervals):
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def aggregate(spans, wall) -> dict:
    """Per-function calls, total and self time, plus the derived layer metrics."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    stats = {}
    for sid, _, _, name, start, end, _ in spans:
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - _covered(children.get(sid, ()))
    out = {}
    for name, (calls, total, self_s) in sorted(stats.items()):
        out[f"{name}.calls"], out[f"{name}.total_s"], out[f"{name}.self_s"] = calls, total, self_s

    def attr_sum(name, key):
        return sum(s[6][key] for s in spans if s[3] == name and s[6])

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    def under_gof(span):
        while span[1] is not None:
            span = by_id[span[1]]
            if span[3] == "tailprocess.gof_pvalue":
                return True
        return False

    rows = sum(attr_sum(f"io.{f}", "rows") for f in ("read_censored_csv", "read_raw_records", "write_censored_csv"))
    io_time = sum(total(f"io.{f}") for f in ("read_censored_csv", "read_raw_records", "write_censored_csv"))
    null_reps = {s[0] for s in spans if s[3] == "parallel.replicate" and under_gof(s)}
    degenerate = {s[1] for s in spans if s[3] == "estimators.p_hat" and s[6] and s[6]["zero"] and s[1] in null_reps}
    map_capacity = sum((s[5] - s[4]) * s[6]["workers"] for s in spans if s[3] == "parallel.replicate_map" and s[6])
    roots = sum(s[5] - s[4] for s in spans if s[1] is None)
    out.update({
        "io.rows_per_s": ratio(rows, io_time),
        "estimators.sweep.k_evals": attr_sum("estimators.sweep", "k_evals"),
        "estimators.sweep.undefined_frac": ratio(attr_sum("estimators.sweep", "undefined"),
                                                 attr_sum("estimators.sweep", "k_evals")),
        "tailprocess.null_rep_s": ratio(total("tailprocess.gof_pvalue"), attr_sum("tailprocess.gof_pvalue", "reps")),
        "tailprocess.null_degenerate_frac": ratio(len(degenerate), len(null_reps)),
        "harness.reps_per_s": ratio(attr_sum("harness.run_bias_rmse", "reps"), total("harness.run_bias_rmse")),
        "parallel.efficiency": ratio(total("parallel.replicate"), map_capacity),
        "trace.coverage": ratio(roots, wall),
    })
    return out


def run_trace(spec) -> dict:
    tracer = Tracer()
    install(tracer)
    codes = {}
    start = time.perf_counter()
    for label, argv in spec["calls"]:
        try:
            codes[label] = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            codes[label] = exc.code
    wall = time.perf_counter() - start
    with open(spec["spans_out"], "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {"wall_s": wall, "codes": codes, "metrics": aggregate(tracer.spans, wall)}


def main(argv) -> int:
    mode, spec = argv[0], json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if mode == "check":
        result = run_checks(spec, int(argv[2]), int(argv[3]))
    elif mode == "trace":
        result = run_trace(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
