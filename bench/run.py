"""Benchmark of the tailcens CLI, run from the root of a source checkout.

    python3 bench/run.py --workload <cli-small|tail-scan|monte-carlo> \
        --seed <n> --seconds <s> --trace <0|1>

Each CLI call is a fresh interpreter (``python3 -m tailcens.cli`` with
``src`` on ``PYTHONPATH``), so interpreter start and imports count.  The
load is a closed loop with one client: a pass runs the workload's commands
one after another, and passes repeat until ``--seconds`` is used up (at
least one pass).  Inputs are generated from ``--seed`` before any timing.

After the timed passes, and outside them, every output is checked: bytes
equal across passes and across ``--workers 1``/``2``, every estimate row
equal to the pointwise library reference, the curve identity at each gof
k, and, for seed 0, the sha256 digests pinned in ``bench/digests.json``.
A call fails when it exits nonzero or its output fails a check.

``--trace 1`` adds a traced in-process replay of one pass (see
``inproc.py``) and import timings from ``python -X importtime``, and
reports the per-layer metrics instead of the end-to-end ones.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller run record (environment, pass counts,
per-pass numbers, output digests) is written with sorted keys to
``.bench_work/records/<workload>-s<seed>-t<trace>.json``, and a traced
run's spans next to it as ``.spans.jsonl``.  The run's inputs and outputs
are deleted unless a call failed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DIGEST_SEED = 0
SETUP_REPS = 5
IMPORT_REPS = 3
CHECK_PARTS = 2  # processes sharing the reference checks, mostly the all-k rows

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
COMMAND_METRICS = ("convert_s", "estimate_s", "estimate_auto_s", "estimate_allk_s",
                   "select_k_s", "gof_s", "simulate_s")
DERIVED = {
    "io": ("io.rows_per_s",),
    "estimators": ("estimators.sweep.k_evals", "estimators.sweep.undefined_frac"),
    "tailprocess": ("tailprocess.null_rep_s", "tailprocess.null_degenerate_frac"),
    "harness": ("harness.reps_per_s",),
    "parallel": ("parallel.efficiency",),
}
IMPORTS = {"import.scipy_s": "scipy", "import.numpy_s": "numpy", "import.tailcens_s": "tailcens"}


def per_layer_names() -> list[str]:
    names = list(IMPORTS)
    for layer, funcs in workloads.LAYERS.items():
        names += [f"{layer}.{f}.{stat}" for f in funcs for stat in ("calls", "total_s", "self_s")]
        names += DERIVED.get(layer, ())
    return names + ["trace.overhead_s", "trace.coverage", *COMMAND_METRICS, "gof_reps_per_s", "sim_reps_per_s"]


@dataclass
class Result:
    rc: int
    wall: float
    cpu: float
    rss_mb: float


class Ledger:
    """Every CLI call of the run, and the failures charged to each."""

    def __init__(self, work: Path):
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.stderr = work / "stderr.log"
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def fail(self, key: str, message: str) -> None:
        self.failures.setdefault(key, []).append(message)

    def spawn(self, args: list[str], stderr=None) -> Result:
        """Run a Python child to completion; time it and read its rusage."""
        with open(self.stderr, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=stderr or log)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def cli(self, key: str, argv: list[str]) -> Result:
        self.attempted += 1
        result = self.spawn(["-m", "tailcens.cli", *argv])
        if result.rc != 0:
            self.fail(key, f"exit status {result.rc}")
        return result


def run_pass(ledger, calls, in_dir, out_dir, tag) -> dict:
    out_dir.mkdir(parents=True)
    start = time.perf_counter()
    results = [ledger.cli(f"{tag}/{c.label}", c.resolve(in_dir, out_dir)) for c in calls]
    wall = time.perf_counter() - start
    m = {"wall_s": wall, "cpu_s": sum(r.cpu for r in results), "peak_rss_mb": max(r.rss_mb for r in results)}
    for metric in COMMAND_METRICS:
        m[metric] = sum(r.wall for c, r in zip(calls, results) if c.metric == metric)
    for metric, base in (("gof_reps_per_s", "gof_s"), ("sim_reps_per_s", "simulate_s")):
        reps = sum(int(c.flag("--reps")) for c in calls if c.metric == base)
        m[metric] = reps / m[base] if m[base] else 0.0
    return m


def same_bytes(ledger, calls, ref_dir, other_dir, tag, what) -> None:
    for c in calls:
        for name in c.outputs():
            a, b = ref_dir / name, other_dir / name
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                ledger.fail(f"{tag}/{c.label}", f"{name} differs {what}")


def digests(calls, out_dir) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for c in calls for name in c.outputs() if (out_dir / name).is_file()}


def inproc(ledger, work, mode, spec, keys, parts=1) -> list[dict]:
    """Run ``inproc.py`` in ``parts`` concurrent children; parse their JSON.

    A child that fails is charged to every call key in ``keys``.
    """
    spec_path = work / f"{mode}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    outs = [work / f"{mode}.{part}.out" for part in range(parts)]
    with open(ledger.stderr, "ab") as err:
        procs = []
        for part, out in enumerate(outs):
            with open(out, "wb") as fh:
                procs.append(subprocess.Popen([sys.executable, str(BENCH / "inproc.py"), mode, str(spec_path),
                                               str(part), str(parts)], cwd=ROOT, env=ledger.env, stdout=fh, stderr=err))
        codes = [p.wait() for p in procs]
    results = []
    for code, out in zip(codes, outs):
        lines = out.read_text(encoding="utf-8").splitlines()
        if code == 0 and lines:
            results.append(json.loads(lines[-1]))
            continue
        for key in keys:
            ledger.fail(key, f"inproc.py {mode} exited with status {code}")
        results.append({})
    return results


def import_times(ledger) -> dict:
    """Median cumulative import time of numpy, scipy and tailcens.

    ``-X importtime`` lists modules children first, two spaces of indent
    per level; a package's time is the cumulative time of its outermost
    entries, so nested submodules are not counted twice.
    """
    samples = {key: [] for key in IMPORTS}
    log = ledger.stderr.parent / "importtime.log"
    for i in range(IMPORT_REPS):
        ledger.attempted += 1
        with open(log, "wb") as fh:
            rc = ledger.spawn(["-X", "importtime", "-c", "import tailcens.cli"], stderr=fh).rc
        if rc != 0:
            ledger.fail(f"import{i}", f"import tailcens.cli exited with status {rc}")
        entries = []
        for line in log.read_text(encoding="utf-8").splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
        totals = dict.fromkeys(IMPORTS.values(), 0)
        stack: list[tuple[int, str]] = []
        for depth, name, cumulative in reversed(entries):  # parents before children
            while stack and stack[-1][0] >= depth:
                stack.pop()
            for package in totals:
                inside = name == package or name.startswith(package + ".")
                if inside and not any(a == package or a.startswith(package + ".") for _, a in stack):
                    totals[package] += cumulative
            stack.append((depth, name))
        for key, package in IMPORTS.items():
            samples[key].append(totals[package] / 1e6)
    return {key: statistics.median(values) for key, values in samples.items()}


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "git_commit": commit or None, "src_lines": src_lines}


def check_outputs(ledger, args, calls, in_dir, work, passes) -> dict:
    """Charge every output check to its call; return pass 0's output digests."""
    first = work / "pass0"
    for i in range(1, passes):
        same_bytes(ledger, calls, first, work / f"pass{i}", "pass0", f"between pass 0 and pass {i}")
    multi = [c for c in calls if "--workers" in c.argv]
    if multi:
        alt = work / "workers"
        alt.mkdir()
        for c in multi:
            other = c.with_workers(1 if c.flag("--workers") == "2" else 2)
            ledger.cli(f"workers/{c.label}", other.resolve(in_dir, alt))
        same_bytes(ledger, multi, first, alt, "pass0", "between --workers 1 and 2")
    spec = {"calls": [[c.label, c.resolve(in_dir, first)] for c in calls]}
    for found in inproc(ledger, work, "check", spec, [f"pass0/{c.label}" for c in calls], CHECK_PARTS):
        for label, messages in found.get("failures", {}).items():
            for message in messages:
                ledger.fail(f"pass0/{label}", message)
    out_digests = digests(calls, first)
    if args.seed == DIGEST_SEED:
        pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))[args.workload]
        for c in calls:
            for name in c.outputs():
                if out_digests.get(name) != pinned.get(name):
                    ledger.fail(f"pass0/{c.label}", f"{name} does not match its pinned sha256")
    return out_digests


def traced_metrics(ledger, calls, in_dir, work, metrics, spans_out) -> dict:
    """Per-layer metrics from one traced in-process pass and the import timings."""
    traced = work / "traced"
    traced.mkdir()
    spec = {"calls": [[c.label, c.resolve(in_dir, traced)] for c in calls], "spans_out": str(spans_out)}
    ledger.attempted += len(calls)
    result = inproc(ledger, work, "trace", spec, [f"traced/{c.label}" for c in calls])[0]
    for label, code in result.get("codes", {}).items():
        if code != 0:
            ledger.fail(f"traced/{label}", f"exit status {code}")
    same_bytes(ledger, calls, work / "pass0", traced, "traced", "between the traced and untraced passes")
    out = {**result.get("metrics", {}), **import_times(ledger)}
    if "wall_s" in result:
        out["trace.overhead_s"] = result["wall_s"] - (metrics["wall_s"] - metrics["setup_s"] * len(calls))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tailcens" / "cli.py").is_file():
        print(f"error: no tailcens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    key = f"{args.workload}-s{args.seed}-t{args.trace}"
    work, records = WORK / key, WORK / "records"
    shutil.rmtree(work, ignore_errors=True)
    records.mkdir(parents=True, exist_ok=True)
    in_dir = work / "in"
    workloads.generate(args.workload, args.seed, in_dir)
    calls = workloads.calls(args.workload, args.seed)
    ledger = Ledger(work)
    phases = {"generate_s": time.perf_counter() - t_run}

    ledger.cli("warmup", ["--help"])  # the first call after a checkout writes the bytecode caches
    setup = [ledger.cli(f"setup{i}", ["--help"]).wall for i in range(SETUP_REPS)]
    start = time.perf_counter()
    phases["setup_s"] = start - t_run - phases["generate_s"]
    passes: list[dict] = []
    while not passes or time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes) <= args.seconds:
        passes.append(run_pass(ledger, calls, in_dir, work / f"pass{len(passes)}", f"pass{len(passes)}"))
    phases["passes_s"] = time.perf_counter() - start

    out_digests = check_outputs(ledger, args, calls, in_dir, work, len(passes))
    phases["checks_s"] = time.perf_counter() - start - phases["passes_s"]
    metrics = {"setup_s": statistics.median(setup), **{key: statistics.median(p[key] for p in passes) for key in passes[0]}}
    if args.trace:
        metrics.update(traced_metrics(ledger, calls, in_dir, work, metrics, records / f"{key}.spans.jsonl"))
        reported = {name: metrics.get(name, 0) for name in per_layer_names()}
    else:
        reported = {name: metrics[name] for name in END_TO_END}
    phases["total_s"] = time.perf_counter() - t_run

    failed = len(ledger.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "passes": len(passes), "setup_reps": SETUP_REPS,
        "attempted": ledger.attempted, "failed": failed, "failed_frac": failed / ledger.attempted,
        "failures": ledger.failures, "metrics": metrics, "phases": phases, "per_pass": passes,
        "setup_samples": setup, "digests": out_digests,
    }
    record_path = records / f"{key}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for call, messages in sorted(ledger.failures.items()):
        print(f"FAILED {call}: {'; '.join(messages)}", file=sys.stderr)
    if failed:
        print(f"inputs, outputs and stderr.log kept in {work}", file=sys.stderr)
    else:
        shutil.rmtree(work)
    print(f"record: {record_path}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in reported.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".k_evals")):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
