"""Start-up cost of the CLI: scipy stays off the import path, and each call runs only what it uses.

``import tailcens`` registers every library module without running it, so
these tests run the CLI in a fresh interpreter and list the modules that
ran: a registered module that has not run is still of the lazy loader's
module type.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tailcens
from tailcens import Pareto, generate_censored, stream, write_censored_csv

SRC = str(Path(tailcens.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

# runs ``main`` on the arguments, then prints the library modules that ran and whether numpy and statistics loaded
PROBE = """
import importlib.util, json, sys
from tailcens.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
ran = sorted(name for name, module in sys.modules.items() if name.startswith("tailcens.")
             and name != "tailcens.cli" and type(module) is not importlib.util._LazyModule)
print(json.dumps({"status": status, "ran": ran, "numpy": "numpy" in sys.modules,
                  "statistics": "statistics" in sys.modules}))
"""


def _python(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True)


def _probe(*argv) -> dict:
    out = _python("-c", PROBE, *map(str, argv))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    write_censored_csv(path, *generate_censored(Pareto(1.0), Pareto(1.0), 100, stream(3)))
    return path


def test_cli_import_loads_no_scipy():
    # scipy is imported only by the paths that need it: the log-gamma cdf and
    # quantile, and weighted_functional with a custom weight function
    src = str(Path(tailcens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, tailcens.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_help_is_quiet_and_runs_no_library_module():
    out = _python("-W", "error", "-m", "tailcens.cli", "--help")
    assert (out.returncode, out.stderr) == (0, "")
    assert "estimate" in out.stdout
    assert _probe("--help") == {"status": 0, "ran": [], "numpy": False, "statistics": False}


@pytest.mark.parametrize("argv", [["estimate"], ["estimate", "--input", "x.csv", "--k", "0"],
                                  ["gof", "--input", "x.csv", "--k", "5", "--workers", "0"],
                                  ["estimate", "--input", "x.csv", "--theta", "0.9"],
                                  ["estimate", "--input", "x.csv", "--k", "5", "--ci", "1.5"],
                                  ["select-k", "--input", "x.csv", "--theta", "nan"]])
def test_usage_errors_load_no_numpy(argv):
    probe = _probe(*argv)
    assert probe["status"] == 2 and not probe["numpy"]


def test_convert_runs_only_io(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("start,end,status\n1990-01-01,1990-03-05,D\n1990-02-01,1990-02-01,A\n", encoding="utf-8")
    probe = _probe("convert", "--input", raw, "--out", tmp_path / "out.csv")
    assert (probe["status"], probe["ran"]) == (0, ["tailcens.io"])
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == "z,delta\n64.0,1\n1.0,0\n"


def test_fixed_k_estimate_skips_selection_and_the_engines(sample_csv, tmp_path):
    probe = _probe("estimate", "--input", sample_csv, "--k", 40, "--estimator", "hill,efg,ww1,ww2,new",
                   "--out", tmp_path / "out.csv")
    assert probe["status"] == 0 and not probe["statistics"]
    assert not {"tailcens.harness", "tailcens.selection", "tailcens.tailprocess"} & set(probe["ran"])
    # the interval is what needs statistics
    with_ci = _probe("estimate", "--input", sample_csv, "--k", 40, "--ci", 0.95, "--out", tmp_path / "ci.csv")
    assert with_ci["statistics"]


def test_public_names_resolve_to_their_defining_module():
    homes = {}
    for name in set(tailcens._EXPORTS.values()):  # the modules the table names
        module = getattr(tailcens, name)
        homes.update({public: module for public in module.__all__})
    assert tailcens.__all__ and set(tailcens.__all__) <= set(homes)
    for name in tailcens.__all__:
        assert getattr(tailcens, name) is getattr(homes[name], name), name
    assert set(tailcens.__all__) <= set(dir(tailcens))
    with pytest.raises(AttributeError, match="no_such_name"):
        tailcens.no_such_name
    with pytest.raises(ImportError):
        from tailcens import no_such_name  # noqa: F401


def test_cli_import_registers_every_traced_layer():
    # the benchmark's traced pass reads sys.modules["tailcens.<layer>"] for each of them
    source = (Path(__file__).resolve().parents[1] / "bench" / "workloads.py").read_text(encoding="utf-8")
    layers = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"])
    out = _python("-c", "import sys, tailcens.cli; print(' '.join(sys.modules))")
    assert out.returncode == 0, out.stderr
    assert {f"tailcens.{layer}" for layer in layers} <= set(out.stdout.split())


def test_convert_loads_no_numpy(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("start,end,status\n1990-01-01,1990-03-05,D\n1990-02-01,1990-02-01,A\n", encoding="utf-8")
    probe = _probe("convert", "--input", raw, "--out", tmp_path / "out.csv")
    assert probe["status"] == 0 and not probe["numpy"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_leaves_numpy_one_thread():
    # no tailcens code calls BLAS: the CLI keeps OpenBLAS from starting its thread pool
    env = {key: value for key, value in ENV.items() if key != "OPENBLAS_NUM_THREADS"}
    code = "import tailcens.cli, numpy, os; print(len(os.listdir('/proc/self/task')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "1\n"), out.stderr


def test_a_blas_thread_count_the_user_set_wins():
    code = "import os, tailcens.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env={**ENV, "OPENBLAS_NUM_THREADS": "2"},
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "2\n"), out.stderr


# runs ``main`` on the arguments, then prints its status and whether numpy.random loaded
RANDOM_PROBE = """
import sys
from tailcens.cli import main
status = main(sys.argv[1:])
print(status, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("argv", [["estimate", "--k", "40", "--estimator", "hill,efg,ww1,ww2,new", "--ci", "0.95"],
                                  ["estimate", "--k", "auto"], ["estimate", "--all-k", "--estimator", "efg,new"],
                                  ["select-k", "--estimator", "efg"], ["convert"]])
def test_table_commands_load_no_numpy_random(argv, sample_csv, tmp_path):
    # numpy.random costs megabytes of resident memory and milliseconds of start-up; only the replicate engine draws
    source = sample_csv
    if argv[0] == "convert":
        source = tmp_path / "raw.csv"
        source.write_text("start,end,status\n1990-01-01,1990-03-05,D\n1990-02-01,1990-02-01,A\n", encoding="utf-8")
    out = _python("-c", RANDOM_PROBE, *argv, "--input", source, "--out", tmp_path / "out.csv")
    assert (out.returncode, out.stdout.split()[-2:]) == (0, ["0", "False"]), out.stderr


# runs ``main`` on the arguments after the first, having imported hashlib first if the first is "hashlib-first";
# prints its status, which of numpy.random, the hashing modules and logging it left loaded, and what a later
# ``import hashlib`` gives
HASH_PROBE = """
import json, sys
before = __import__("hashlib") if sys.argv[1] == "hashlib-first" else None
from tailcens.cli import main
status = main(sys.argv[2:])
loaded = [name for name in ("numpy.random", "_hashlib", "hashlib", "hmac", "logging") if name in sys.modules]
import hashlib
print(json.dumps({"status": status, "loaded": loaded, "same": hashlib is before,
                  "openssl": sys.modules.get("_hashlib") is not None, "sha256": hashlib.sha256(b"").hexdigest()}))
"""
HAS_OPENSSL = importlib.util.find_spec("_hashlib") is not None
DRAWING = {"gof": ["gof", "--k", "20", "--reps", "100", "--seed", "7"],
           "simulate": ["simulate", "--model", "burr:1,2,1", "--censor", "burr:1,2,2.030303", "--n", "200",
                        "--reps", "20", "--seed", "7"]}


def _hash_probe(first: str, command: str, sample_csv, out) -> tuple[dict, str]:
    argv = [*DRAWING[command], "--out", out] + (["--input", sample_csv] if command == "gof" else [])
    result = _python("-c", HASH_PROBE, first, *map(str, argv))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1]), result.stderr


@pytest.mark.parametrize("command", sorted(DRAWING))
def test_drawing_commands_load_numpy_random_without_hashing(command, sample_csv, tmp_path):
    # OpenSSL's digests cost 3.4 MiB resident, and no tailcens code hashes; logging would mean a missing builtin digest
    probe, stderr = _hash_probe("fresh", command, sample_csv, tmp_path / "out.csv")
    assert (probe["status"], probe["loaded"], stderr) == (0, ["numpy.random"], "")


@pytest.mark.skipif(not HAS_OPENSSL, reason="this Python has no _hashlib")
def test_hashlib_after_a_drawing_command_is_openssls(sample_csv, tmp_path):
    probe, _ = _hash_probe("fresh", "gof", sample_csv, tmp_path / "out.csv")
    assert probe["openssl"] and probe["sha256"].startswith("e3b0c442")


@pytest.mark.parametrize("command", sorted(DRAWING))
def test_hashlib_imported_first_is_kept_and_changes_no_output(command, sample_csv, tmp_path):
    held_off, _ = _hash_probe("fresh", command, sample_csv, tmp_path / "held_off.csv")
    kept, _ = _hash_probe("hashlib-first", command, sample_csv, tmp_path / "kept.csv")
    assert kept["same"] and "hashlib" in kept["loaded"]
    names = ["{}.csv"] + (["{}.csv.meta"] if command == "simulate" else [])
    for name in names:
        assert (tmp_path / name.format("held_off")).read_bytes() == (tmp_path / name.format("kept")).read_bytes()


@pytest.mark.skipif(not HAS_OPENSSL, reason="this Python has no _hashlib")
def test_numpy_random_alone_still_loads_openssl():
    # were it not so, the CLI's guard around numpy.random would hold nothing off
    out = _python("-c", "import sys, numpy.random; print('_hashlib' in sys.modules)")
    assert (out.returncode, out.stdout) == (0, "True\n"), out.stderr
