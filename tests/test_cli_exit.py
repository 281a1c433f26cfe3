"""How a CLI call ends: ``python -m tailcens.cli`` and the ``tailcens`` script leave through ``os._exit``.

``cli.entry`` runs ``main``, the atexit callbacks and a flush of stdout and
stderr, then skips interpreter teardown.  These tests run both ways in, in
fresh processes, and check what a caller sees: the bytes of a piped table,
the status and stderr of each kind of ending, atexit callbacks, and a
reader that closes the pipe early, which ends the call quietly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tailcens
from tailcens import Pareto, generate_censored, stream, write_censored_csv

SRC = str(Path(tailcens.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
WAYS_IN = {
    "module": [sys.executable, "-m", "tailcens.cli"],
    "script": [sys.executable, "-c", "import sys; sys.argv[0] = 'tailcens'; from tailcens.cli import entry; entry()"],
}


def run(way, *argv, **kwargs):
    return subprocess.run([*WAYS_IN[way], *argv], env=ENV, capture_output=True, timeout=120, **kwargs)


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit") / "sample.csv"
    write_censored_csv(path, *generate_censored(Pareto(1.0), Pareto(1.0), 3000, stream(9)))
    return str(path)


@pytest.mark.parametrize("way", WAYS_IN)
def test_piped_table_equals_the_out_file(way, sample, tmp_path):
    argv = ["estimate", "--input", sample, "--all-k", "--estimator", "hill,efg"]
    piped = run(way, *argv)
    written = run(way, *argv, "--out", str(tmp_path / "table.csv"))
    assert (piped.returncode, piped.stderr, written.returncode, written.stdout) == (0, b"", 0, b"")
    assert len(piped.stdout) > 64 * 1024  # more than a pipe holds
    assert piped.stdout == (tmp_path / "table.csv").read_bytes()


@pytest.mark.parametrize("way", WAYS_IN)
def test_status_and_stderr(way, sample, tmp_path):
    ok = run(way, "estimate", "--input", sample, "--k", "40")
    assert (ok.returncode, ok.stderr) == (0, b"") and ok.stdout.startswith(b"estimator,k,")
    missing = run(way, "estimate", "--input", str(tmp_path / "missing.csv"))
    assert missing.returncode == 1 and missing.stderr.startswith(b"error: ") and missing.stdout == b""
    usage = run(way, "estimate", "--k", "40")
    assert usage.returncode == 2 and b"the following arguments are required: --input" in usage.stderr
    helped = run(way, "--help")
    assert (helped.returncode, helped.stderr) == (0, b"") and helped.stdout.startswith(b"usage: ")


RUN_MODULE = """
import atexit, runpy, sys
atexit.register(lambda: print("callback ran", file=sys.stderr))
sys.argv = ["tailcens", *sys.argv[1:]]
runpy.run_module("tailcens.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv", [["--help"], ["estimate", "--k", "40"]])
def test_atexit_callbacks_run(argv):
    done = subprocess.run([sys.executable, "-c", RUN_MODULE, *argv], env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == (0 if argv == ["--help"] else 2)
    assert done.stderr.endswith("callback ran\n") and done.stderr.count("callback ran") == 1


@pytest.mark.parametrize("way", WAYS_IN)
def test_reader_closing_the_pipe_gives_a_nonzero_status(way, sample):
    proc = subprocess.Popen([*WAYS_IN[way], "estimate", "--input", sample, "--all-k", "--estimator", "hill,efg"],
                            env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")  # 128 + SIGPIPE, and no message: the reader ended the call
    finally:
        proc.kill()
        proc.communicate(timeout=120)
