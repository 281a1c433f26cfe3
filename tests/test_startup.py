"""Start-up cost of the CLI: scipy stays off the import path."""

import os
import subprocess
import sys
from pathlib import Path

import tailcens


def test_cli_import_loads_no_scipy():
    # scipy is imported only by the paths that need it: the log-gamma cdf and
    # quantile, and weighted_functional with a custom weight function
    src = str(Path(tailcens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, tailcens.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
