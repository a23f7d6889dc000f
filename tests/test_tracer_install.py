"""The benchmark's tracer installs on the package: every function and method
that bench/tracing.py patches keeps its name and kind. It runs in a child
process, so nothing is patched in the test process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import embedsim
import embedsim.cli
from tracing import Tracer

Tracer().install(embedsim)
"""


def test_tracer_installs_on_the_package():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    done = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
