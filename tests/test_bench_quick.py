"""The benchmark's output checks pass with the tracer installed: two
operations of every workload, as `bench/run.py --quick` runs them, each
output checked against `bench/reference.py`, and every negative control
rejected. The trace consistency check of `--quick` is left out: it is a
timing bound, and on `monotone_batch` the median share of two operations
sits within about 0.01 of it. The run is in a child process because the
tracer patches the embedsim modules it imports."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import run
from reference import CheckError
from tracing import Tracer
from workloads import WORKLOADS

es = run.load_embedsim()
tracer = Tracer()
tracer.install(es)
bad = []
for seed, (name, cls) in enumerate(WORKLOADS.items()):
    workload = cls()
    workload.setup(es, seed, sys.argv[2])
    runner = run.Runner(workload, tracer)
    for i in (1000 * seed, 1000 * seed + 1):
        runner.run(i)
    bad += [f"{name}: {p}" for p in runner.raised + runner.rejected]
    inp, out = runner.last
    tracer.paused = True
    for label, wrong in workload.perturbations(inp, out) if out is not None else ():
        try:
            workload.check(inp, wrong)
        except CheckError:
            continue
        bad.append(f"{name}: negative control not rejected: {label}")
    tracer.paused = False
print("\\n".join(bad), file=sys.stderr)
sys.exit(1 if bad else 0)
"""


def test_bench_checks_pass_under_the_tracer(tmp_path):
    # bench/run.py re-executes itself on import unless the hash seed is 0.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "bench"), str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
