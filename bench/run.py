#!/usr/bin/env python3
"""Benchmark of the embedsim package, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick

One process, one closed-loop caller, BLAS and OpenMP pinned to one thread.
The package is imported from `src/` of the checkout; nothing is installed.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a run
whose calls into embedsim are wrapped in spans. --quick runs two operations
of every workload with all checks, the trace consistency check and the
negative controls, and exits 0 only if all of them hold. See README.md.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# String hashing decides the layout of every dict and set, and with a random
# hash seed the median operation time of monotone_batch moved by up to 12%
# between processes. Fix it, re-executing once if it was not fixed already.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / "bench_results"

# setup_s is the median of this process's set-up and SETUP_CHILDREN set-ups
# of fresh set-up-only processes, spread evenly over the timed phase (between
# operations, outside their timing) so that the median spans the machine's
# slow swings in speed instead of one moment of them.
SETUP_CHILDREN = 8
WARMUP_OPS = 1
MIN_OPS = 5
# The top-level spans of an operation must cover at least this share of its
# wall time (median over operations); the rest is the benchmark's own glue
# and the tracer's bookkeeping between spans.
COVERAGE_MARGIN = 0.05


def load_embedsim():
    """Import embedsim from this checkout's src/, and refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import embedsim
    import embedsim.cli  # noqa: F401  (the only layer the package __init__ leaves out)

    where = Path(embedsim.__file__).resolve().parent
    if where != ROOT / "src" / "embedsim":
        raise SystemExit(f"bench: imported embedsim from {where}, not from this checkout")
    return embedsim


def child_setup_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs one workload's operations and checks each output."""

    def __init__(self, workload, tracer):
        self.w = workload
        self.tracer = tracer
        self.raised: list[str] = []
        self.rejected: list[str] = []

    def run(self, i: int):
        """Operation i: returns its wall time in seconds, or None if it raised."""
        inp = self.w.prepare(i)
        t0 = time.perf_counter()
        try:
            raw = self.tracer.op(i, self.w.op, inp) if self.tracer else self.w.op(inp)
        except Exception:
            self.raised.append(f"op {i} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - t0
        if self.tracer:
            self.tracer.paused = True
        out = None
        try:
            out = self.w.collect(inp, raw)
            self.w.check(inp, out)
        except Exception:
            self.rejected.append(f"op {i} output rejected:\n{traceback.format_exc()}")
        finally:
            if self.tracer:
                self.tracer.paused = False
        self.last = (inp, out)
        return elapsed


def check_coverage(tracer, ops: list[int]) -> str | None:
    shares = tracer.coverage(ops)
    median = statistics.median(shares)
    if not 1.0 - COVERAGE_MARGIN <= median <= 1.0 + 1e-9:
        return f"trace: top-level spans cover {median:.4f} of operation wall time (median of {len(shares)})"
    return None


def measure(args) -> int:
    es = load_embedsim()
    from tracing import Tracer, unit_of
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(es)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(es, args.seed, str(workdir))
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(repr(setup_s))
            return 0
        setups = [setup_s]
        children = 0 if args.trace else SETUP_CHILDREN

        runner = Runner(workload, tracer)
        for i in range(WARMUP_OPS):
            runner.run(i)
        times, failed, timed_ops = [], 0, []
        i = WARMUP_OPS
        phase_start = time.perf_counter()
        while time.perf_counter() - phase_start < args.seconds or len(timed_ops) < MIN_OPS:
            due = (time.perf_counter() - phase_start) * children / args.seconds
            if len(setups) - 1 < min(children, due):
                setups.append(child_setup_seconds(args.workload, args.seed))
            elapsed = runner.run(i)
            timed_ops.append(i)
            if elapsed is None:
                failed += 1
            else:
                times.append(elapsed)
            i += 1
        while len(setups) - 1 < children:
            setups.append(child_setup_seconds(args.workload, args.seed))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Operations that raised are counted in `failed`; `correct` speaks of
        # the outputs of those that did not.
        failures = runner.rejected[:]
        if tracer:
            problem = check_coverage(tracer, timed_ops)
            if problem:
                failures.append(problem)
            values = tracer.metrics(timed_ops)
            metrics = {k: {"value": v, "unit": unit_of(k)[0]} for k, v in values.items()}
            tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "op_p50_ms": {"value": statistics.median(times) * 1e3 if times else 0.0, "unit": "ms"},
                "ops_per_s": {"value": len(times) / sum(times) if times else 0.0, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in runner.raised + failures:
        print(e, file=sys.stderr)
    summary = [f"{args.workload} seed={args.seed} trace={args.trace}: "
               f"{len(timed_ops)} attempted, {failed} failed, {len(failures)} rejected"]
    summary += [f"  {k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    if not args.trace and len(times) >= 40:
        tail = statistics.quantiles(times, n=10)[-1] * 1e3
        summary.append(f"  (reference only) op_p90_ms = {tail:.6g} ms over {len(times)} operations")
    print("\n".join(summary), file=sys.stderr)
    result = {"correct": not failures, "attempted": len(timed_ops), "failed": failed, "metrics": metrics}
    (RESULTS / f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


def quick() -> int:
    """Two operations of every workload with all checks, the trace
    consistency check and the negative controls."""
    es = load_embedsim()
    from reference import CheckError
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    tracer.install(es)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for seed, (name, cls) in enumerate(WORKLOADS.items()):
            workload = cls()
            workload.setup(es, seed, str(workdir))
            runner = Runner(workload, tracer)
            ops = [1000 * seed + k for k in range(2)]
            for i in ops:
                runner.run(i)
            problems = runner.raised + runner.rejected
            problem = check_coverage(tracer, ops)
            if problem:
                problems.append(problem)
            inp, out = runner.last
            tracer.paused = True
            for label, wrong in workload.perturbations(inp, out) if out is not None else ():
                try:
                    workload.check(inp, wrong)
                except CheckError as exc:
                    print(f"  {name}: rejected {label}: {exc}", file=sys.stderr)
                else:
                    problems.append(f"negative control not rejected: {label}")
            tracer.paused = False
            for p in problems:
                print(f"{name}: FAIL {p}", file=sys.stderr)
            print(f"{name}: {'ok' if not problems else 'FAIL'}", file=sys.stderr)
            bad += bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
