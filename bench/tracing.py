"""Spans and counters around calls into embedsim's public functions.

The tracer changes no file of the package. `install` replaces each traced
function in every loaded embedsim module that refers to it (the modules
import each other's functions by name, so patching one module is not
enough), and each class method on its class. Spans are kept in memory, one
column per field (name, start, end, parent, op, outermost), so that a long
run adds no container objects for the garbage collector to scan; `write`
puts them out at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import sys
import time
from collections import defaultdict

SETUP = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.outermost: list[bool] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.paused = False
        self._stack: list[int] = []
        self._op = SETUP

    # Recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        self.outermost.append(not self.inside(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.ops.append(self._op)
        self.ends.append(0.0)
        idx = len(self.names) - 1
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    def spans(self):
        """(name, start, end, parent, op, outermost) per span, in opening order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.ops, self.outermost)

    def count(self, name: str, k: float = 1.0) -> None:
        self.counts[(self._op, name)] += k

    def op(self, index: int, fn, *args):
        """Run fn(*args) as operation `index`: the root span of its tree."""
        self._op = index
        idx = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = SETUP

    # Installation ----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            span = name(args, kwargs) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def _patch_function(self, module, attr, **spec):
        original = getattr(module, attr)
        wrapper = self._wrap(original, **spec)
        for name, mod in list(sys.modules.items()):
            if name == "embedsim" or name.startswith("embedsim."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, **spec):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, **spec))
        else:
            replacement = self._wrap(raw, **spec)
        setattr(cls, attr, replacement)

    def install(self, es) -> None:
        """Trace the layers of the embedsim package `es`."""
        fn, meth = self._patch_function, self._patch_method
        # pauli
        meth(es.pauli.PauliSum, "dense", name="pauli.dense")
        meth(es.pauli.PauliSum, "from_terms", name=None,
             before=lambda tr, a, k: tr.count("pauli.from_terms"))
        fn(es.pauli, "apply_pauli_sum", name="pauli.apply")
        # embedding
        for attr in ("embed_state", "embed_hamiltonian", "embed_observable", "unembed_state"):
            fn(es.embedding, attr, name="embedding")
        # evolution
        fn(es.evolution, "evolve_enlarged", name="evolution.enlarged")
        fn(es.evolution, "evolve_exact", name="evolution.exact")
        fn(es.evolution, "evolve_trotter", name="evolution.trotter", before=_count_trotter)
        # monotones
        fn(es.monotones, "evaluate_monotone", name=_monotone_path)
        fn(es.monotones, "expand_to_observables", name="monotones.expand")
        meth(es.monotones.EmbeddedEvaluator, "values_batch", name="monotones.batch",
             before=_count_objective)
        # measurement
        fn(es.measurement, "sample_monotone", name="measurement.sample")
        fn(es.measurement, "sample_expectation", name=None,
           before=lambda tr, a, k: tr.count("measurement.expectations"))
        # convexroof
        fn(es.convexroof, "convex_roof_estimate", name="convexroof.solve", after=_count_solve)
        # cli
        fn(es.cli, "main", name="cli.main")
        fn(es.cli, "parse_config", name="cli.parse")
        fn(es.cli, "run", name="cli.run")
        fn(es.cli, "emit", name="cli.emit", after=_count_output)

    # Reporting -------------------------------------------------------------

    def write(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array per
        span in opening order. `parent` is the 0-based position of the parent
        span in that order (-1 for none); `op` -1 is set-up."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["op", "name", "start_us", "end_us", "parent"]) + "\n")
            for name, start, end, parent, op, _ in self.spans():
                fh.write(json.dumps([op, name, round(start * 1e6, 1), round(end * 1e6, 1), parent]) + "\n")

    def coverage(self, ops: list[int]) -> list[float]:
        """Per operation: the share of its wall time that its top-level spans cover."""
        roots = {}
        covered = defaultdict(float)
        for i, (name, start, end, parent, op, _) in enumerate(self.spans()):
            if name == "op" and parent == -1:
                roots[i] = (op, end - start)
            elif parent in roots:
                covered[parent] += end - start
        wanted = set(ops)
        return [covered[i] / dur for i, (op, dur) in roots.items() if op in wanted]

    def metrics(self, ops: list[int]) -> dict[str, float]:
        """Per-layer metrics, averaged per operation over `ops`."""
        wanted = set(ops)
        n = max(len(wanted), 1)
        calls = defaultdict(int)
        incl = defaultdict(float)
        selft = defaultdict(float)
        setup_embedding = 0.0
        op_times = []
        child_time = defaultdict(float)
        for name, start, end, parent, op, _ in self.spans():
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, op, outermost) in enumerate(self.spans()):
            dur = end - start
            if op == SETUP and name == "embedding" and outermost:
                setup_embedding += dur
            if op not in wanted:
                continue
            if name == "op":
                op_times.append(dur)
                continue
            calls[name] += 1
            if outermost:
                incl[name] += dur
            selft[name] += dur - child_time[i]
        count = defaultdict(float)
        for (op, name), k in self.counts.items():
            if op in wanted:
                count[name] += k

        def ratio(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        evals = calls["monotones.direct"] + calls["monotones.embedded"]
        solves = calls["convexroof.solve"]
        return {
            "pauli.dense.calls": calls["pauli.dense"] / n,
            "pauli.dense.ms": incl["pauli.dense"] / n * 1e3,
            "pauli.apply.calls": calls["pauli.apply"] / n,
            "pauli.apply.ms": incl["pauli.apply"] / n * 1e3,
            "pauli.apply.us_per_call": ratio(incl["pauli.apply"], calls["pauli.apply"], 1e6),
            "pauli.from_terms.calls": count["pauli.from_terms"] / n,
            "embedding.calls": calls["embedding"] / n,
            "embedding.ms": incl["embedding"] / n * 1e3,
            "setup.embedding.ms": setup_embedding * 1e3,
            "evolution.exact.calls": calls["evolution.exact"] / n,
            "evolution.exact.self_ms": selft["evolution.exact"] / n * 1e3,
            "evolution.trotter.ms": incl["evolution.trotter"] / n * 1e3,
            "evolution.trotter.term_exps": count["evolution.trotter.term_exps"] / n,
            "evolution.trotter.amps_per_s": ratio(count["evolution.trotter.amps"], incl["evolution.trotter"]),
            "monotones.evals": evals / n,
            "monotones.direct.ms": incl["monotones.direct"] / n * 1e3,
            "monotones.embedded.ms": incl["monotones.embedded"] / n * 1e3,
            "monotones.expand.calls": calls["monotones.expand"] / n,
            "monotones.expand_per_eval": ratio(calls["monotones.expand"], evals),
            "monotones.batch.calls": calls["monotones.batch"] / n,
            "monotones.batch.ms": incl["monotones.batch"] / n * 1e3,
            "measurement.sample.calls": calls["measurement.sample"] / n,
            "measurement.sample.self_ms": selft["measurement.sample"] / n * 1e3,
            "measurement.expectations": count["measurement.expectations"] / n,
            "convexroof.solve.ms": incl["convexroof.solve"] / n * 1e3,
            "convexroof.self_ms": selft["convexroof.solve"] / n * 1e3,
            "convexroof.objective_evals": count["convexroof.objective_evals"] / n,
            "convexroof.evals_per_solve": ratio(count["convexroof.objective_evals"], solves),
            "convexroof.us_per_eval": ratio(incl["convexroof.solve"], count["convexroof.objective_evals"], 1e6),
            "convexroof.iterations": ratio(count["convexroof.iterations"], solves),
            "cli.parse.ms": incl["cli.parse"] / n * 1e3,
            "cli.run.self_ms": selft["cli.run"] / n * 1e3,
            "cli.emit.ms": incl["cli.emit"] / n * 1e3,
            "cli.bytes_out": count["cli.bytes_out"] / n,
            "trace.op_p50_ms": statistics.median(op_times) * 1e3 if op_times else 0.0,
            "trace.coverage": statistics.median(self.coverage(ops)) if op_times else 0.0,
        }


def _monotone_path(args, kwargs) -> str:
    path = kwargs.get("path", args[2] if len(args) > 2 else "direct")
    return f"monotones.{path}"


def _count_trotter(tracer: Tracer, args, kwargs) -> None:
    # evolve_trotter(s, h, t, steps, order=1): one term exponential per term
    # per step, twice for the palindromic second order.
    s, h, _, steps = args[:4]
    order = kwargs.get("order", args[4] if len(args) > 4 else 1)
    exps = steps * len(h.terms) * order
    tracer.count("evolution.trotter.term_exps", exps)
    tracer.count("evolution.trotter.amps", exps * len(s))


def _count_objective(tracer: Tracer, args, kwargs) -> None:
    if tracer.inside("convexroof.solve"):
        tracer.count("convexroof.objective_evals")


def _count_solve(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("convexroof.iterations", result.iterations)


def _count_output(tracer: Tracer, args, kwargs, result) -> None:
    # emit(records, fmt="json", destination=None); stdout output is not sized.
    destination = kwargs.get("destination", args[2] if len(args) > 2 else None)
    if destination not in (None, "-"):
        tracer.count("cli.bytes_out", os.path.getsize(destination))


UNITS = {
    "calls": ("calls/op", "lower"),
    "ms": ("ms/op", "lower"),
    "self_ms": ("ms/op", "lower"),
    "us_per_call": ("us", "lower"),
    "us_per_eval": ("us", "lower"),
    "term_exps": ("count/op", "lower"),
    "amps_per_s": ("1/s", "higher"),
    "evals": ("calls/op", "lower"),
    "expand_per_eval": ("ratio", "lower"),
    "expectations": ("calls/op", "lower"),
    "objective_evals": ("calls/op", "lower"),
    "evals_per_solve": ("count", "lower"),
    "iterations": ("count", "lower"),
    "bytes_out": ("bytes/op", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "coverage": ("ratio", "higher"),
}


def unit_of(metric: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from the last part of its name."""
    if metric == "setup.embedding.ms":
        return ("ms", "lower")
    return UNITS[metric.rsplit(".", 1)[1]]
