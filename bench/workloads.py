"""The four benchmark workloads.

A workload is set up once from the seed, then runs operations. For each
operation i the harness calls, in order:

    prepare(i)         inputs for operation i, drawn from (seed, i); untimed
    op(inp)            the timed call into embedsim
    collect(inp, raw)  reads back what the call produced; untimed
    check(inp, out)    raises reference.CheckError if the output is wrong

`perturbations(inp, out)` returns deliberately wrong copies of a correct
output, each of which `check` must reject (the negative controls of
`run.py --quick`).

Every call into embedsim goes through a module attribute (`es.cli.main`, not
an imported name) so that the tracer's replacements are the ones called.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np

import reference as ref
from reference import require


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    # SeedSequence takes non-negative words only; any integer seed is accepted.
    return np.random.default_rng([seed % 2**64, stream, index])


class TrajectoryExact:
    """`embedsim --config` on a seeded `evolve` config, run in process.

    N = 7 with 3N random Pauli terms, a GHZ start, the n_qubit monotone,
    8 time points and 1000 shots per observable. Each operation draws a new
    Hamiltonian, so a cache keyed on the input cannot make it free."""

    name = "trajectory_exact"
    N = 7
    TERMS = 21
    TIMES = [0.1 * (k + 1) for k in range(8)]
    SHOTS = 1000

    def setup(self, es, seed: int, workdir: str) -> None:
        self.es, self.seed = es, seed
        self.config_path = os.path.join(workdir, "trajectory-config.json")
        self.output_path = os.path.join(workdir, "trajectory-out.json")

    def prepare(self, i: int) -> dict:
        rng = _rng(self.seed, 1, i)
        labels: dict[str, None] = {}
        while len(labels) < self.TERMS:
            label = "".join(rng.choice(list("IXYZ"), self.N))
            if label != "I" * self.N:
                labels[label] = None
        terms = [(float(rng.uniform(-1.0, 1.0)), p) for p in labels]
        config = {
            "workflow": "evolve",
            "initial_state": "ghz",
            "n_qubits": self.N,
            "hamiltonian": [{"coeff": c, "pauli": p} for c, p in terms],
            "monotone": "n_qubit",
            "times": self.TIMES,
            "shots": {"shots": self.SHOTS, "seed": int(rng.integers(2**32))},
        }
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        if os.path.exists(self.output_path):
            os.unlink(self.output_path)
        return {"terms": terms}

    def op(self, inp):
        return self.es.cli.main(["--config", self.config_path, "--output", self.output_path])

    def collect(self, inp, raw) -> dict:
        out = {"rc": raw, "records": None}
        if raw == 0:
            with open(self.output_path) as fh:
                out["records"] = json.load(fh)
        return out

    def _reference(self, inp) -> list[np.ndarray]:
        if "psi_t" not in inp:
            evals, vecs = np.linalg.eigh(ref.dense_hamiltonian(inp["terms"]))
            coeffs = vecs.conj().T @ ref.ghz(self.N)
            inp["psi_t"] = [vecs @ (np.exp(-1j * evals * t) * coeffs) for t in self.TIMES]
        return inp["psi_t"]

    def check(self, inp, out) -> None:
        require(out["rc"] == 0, f"embedsim exited with code {out['rc']}")
        records = out["records"]
        require(len(records) == len(self.TIMES), f"{len(records)} records for {len(self.TIMES)} times")
        for rec, t, psi in zip(records, self.TIMES, self._reference(inp)):
            where = f"t={t:.1f}"
            require(rec["t"] == t, f"{where}: record has t={rec['t']}")
            want = ref.monotone("n_qubit", psi)
            for key in ("value_direct", "value_embedded"):
                require(abs(rec[key] - want) <= 1e-8, f"{where}: {key} {rec[key]!r} vs reference {want!r}")
            exact = ref.observables("n_qubit", psi)
            require(len(rec["per_observable"]) == len(exact)
                    and max(abs(a - b) for a, b in zip(rec["per_observable"], exact)) <= 1e-8,
                    f"{where}: per-observable expectations disagree with the reference")
            ref.check_sampled(rec["per_observable_sampled"], exact, self.SHOTS, where)
            sampled = ref.contract_estimates("n_qubit", self.N, rec["per_observable_sampled"])
            require(abs(rec["value_sampled"] - sampled) <= 1e-12,
                    f"{where}: value_sampled {rec['value_sampled']!r} is not the contraction {sampled!r}")
            require(rec["n_observables"] == len(exact), f"{where}: n_observables {rec['n_observables']}")
            require(rec["n_tomography"] == 4**self.N - 1, f"{where}: n_tomography {rec['n_tomography']}")

    def perturbations(self, inp, out):
        def edit(fn):
            bad = copy.deepcopy(out)
            fn(bad)
            return bad

        exact = ref.observables("n_qubit", self._reference(inp)[3])
        far = [-1.0 if e >= 0 else 1.0 for e in exact]
        return [
            ("exit code 3", edit(lambda o: o.update(rc=3))),
            ("value_direct off by 1e-6", edit(lambda o: o["records"][2].update(value_direct=o["records"][2]["value_direct"] + 1e-6))),
            ("value_embedded off by 1e-6", edit(lambda o: o["records"][5].update(value_embedded=o["records"][5]["value_embedded"] - 1e-6))),
            ("per_observable off by 1e-6", edit(lambda o: o["records"][0]["per_observable"].__setitem__(1, o["records"][0]["per_observable"][1] + 1e-6))),
            ("sampled estimate outside the bound", edit(lambda o: o["records"][3].update(per_observable_sampled=far))),
            ("n_tomography off by one", edit(lambda o: o["records"][7].update(n_tomography=4**self.N - 2))),
        ]


class TrotterChain:
    """Second-order Trotter evolution of a nearest-neighbour chain, then the
    embedded monotone and its shot estimate.

    N = 14 (2^15 real amplitudes in the enlarged space), H = sum J_i X_i X_i+1
    + sum h_i Z_i with seeded J in [0.3, 0.6] and h in [0.2, 0.6], GHZ start,
    4 steps to a seeded t in [0.15, 0.25], 2000 shots. The even-N monotone of
    GHZ is 1 and is changed only by the couplings, so it stays well away from
    0 over these times."""

    name = "trotter_chain"
    N = 14
    N_REDUCED = 6
    STEPS = 4
    SHOTS = 2000

    def setup(self, es, seed: int, workdir: str) -> None:
        self.es, self.seed = es, seed
        rng = _rng(seed, 0, 2)
        couplings = rng.uniform(0.3, 0.6, self.N - 1)
        fields = rng.uniform(0.2, 0.6, self.N)
        self.terms = self._chain(self.N, couplings, fields)
        self.reduced_terms = self._chain(self.N_REDUCED, couplings, fields)
        self.spec = es.monotones.n_qubit_spec(self.N)
        self.h_tilde = es.embedding.embed_hamiltonian(es.pauli.PauliSum.from_terms(self.terms))
        self.start = es.embedding.embed_state(es.pauli.PureState(ref.ghz(self.N)))
        self.reduced = None

    @staticmethod
    def _chain(n, couplings, fields):
        bonds = [(float(couplings[i]), "I" * i + "XX" + "I" * (n - i - 2)) for i in range(n - 1)]
        return bonds + [(float(fields[i]), "I" * i + "Z" + "I" * (n - i - 1)) for i in range(n)]

    def prepare(self, i: int) -> dict:
        rng = _rng(self.seed, 2, i)
        return {"t": float(rng.uniform(0.15, 0.25)),
                "plan": self.es.measurement.ShotPlan(self.SHOTS, int(rng.integers(2**32)))}

    def op(self, inp):
        es = self.es
        tilde = es.evolution.evolve_enlarged(self.start, self.h_tilde, inp["t"], method="trotter2", steps=self.STEPS)
        value = es.monotones.evaluate_monotone(tilde, self.spec, path="embedded").value
        sampled, per_observable = es.measurement.sample_monotone(tilde, self.spec, inp["plan"])
        return {"amps": tilde.amplitudes, "value": value, "sampled": sampled, "per": list(per_observable)}

    def collect(self, inp, raw) -> dict:
        # The same chain cut to N_REDUCED qubits, evolved the same way; small
        # enough for the reference's dense exact propagation.
        es = self.es
        if self.reduced is None:
            self.reduced = (
                es.embedding.embed_hamiltonian(es.pauli.PauliSum.from_terms(self.reduced_terms)),
                es.embedding.embed_state(es.pauli.PureState(ref.ghz(self.N_REDUCED))),
            )
        h_small, start_small = self.reduced
        small = es.evolution.evolve_enlarged(start_small, h_small, inp["t"], method="trotter2", steps=self.STEPS)
        return dict(raw, reduced_amps=small.amplitudes)

    def check(self, inp, out) -> None:
        amps = out["amps"]
        require(abs(np.linalg.norm(amps) - 1.0) <= 1e-10, f"norm drifted to {np.linalg.norm(amps)!r}")
        psi = ref.unembed(amps)
        want = ref.monotone("n_qubit", psi)
        require(abs(out["value"] - want) <= 1e-10, f"embedded monotone {out['value']!r} vs reference {want!r}")
        exact = ref.observables("n_qubit", psi)
        ref.check_sampled(out["per"], exact, self.SHOTS, "trotter_chain")
        sampled = ref.contract_estimates("n_qubit", self.N, out["per"])
        require(abs(out["sampled"] - sampled) <= 1e-12, f"sampled value {out['sampled']!r} is not the contraction {sampled!r}")
        exact_small = ref.exact_evolve(self.reduced_terms, ref.ghz(self.N_REDUCED), inp["t"])
        error = np.linalg.norm(ref.unembed(out["reduced_amps"]) - exact_small)
        bound = inp.setdefault("bound", ref.strang_error_bound(self.reduced_terms, inp["t"], self.STEPS))
        require(error <= bound + 1e-12, f"reduced chain: Trotter error {error:.3e} exceeds the bound {bound:.3e}")

    def perturbations(self, inp, out):
        bound = inp.get("bound") or ref.strang_error_bound(self.reduced_terms, inp["t"], self.STEPS)
        kick = np.zeros_like(out["reduced_amps"])
        kick[0] = 3 * bound
        exact = ref.observables("n_qubit", ref.unembed(out["amps"]))
        return [
            ("monotone off by 1e-6", dict(out, value=out["value"] + 1e-6)),
            ("norm off by 1e-9", dict(out, amps=out["amps"] * (1 + 1e-9))),
            ("sampled estimate outside the bound", dict(out, per=[-1.0 if e >= 0 else 1.0 for e in exact])),
            ("reduced Trotter result 3 bounds away", dict(out, reduced_amps=out["reduced_amps"] + kick)),
        ]


class RoofMixed:
    """One fixed group of convex-roof solves per operation: a random rank-2
    two-qubit state with the concurrence spec, and a GHZ/W mixture
    p|GHZ><GHZ| + (1-p)|W><W| with seeded p in [0.2, 0.9] and the 3-tangle
    spec, both with RoofConfig(extra_terms=1, restarts=2). The 3-tangle
    solve is also capped at TANGLE_ITERATIONS iterations per restart.

    The cap makes the cost of an operation nearly independent of its inputs.
    Uncapped, the random restart of the 3-tangle solve ran 26 to 148
    iterations (median 47), so that the operation's cost had a long tail
    and the median of a run moved by 7% between seeds from the inputs alone.
    The first restart, at the spectral decomposition, stops after 18
    iterations either way. The concurrence solve runs to convergence (20 to
    32 iterations), as the check against Wootters' closed form needs.

    Werner and rank-3/4 states are left out of the group: their solves cost
    2-10x more with a wider spread, so a run would hold too few operations
    for a steady median."""

    TANGLE_ITERATIONS = 30

    name = "roof_mixed"

    def setup(self, es, seed: int, workdir: str) -> None:
        self.es, self.seed = es, seed
        self.concurrence = es.monotones.concurrence_spec()
        self.tangle = es.monotones.three_tangle_spec()
        self.tangle_ghz = ref.monotone("three_tangle", ref.ghz(3))
        self.tangle_w = ref.monotone("three_tangle", ref.w_state(3))

    def prepare(self, i: int) -> dict:
        rng = _rng(self.seed, 3, i)
        rho2 = ref.random_mixed(rng, 2, 2)
        p = float(rng.uniform(0.2, 0.9))
        ghz, w = ref.ghz(3), ref.w_state(3)
        rho3 = p * np.outer(ghz, ghz.conj()) + (1 - p) * np.outer(w, w.conj())
        RoofConfig = self.es.convexroof.RoofConfig
        cfg = RoofConfig(extra_terms=1, restarts=2, seed=int(rng.integers(2**32)))
        cfg3 = RoofConfig(extra_terms=1, restarts=2, max_iterations=self.TANGLE_ITERATIONS, seed=cfg.seed)
        MixedState = self.es.pauli.MixedState
        return {"rho2": rho2, "rho3": rho3, "p": p, "cfg": cfg, "cfg3": cfg3,
                "states": (MixedState(rho2), MixedState(rho3))}

    def op(self, inp):
        solve = self.es.convexroof.convex_roof_estimate
        two, three = inp["states"]
        return solve(two, self.concurrence, inp["cfg"]), solve(three, self.tangle, inp["cfg3"])

    def collect(self, inp, raw) -> dict:
        return {name: {"value": r.value,
                       "members": [(p, psi.amplitudes.copy()) for p, psi in r.decomposition.members]}
                for name, r in zip(("two", "three"), raw)}

    def check(self, inp, out) -> None:
        value = out["two"]["value"]
        closed = ref.wootters(inp["rho2"])
        require(abs(value - closed) <= 1e-3, f"concurrence roof {value!r} vs Wootters {closed!r}")
        require(value >= closed - 1e-9, f"concurrence roof {value!r} lies below Wootters {closed!r}")
        value = out["three"]["value"]
        ceiling = inp["p"] * self.tangle_ghz + (1 - inp["p"]) * self.tangle_w
        require(-1e-12 <= value <= ceiling + 1e-9, f"3-tangle roof {value!r} outside [0, {ceiling!r}]")
        for key, rho, name in (("two", inp["rho2"], "concurrence"), ("three", inp["rho3"], "three_tangle")):
            members = out[key]["members"]
            gap = np.linalg.norm(ref.ensemble_matrix(members) - rho)
            require(gap <= 1e-8, f"{key}: decomposition misses rho by {gap:.3e}")
            average = sum(p * ref.monotone(name, v) for p, v in members)
            require(abs(out[key]["value"] - average) <= 1e-8,
                    f"{key}: roof value {out[key]['value']!r} is not its decomposition's average {average!r}")

    def perturbations(self, inp, out):
        closed = ref.wootters(inp["rho2"])
        ceiling = inp["p"] * self.tangle_ghz + (1 - inp["p"]) * self.tangle_w

        def edit(key, **changes):
            bad = copy.deepcopy(out)
            bad[key].update(changes)
            return bad

        members = out["two"]["members"]
        skewed = [(p * (1.5 if j == 0 else 1.0), v) for j, (p, v) in enumerate(members)]
        evals, vecs = np.linalg.eigh(inp["rho2"])
        spectral = [(lam, vecs[:, j]) for j, lam in enumerate(evals) if lam > 1e-12]
        return [
            ("concurrence 1.5e-3 above Wootters", edit("two", value=closed + 1.5e-3)),
            ("concurrence 1e-6 below Wootters", edit("two", value=closed - 1e-6)),
            ("decomposition that does not reconstruct rho", edit("two", members=skewed)),
            ("3-tangle above its ensemble average", edit("three", value=ceiling + 1e-6)),
            ("a decomposition whose average is not the value", edit("two", members=spectral)),
        ]


class MonotoneBatch:
    """The pure-state path: one fresh random state per preset, evaluated
    directly, through the embedding, and by shot sampling (1000 shots)."""

    name = "monotone_batch"
    PRESETS = (("concurrence", 2), ("second_order", 2), ("three_tangle", 3),
               ("n_qubit", 4), ("n_qubit", 5), ("n_qubit", 6))
    SHOTS = 1000

    def setup(self, es, seed: int, workdir: str) -> None:
        self.es, self.seed = es, seed
        self.specs = [es.monotones.MONOTONE_PRESETS[name](n) for name, n in self.PRESETS]

    def prepare(self, i: int) -> dict:
        rng = _rng(self.seed, 4, i)
        vectors = [ref.random_state(rng, n) for _, n in self.PRESETS]
        plans = [self.es.measurement.ShotPlan(self.SHOTS, int(rng.integers(2**32))) for _ in self.PRESETS]
        return {"vectors": vectors, "plans": plans,
                "states": [self.es.pauli.PureState(v) for v in vectors]}

    def op(self, inp):
        es = self.es
        out = []
        for psi, spec, plan in zip(inp["states"], self.specs, inp["plans"]):
            direct = es.monotones.evaluate_monotone(psi, spec, path="direct").value
            embedded = es.monotones.evaluate_monotone(psi, spec, path="embedded").value
            sampled, per_observable = es.measurement.sample_monotone(es.embedding.embed_state(psi), spec, plan)
            out.append({"direct": direct, "embedded": embedded, "sampled": sampled, "per": list(per_observable)})
        return out

    def collect(self, inp, raw) -> list:
        # The same ShotPlan again, for the reproducibility check.
        es = self.es
        for rec, psi, spec, plan in zip(raw, inp["states"], self.specs, inp["plans"]):
            sampled, per_observable = es.measurement.sample_monotone(es.embedding.embed_state(psi), spec, plan)
            rec["repeat"] = (sampled, list(per_observable))
        return raw

    def check(self, inp, out) -> None:
        for rec, (name, n), v in zip(out, self.PRESETS, inp["vectors"]):
            where = f"{name}/{n}"
            require(abs(rec["direct"] - rec["embedded"]) <= 1e-10,
                    f"{where}: direct {rec['direct']!r} vs embedded {rec['embedded']!r}")
            want = ref.monotone(name, v)
            require(abs(rec["direct"] - want) <= 1e-10, f"{where}: direct {rec['direct']!r} vs reference {want!r}")
            if name == "concurrence":
                closed = 2 * abs(v[0] * v[3] - v[1] * v[2])
                require(abs(rec["direct"] - closed) <= 1e-12,
                        f"{where}: concurrence {rec['direct']!r} vs 2|a00 a11 - a01 a10| = {closed!r}")
            require(rec["repeat"] == (rec["sampled"], rec["per"]), f"{where}: a repeated ShotPlan sampled differently")
            ref.check_sampled(rec["per"], ref.observables(name, v), self.SHOTS, where)
            sampled = ref.contract_estimates(name, n, rec["per"])
            require(abs(rec["sampled"] - sampled) <= 1e-12,
                    f"{where}: sampled value {rec['sampled']!r} is not the contraction {sampled!r}")

    def perturbations(self, inp, out):
        def edit(index, **changes):
            bad = copy.deepcopy(out)
            bad[index].update(changes)
            return bad

        sampled, per = out[4]["repeat"]
        exact = ref.observables("n_qubit", inp["vectors"][3])
        far = [-1.0 if e >= 0 else 1.0 for e in exact]
        return [
            ("embedded off by 1e-6", edit(2, embedded=out[2]["embedded"] + 1e-6)),
            ("concurrence off by 1e-6", edit(0, direct=out[0]["direct"] + 1e-6, embedded=out[0]["embedded"] + 1e-6)),
            ("second_order off by 1e-6 on both paths", edit(1, direct=out[1]["direct"] - 1e-6, embedded=out[1]["embedded"] - 1e-6)),
            ("repeat differs by one ulp", edit(4, repeat=(sampled, [np.nextafter(per[0], 2.0)] + per[1:]))),
            ("sampled estimate outside the bound", edit(3, per=far, repeat=(out[3]["sampled"], far))),
        ]


WORKLOADS = {w.name: w for w in (TrajectoryExact, TrotterChain, RoofMixed, MonotoneBatch)}
