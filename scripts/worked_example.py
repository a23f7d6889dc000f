#!/usr/bin/env python3
"""Trajectory of the concurrence under H = XY + XZ, starting from a Bell pair.

Runs the same dynamics twice -- directly in the two-qubit space and through
the real three-qubit enlarged space -- and prints both values at each time
so the agreement of the two paths is visible at a glance.
"""

import argparse

import numpy as np

from embedsim import (
    PauliSum,
    PureState,
    concurrence_spec,
    embed_hamiltonian,
    embed_state,
    evaluate_monotone,
    evolve,
    evolve_enlarged,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-max", type=float, default=3.0)
    parser.add_argument("--points", type=int, default=13)
    args = parser.parse_args()

    h = PauliSum.from_terms([(1.0, "XY"), (1.0, "XZ")])
    h_tilde = embed_hamiltonian(h)
    psi0 = PureState(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2))
    tilde0 = embed_state(psi0)
    spec = concurrence_spec()

    print("embedded Hamiltonian terms:")
    for record in h_tilde.operator.to_records():
        print(f"  {record['coeff']:+g} * {record['pauli']}")
    print(f"\n{'t':>6} {'direct':>12} {'embedded':>12} {'|diff|':>10}")
    # each path evolves the whole trajectory in one call
    times = np.linspace(0.0, args.t_max, args.points)
    psis = evolve(psi0.amplitudes, h, times)
    tildes = evolve_enlarged(tilde0, h_tilde, times)
    for t, psi_t, tilde_t in zip(times, psis, tildes):
        direct = evaluate_monotone(PureState(psi_t), spec, path="direct").value
        embedded = evaluate_monotone(tilde_t, spec, path="embedded").value
        print(f"{t:6.3f} {direct:12.8f} {embedded:12.8f} {abs(direct - embedded):10.2e}")


if __name__ == "__main__":
    main()
