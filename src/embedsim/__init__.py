"""Enlarged-space ("embedding") simulation of antilinear entanglement
monotones: real-space encoding of complex qubit dynamics, few-observable
monotone evaluation, finite-shot sampling, and convex-roof estimation for
mixed states."""

from .convexroof import (
    Decomposition,
    RoofConfig,
    RoofResult,
    convex_roof_estimate,
    decomposition_from_isometry,
    roof_objective,
    werner_state,
    wootters_oracle,
)
from .embedding import (
    EmbeddedHamiltonian,
    EnlargedState,
    conjugation_gate,
    embed_hamiltonian,
    embed_observable,
    embed_state,
    reality_residual,
    split_hamiltonian,
    unembed_state,
    unembedding_matrix,
)
from .errors import CapacityError, ConfigError, DimensionError, NumericalIntegrityError
from .evolution import evolve, evolve_enlarged, evolve_exact, evolve_trotter
from .measurement import (
    ShotPlan,
    sample_estimates,
    sample_expectation,
    sample_monotone,
)
from .monotones import (
    MonotoneSpec,
    MonotoneValue,
    antilinear_expectation_direct,
    combine_estimates,
    concurrence,
    concurrence_spec,
    contract,
    evaluate_monotone,
    expand_to_observables,
    n_qubit_spec,
    second_order_spec,
    three_tangle,
    three_tangle_spec,
    tomography_baseline,
)
from .pauli import (
    MixedState,
    PauliString,
    PauliSum,
    PureState,
    apply_pauli_sum,
    dense_matrix,
    expectation,
    y_parity,
)

__version__ = "0.1.0"
