"""Simulation and process-fidelity estimation toolkit for a linear-optical CZ gate."""

from .core import (
    PROBE_LABELS,
    cz_choi,
    identity_choi,
    pair_index,
    pair_ket,
    pauli_coefficients,
    probe_state,
    process_fidelity,
)
from .estimators import (
    EXPANSIONS,
    FidelityReport,
    HofmannResult,
    bound_gap_decomposition,
    estimate,
    hofmann_bounds,
    monte_carlo_fidelity,
    monte_carlo_fidelity_renormalized,
    u_coefficients,
)
from .exceptions import DegenerateDataError
from .model import (
    hom_visibility,
    model_choi,
    model_fidelity,
    model_hofmann_curves,
    q_from_visibility,
)
from .simulate import (
    CoincidenceTable,
    DriftProfile,
    ExperimentConfig,
    ReferenceCounts,
    expected_counts,
    outcome_probabilities,
    renormalize_counts,
    simulate_counts,
)
from .tomography import (
    BootstrapResult,
    MaxLikSettings,
    ReconstructionResult,
    bootstrap_fidelity_uncertainty,
    maxlik_reconstruct,
    maxlik_reconstruct_batch,
    r_operator,
)

__version__ = "0.1.0"

__all__ = [
    "PROBE_LABELS",
    "EXPANSIONS",
    "DegenerateDataError",
    "bootstrap_fidelity_uncertainty",
    "BootstrapResult",
    "bound_gap_decomposition",
    "CoincidenceTable",
    "cz_choi",
    "DriftProfile",
    "estimate",
    "expected_counts",
    "ExperimentConfig",
    "FidelityReport",
    "hofmann_bounds",
    "HofmannResult",
    "hom_visibility",
    "identity_choi",
    "maxlik_reconstruct",
    "maxlik_reconstruct_batch",
    "MaxLikSettings",
    "model_choi",
    "model_fidelity",
    "model_hofmann_curves",
    "monte_carlo_fidelity",
    "monte_carlo_fidelity_renormalized",
    "outcome_probabilities",
    "pair_index",
    "pair_ket",
    "pauli_coefficients",
    "probe_state",
    "process_fidelity",
    "q_from_visibility",
    "r_operator",
    "ReconstructionResult",
    "ReferenceCounts",
    "renormalize_counts",
    "simulate_counts",
    "u_coefficients",
]
