"""Simulation and process-fidelity estimation toolkit for a linear-optical CZ gate.

Each public name is imported from its home module on first use (PEP 562), so
``import czfid`` alone loads no numpy.
"""

import importlib

__version__ = "0.1.0"

#: Every public name and the module that defines it.
_HOMES = {
    "PROBE_LABELS": "core",
    "cz_choi": "core",
    "pair_index": "core",
    "pair_ket": "core",
    "process_fidelity": "core",
    "EXPANSIONS": "estimators",
    "FidelityReport": "estimators",
    "HofmannResult": "estimators",
    "bound_gap_decomposition": "estimators",
    "estimate": "estimators",
    "hofmann_bounds": "estimators",
    "monte_carlo_fidelity": "estimators",
    "monte_carlo_fidelity_renormalized": "estimators",
    "u_coefficients": "estimators",
    "DegenerateDataError": "exceptions",
    "model_choi": "model",
    "model_fidelity": "model",
    "model_hofmann_curves": "model",
    "CoincidenceTable": "simulate",
    "DriftProfile": "simulate",
    "ExperimentConfig": "simulate",
    "expected_counts": "simulate",
    "outcome_probabilities": "simulate",
    "renormalize_counts": "simulate",
    "simulate_counts": "simulate",
    "BootstrapResult": "tomography",
    "MaxLikSettings": "tomography",
    "ReconstructionResult": "tomography",
    "bootstrap_fidelity_uncertainty": "tomography",
    "maxlik_reconstruct": "tomography",
    "maxlik_reconstruct_batch": "tomography",
    "r_operator": "tomography",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
