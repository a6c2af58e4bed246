"""Closed-form model of a linear-optical CZ gate versus interference visibility.

The gate is modeled as a probabilistic mixture: with probability ``q`` the two
photons interfere and the ideal CZ operation succeeds (probability 1/9), with
probability ``1 - q`` they act as distinguishable particles and the surviving
coincidences realize an incoherent channel.  The mixing weight relates to the
Hong-Ou-Mandel dip visibility as ``q = 2V / (1 + V)``.

Everything here is exact arithmetic over that two-term mixture; it serves as
ground truth for the statistical estimators elsewhere in the package.
"""

from __future__ import annotations

import numpy as np

from .core import cz_choi, identity_choi, pair_ket, real_number

#: Input probes of the two mutually unbiased product bases used for the
#: state-fidelity bounds, and the product states the ideal CZ maps them to.
HOFMANN_BASIS_INPUTS = (
    ("DH", "DV", "AH", "AV"),
    ("HD", "VD", "HA", "VA"),
)
HOFMANN_BASIS_OUTPUTS = (
    ("DH", "AV", "AH", "DV"),
    ("HD", "VA", "HA", "VD"),
)

#: Slack allowed before an out-of-range visibility is rejected instead of
#: clamped; finite-count dip calibrations can overshoot [0, 1] slightly.
VISIBILITY_CLAMP_TOL = 1e-3


def clamp_visibility(v: float) -> float:
    """``v`` as a float moved into [0, 1]; ValueError if it lies further out than the slack."""
    v = real_number(v, "visibility must lie in [0, 1]",
                    lambda x: -VISIBILITY_CLAMP_TOL <= x <= 1.0 + VISIBILITY_CLAMP_TOL)
    return min(max(v, 0.0), 1.0)


def q_from_visibility(v: float) -> float:
    """Interference probability q = 2V / (1 + V)."""
    v = clamp_visibility(v)
    return 2.0 * v / (1.0 + v)


def model_choi(v: float) -> np.ndarray:
    """Process matrix (q/9) chi_CZ + (1 - q) chi_inc at visibility ``v``.

    The distinguishable-photon contribution chi_inc mixes the identity
    channel (both photons transmitted) and a projection onto |VV> (both
    reflected), weighted by the respective coincidence probabilities:
    (1/9)|Phi+><Phi+| + (4/9)|VVVV><VVVV|.  Trace equals (8 - 4q) / 9, i.e.
    the map is trace-decreasing for q < 1.
    """
    q = q_from_visibility(v)
    vvvv = pair_ket("V", "V")
    vvvv = np.kron(vvvv, vvvv)
    incoherent = identity_choi() / 9.0 + (4.0 / 9.0) * np.outer(vvvv, vvvv.conj())
    return (q / 9.0) * cz_choi() + (1.0 - q) * incoherent


def model_fidelity(v: float) -> float:
    """Process fidelity of the model gate to the ideal CZ: (1 + 3V) / 4."""
    v = clamp_visibility(v)
    return (1.0 + 3.0 * v) / 4.0


def model_hofmann_curves(v: float) -> tuple[float, float, float, float]:
    """Weighted state-fidelity means and both fidelity bounds at visibility ``v``.

    Returns ``(F1, F2, F_H, F_D)`` where F1 = F2 = (1 + V)/2 are the weighted
    average state fidelities of the two mutually unbiased probe bases,
    F_H = F1 + F2 - 1 = V is the bound valid for trace-decreasing operations,
    and F_D = (1 + V)/(3 - V) is the plain-average variant that is a valid
    lower bound only for deterministic (trace-preserving) operations.
    """
    v = clamp_visibility(v)
    f_weighted = (1.0 + v) / 2.0
    f_h = v
    f_d = (1.0 + v) / (3.0 - v)
    return f_weighted, f_weighted, f_h, f_d
