"""Shared literal definitions used as independent oracles.

Everything here is built from hand-written arrays and explicit Kronecker
products, deliberately not reusing the package's vectorized paths, so tests
compare two independent constructions.  The one package call is
``model_choi``, the process that ``model_state_behavior_numeric`` propagates
probes through.
"""

from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from czfid.model import HOFMANN_PROBES, model_choi

SQ2 = np.sqrt(2.0)

#: Probe kets written out literally, in the package's canonical order.
KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / SQ2,
    "A": np.array([1, -1], dtype=complex) / SQ2,
    "R": np.array([1, 1j], dtype=complex) / SQ2,
    "L": np.array([1, -1j], dtype=complex) / SQ2,
}
ORDER = ("H", "V", "D", "A", "R", "L")

U_CZ = np.diag([1, 1, 1, -1]).astype(complex)

#: Pauli matrices sigma_0..sigma_3 (identity, X, Y, Z).
PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def proj(label: str) -> np.ndarray:
    ket = KETS[label]
    return np.outer(ket, ket.conj())


def povm_element(j: str, k: str, l: str, m: str) -> np.ndarray:
    """Measurement operator (P_j (x) P_k)^T (x) (P_l (x) P_m), built explicitly."""
    prep = np.kron(proj(j), proj(k)).T
    meas = np.kron(proj(l), proj(m))
    return np.kron(prep, meas)


def probability_table_bruteforce(chi: np.ndarray) -> np.ndarray:
    """36x36 outcome probabilities via explicit operator traces."""
    table = np.empty((36, 36))
    for n, (j, k) in enumerate((a, b) for a in ORDER for b in ORDER):
        for m, (l, mm) in enumerate((a, b) for a in ORDER for b in ORDER):
            table[n, m] = np.trace(povm_element(j, k, l, mm) @ chi).real
    return table


def random_psd_choi(rng: np.random.Generator, mix: float = 0.0) -> np.ndarray:
    """Random PSD 16x16 matrix, optionally mixed with identity for full rank."""
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    chi = a @ a.conj().T
    if mix > 0.0:
        chi = (1.0 - mix) * chi + mix * np.trace(chi).real * np.eye(16) / 16.0
    return chi


def hermitize(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Symmetrize (M + M^dag)/2; deviations above ``tol`` indicate a bug."""
    m = np.asarray(m, dtype=complex)
    deviation = np.max(np.abs(m - m.conj().T))
    if deviation > tol:
        raise RuntimeError(f"matrix is not Hermitian within {tol:g} (deviation {deviation:.3e})")
    return (m + m.conj().T) / 2.0


def apply_channel(chi: np.ndarray, rho_in: np.ndarray) -> tuple[np.ndarray, float]:
    """Unnormalized output ``Tr_in[(rho_in^T (x) I) chi]`` of a unit-trace state, and its trace.

    The trace is the success probability of the (possibly trace-decreasing)
    process for this input.
    """
    chi = np.asarray(chi, dtype=complex)
    rho_in = np.asarray(rho_in, dtype=complex)
    if chi.shape != (16, 16) or rho_in.shape != (4, 4):
        raise ValueError(f"expected a 16x16 process and a 4x4 state, got {chi.shape}, {rho_in.shape}")
    if np.max(np.abs(rho_in - rho_in.conj().T)) > 1e-10:
        raise ValueError("input state must be Hermitian")
    if np.linalg.eigvalsh(hermitize(rho_in))[0] < -1e-10:
        raise ValueError("input state must be positive semidefinite")
    if abs(np.trace(rho_in).real - 1.0) > 1e-9:
        raise ValueError("input state must have unit trace")
    # the transpose cancels against the trace pairing:
    # rho_out[a, b] = sum_ij rho_in[i, j] chi[(i, a), (j, b)]
    rho_out = np.einsum("ij,iajb->ab", rho_in, chi.reshape(4, 4, 4, 4))
    return rho_out, float(np.trace(rho_out).real)


def pauli_resum(s: np.ndarray) -> np.ndarray:
    """The 16x16 matrix ``sum s[a,b,c,d] sigma_a (x) sigma_b (x) sigma_c (x) sigma_d``."""
    s = np.asarray(s, dtype=float)
    if s.shape != (4, 4, 4, 4):
        raise ValueError(f"expected coefficients of shape (4,4,4,4), got {s.shape}")
    return np.tensordot(s.reshape(256), _pauli_products(), axes=1)


@lru_cache(maxsize=1)
def _pauli_products() -> np.ndarray:
    """sigma_a (x) sigma_b (x) sigma_c (x) sigma_d for a, b, c, d in 0..3, shape (256, 16, 16)."""
    return np.array([
        np.kron(np.kron(PAULIS[a], PAULIS[b]), np.kron(PAULIS[c], PAULIS[d]))
        for a, b, c, d in product(range(4), repeat=4)
    ])


def model_state_behavior_numeric(probe: str, v: float) -> tuple[float, float]:
    """Success probability and output-state fidelity of ``probe`` through ``model_choi(v)``.

    Propagates the probe through the Choi matrix and projects onto the ideal
    CZ output, the numeric counterpart of ``model.model_state_behavior``.
    """
    if probe not in HOFMANN_PROBES:
        raise ValueError(f"probe must be one of {HOFMANN_PROBES}, got {probe!r}")
    ket = np.kron(KETS[probe[0]], KETS[probe[1]])
    rho_out, p = apply_channel(model_choi(v), np.outer(ket, ket.conj()))
    target = U_CZ @ ket
    return p, float((target.conj() @ rho_out @ target).real) / p


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
