"""Shared literal definitions used as independent oracles.

Everything here is built from hand-written arrays and explicit Kronecker
products, deliberately not reusing the package's vectorized paths, so tests
compare two independent constructions.  The package calls are
``model_choi``, the process that ``model_state_behavior_numeric`` propagates
probes through, ``q_from_visibility``, the mixing weight of its closed-form
counterpart ``model_state_behavior``, ``core.measurement_adjoint`` in ``q_operator``, whose tests
check it against literal projectors, and ``tomography.r_operator`` in
``rchir_step_diagnostics``, which evaluates the steps the ``rchir_steps``
fixture records from the maximum-likelihood loop.  ``python`` runs a
snippet in a fresh interpreter on the checkout's ``src``.
"""

import ctypes
import os
import subprocess
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from czfid import core, tomography
from czfid.model import HOFMANN_BASIS_INPUTS, HOFMANN_BASIS_OUTPUTS, model_choi, q_from_visibility

SQ2 = np.sqrt(2.0)

SRC = Path(__file__).resolve().parent.parent / "src"

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


def pauli_coefficients(chi: np.ndarray) -> np.ndarray:
    """Coefficients s[a,b,c,d] = Tr[chi sigma_a (x) sigma_b (x) sigma_c (x) sigma_d] / 16 of a Hermitian 16x16 chi.

    The slot order matches the process-matrix index factorization
    (q1_in, q2_in, q1_out, q2_out); ``pauli_resum`` of the coefficients gives back ``chi``.
    """
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (16, 16) or np.max(np.abs(chi - chi.conj().T)) > 1e-9:
        raise ValueError("expected a Hermitian 16x16 matrix")
    return np.einsum("nij,ji->n", _pauli_products(), chi).real.reshape(4, 4, 4, 4) / 16.0


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


#: Two-qubit probes whose state fidelity and success probability have closed
#: forms: those containing |H> are untouched by the ideal gate, those
#: containing |V> overlap |VV>.
HOFMANN_PROBES = HOFMANN_BASIS_INPUTS[0] + HOFMANN_BASIS_INPUTS[1]


def model_state_behavior(probe: str, v: float) -> tuple[float, float]:
    """Closed-form success probability and output-state fidelity for one probe state.

    Probes containing |H> are orthogonal to |VV> and see the ideal action:
    p = 1/9, f = 1 at any visibility.  Probes containing |V> pick up the
    incoherent |VV> projection: p = (3 - 2q)/9 and f = 1/(3 - 2q).
    """
    q = q_from_visibility(v)
    if probe not in HOFMANN_PROBES:
        raise ValueError(f"probe must be one of {HOFMANN_PROBES}, got {probe!r}")
    if "H" in probe:
        return 1.0 / 9.0, 1.0
    return (3.0 - 2.0 * q) / 9.0, 1.0 / (3.0 - 2.0 * q)


def model_state_behavior_numeric(probe: str, v: float) -> tuple[float, float]:
    """Success probability and output-state fidelity of ``probe`` through ``model_choi(v)``.

    Propagates the probe through the Choi matrix and projects onto the ideal
    CZ output, the numeric counterpart of ``model_state_behavior``.
    """
    if probe not in HOFMANN_PROBES:
        raise ValueError(f"probe must be one of {HOFMANN_PROBES}, got {probe!r}")
    ket = np.kron(KETS[probe[0]], KETS[probe[1]])
    rho_out, p = apply_channel(model_choi(v), np.outer(ket, ket.conj()))
    target = U_CZ @ ket
    return p, float((target.conj() @ rho_out @ target).real) / p


def q_operator() -> np.ndarray:
    """Operator certifying the weighted lower bound, (1/4) chi_CZ - Q1 - Q2 + I.

    ``Q_k = sum_j omega_j,k^T (x) omega'_j,k`` pairs each input projector of
    basis k with its ideal output projector from ``HOFMANN_BASIS_OUTPUTS``,
    and encodes the weighted average state fidelity of basis k as
    Tr[Q_k chi]/Tr[chi]; ``Q1 + Q2`` is ``core.measurement_adjoint`` of the
    0/1 indicator of the 8 good cells ``hofmann_bounds`` reads.  Positive
    semidefiniteness of the total makes F_1 + F_2 - 1 a valid lower bound for
    trace-decreasing operations as well.
    """
    good_cells = np.zeros((36, 36))
    for inputs, outputs in zip(HOFMANN_BASIS_INPUTS, HOFMANN_BASIS_OUTPUTS):
        for probe_in, probe_out in zip(inputs, outputs):
            good_cells[core.pair_index(*probe_in), core.pair_index(*probe_out)] = 1.0
    return core.cz_choi() / 4.0 + np.eye(16) - core.measurement_adjoint(good_cells)


def pytest_report_header():
    # golden is imported here, not at module level: bench/child.py runs this
    # file outside pytest, where tests/ is not on sys.path
    import golden

    pinned = golden.PINNED_ON
    return (f"bit pins made on numpy {pinned['numpy']}, {pinned['openblas']}; "
            f"this run: numpy {np.__version__}, {_openblas_config()}")


def _openblas_config() -> str:
    """``scipy_openblas_get_config64_()`` of numpy's bundled OpenBLAS, naming
    its runtime kernel, or ``unknown`` where no such library or symbol is."""
    for library in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        try:
            get_config = ctypes.CDLL(str(library)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.restype = ctypes.c_char_p
        return get_config().decode()
    return "unknown"


@pytest.fixture(params=[0o022, 0o027], ids=["umask-022", "umask-027"])
def umask(request) -> int:
    """Run the test under a common umask, then restore the one before (the umask is process-wide)."""
    before = os.umask(request.param)
    yield request.param
    os.umask(before)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def python(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter with ``env`` and no preset ``OPENBLAS_NUM_THREADS``; return stdout."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.strip()


@pytest.fixture
def rchir_steps(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(chi, p)`` of every step of the R chi R loop, for a fit of one table.

    Wraps the call ``core.buffered_map`` makes for the loop once per front,
    over its ``(B, 16, 16)`` stack and workspace buffers, and which the loop
    makes once per iteration.  ``r_operator`` maps through
    ``core.measurement_map``, whose call is not wrapped.
    """
    seen = []
    buffered_map = tomography.buffered_map

    def recording(chi, *buffers):
        forward = buffered_map(chi, *buffers)

        def step():
            p = forward()
            seen.append((chi[0].copy(), p[0].copy()))
            return p
        return step

    monkeypatch.setattr(tomography, "buffered_map", recording)
    return seen


def rchir_step_diagnostics(counts, steps, fit) -> tuple[np.ndarray, np.ndarray]:
    """Residual ``|R chi - C_tot chi|_1 / C_tot`` and log-likelihood ``sum C ln p - C_tot`` per step.

    ``steps`` are those ``rchir_steps`` recorded for the lone fit ``fit`` of
    ``counts``; first checks that they are all of that fit's steps: one per
    iteration, the last giving exactly its residual and log-likelihood.
    """
    table = np.asarray(counts, dtype=float)
    c_tot = table.sum()
    measured = table > 0
    residuals, logliks = [], []
    for chi, p in steps:
        r = tomography.r_operator(chi, table)
        residuals.append(np.abs(r @ chi - c_tot * chi).sum() / c_tot)
        logliks.append(float(np.sum(table[measured] * np.log(np.maximum(p[measured], 1e-12)))) - c_tot)
    assert len(steps) == fit.iterations + 1
    assert residuals[-1] == fit.final_residual and logliks[-1] == fit.log_likelihood
    return np.array(residuals), np.array(logliks)
