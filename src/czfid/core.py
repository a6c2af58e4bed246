"""Linear algebra over one- and two-qubit polarization spaces.

Conventions used throughout the package:

* Computational basis: ``|0> = |H>``, ``|1> = |V>``.
* Two-qubit kets are flattened as ``|q1 q2>`` with qubit 1 the most
  significant bit, i.e. ``kron(q1, q2)``.
* Process matrices (Choi operators) live on input (x) output space, in that
  order, so a 16-dimensional index factors as
  ``(q1_in, q2_in, q1_out, q2_out)``.
* The maximally entangled reference ket ``sum_jk |jk>|jk>`` is kept
  unnormalized (norm^2 = 4); every fidelity formula below carries its own
  normalization, so no hidden factors appear.

The measurement all estimators share, ``Pi_jk,lm = Psi_jk^T (x) Psi_lm``
(36 preparations x 36 projections, summing to ``81 I``), is one operator
here.  With ``P`` the 36x16 matrix of flattened pair projectors and
``realign`` the fixed 4-axis transpose ``chi[(i, a), (j, b)] -> X[(i, j),
(a, b)]`` (input i, j; output a, b), the forward map :func:`measurement_map`
is ``p = Re(P . realign(chi) . P^H)`` and its adjoint
:func:`measurement_adjoint` is ``R = sum w Pi``, the transpose of
``realign^-1(P^T . w . conj(P))``.

The matmuls leave residues near 1e-17 where a term-by-term sum gives an
exact zero.  Callers drawing Poisson counts set ``|p| <= ZERO_CLAMP *
max(Tr chi, 1)`` to exactly 0: ``Generator.poisson`` consumes random numbers
for a positive mean and none for a zero one, so a residue would shift every
later draw and change the dataset a seed produces.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Probe-state labels in canonical order; index pairs (j, k) into the 36
#: two-qubit preparations/projections are flattened as 6*j + k.
PROBE_LABELS = ("H", "V", "D", "A", "R", "L")

_SQRT2 = np.sqrt(2.0)

_PROBE_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
    "R": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
    "L": np.array([1.0, -1.0j], dtype=complex) / _SQRT2,
}

#: Pauli matrices sigma_0..sigma_3 (identity, X, Y, Z).
PAULIS = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def probe_label(j: int | str) -> str:
    """Normalize a probe identifier (1-based index or label) to its label."""
    if isinstance(j, str):
        label = j.upper()
        if label not in PROBE_LABELS:
            raise ValueError(f"unknown probe state {j!r}; expected one of {PROBE_LABELS}")
        return label
    if not 1 <= j <= 6:
        raise ValueError(f"probe index must be in 1..6, got {j}")
    return PROBE_LABELS[j - 1]


def probe_state(j: int | str) -> np.ndarray:
    """Single-qubit probe ket |psi_j> for j in 1..6 or label in H,V,D,A,R,L."""
    return _PROBE_KETS[probe_label(j)].copy()


def pair_index(j: int | str, k: int | str) -> int:
    """Flat index in 0..35 of the two-qubit probe pair (j, k)."""
    return 6 * PROBE_LABELS.index(probe_label(j)) + PROBE_LABELS.index(probe_label(k))


def pair_labels(n: int) -> tuple[str, str]:
    """Inverse of :func:`pair_index`."""
    if not 0 <= n < 36:
        raise ValueError(f"pair index must be in 0..35, got {n}")
    return PROBE_LABELS[n // 6], PROBE_LABELS[n % 6]


def pair_ket(j: int | str, k: int | str) -> np.ndarray:
    """Product two-qubit ket |psi_j>|psi_k>."""
    return np.kron(probe_state(j), probe_state(k))


def count_table(counts) -> np.ndarray:
    """Validated 36x36 coincidence table as floats, from an array or ``.counts``."""
    return _checked_counts(getattr(counts, "counts", counts), (36, 36), "count table")


def reference_values(references) -> np.ndarray:
    """Validated 36 reference counts as floats, from an array or ``.values``."""
    return _checked_counts(getattr(references, "values", references), (36,), "reference counts")


def _checked_counts(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {values.shape}")
    n_bad = int(np.count_nonzero(~np.isfinite(values)))
    if n_bad:
        raise ValueError(f"{name} has {n_bad} non-finite counts")
    if np.any(values < 0):
        raise ValueError(f"{name} has negative counts; counts must be nonnegative")
    return values


@lru_cache(maxsize=1)
def pair_projectors() -> np.ndarray:
    """All 36 product projectors |psi_j psi_k><psi_j psi_k|, shape (36, 4, 4)."""
    out = np.empty((36, 4, 4), dtype=complex)
    for j in range(6):
        for k in range(6):
            ket = np.kron(_PROBE_KETS[PROBE_LABELS[j]], _PROBE_KETS[PROBE_LABELS[k]])
            out[6 * j + k] = np.outer(ket, ket.conj())
    out.setflags(write=False)
    return out


#: ``|p| <= ZERO_CLAMP * max(Tr chi, 1)`` is roundoff of an exact zero.
ZERO_CLAMP = 1e-14


def measurement_map(chi: np.ndarray) -> np.ndarray:
    """Raw 36x36 table ``p[jk, lm] = Tr[Pi_jk,lm chi]``; no validation, no clamp."""
    proj = pair_projectors().reshape(36, 16)
    x = np.asarray(chi).reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    return (proj @ x @ proj.conj().T).real


def measurement_adjoint(weights: np.ndarray) -> np.ndarray:
    """16x16 operator ``sum_jk,lm weights[jk, lm] Pi_jk,lm`` for real weights."""
    proj = pair_projectors().reshape(36, 16)
    m = proj.T @ weights @ proj.conj()
    return m.reshape(4, 4, 4, 4).transpose(1, 3, 0, 2).reshape(16, 16)


def cz_unitary() -> np.ndarray:
    """Controlled-Z on two qubits: pi phase shift iff both qubits are |1>."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def phi_plus_ket() -> np.ndarray:
    """Unnormalized maximally entangled ket sum_jk |jk>|jk> (norm^2 = 4)."""
    return np.eye(4, dtype=complex).reshape(16)


def choi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Choi matrix (I (x) U)|Phi+><Phi+|(I (x) U)^dag of a two-qubit unitary."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 unitary, got shape {u.shape}")
    ket = np.kron(np.eye(4, dtype=complex), u) @ phi_plus_ket()
    return np.outer(ket, ket.conj())


@lru_cache(maxsize=1)
def _cz_choi_cached() -> np.ndarray:
    chi = choi_of_unitary(cz_unitary())
    chi.setflags(write=False)
    return chi


def cz_choi() -> np.ndarray:
    """Rank-1, trace-4 Choi matrix of the ideal CZ gate."""
    return _cz_choi_cached().copy()


def identity_choi() -> np.ndarray:
    """Choi matrix |Phi+><Phi+| of the identity channel (trace 4)."""
    ket = phi_plus_ket()
    return np.outer(ket, ket.conj())


def hermitize(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Symmetrize (M + M^dag)/2; deviations above ``tol`` indicate a bug."""
    m = np.asarray(m, dtype=complex)
    deviation = np.max(np.abs(m - m.conj().T))
    if deviation > tol:
        raise RuntimeError(f"matrix is not Hermitian within {tol:g} (deviation {deviation:.3e})")
    return (m + m.conj().T) / 2.0


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(m)[0])


def apply_channel(chi: np.ndarray, rho_in: np.ndarray) -> tuple[np.ndarray, float]:
    """Propagate a two-qubit state through the process described by ``chi``.

    Returns the unnormalized output state ``rho_out = Tr_in[rho_in^T (x) I chi]``
    and its trace, the success probability of the (possibly trace-decreasing)
    operation for this input.
    """
    chi = np.asarray(chi, dtype=complex)
    rho_in = np.asarray(rho_in, dtype=complex)
    if chi.shape != (16, 16):
        raise ValueError(f"expected a 16x16 process matrix, got shape {chi.shape}")
    if rho_in.shape != (4, 4):
        raise ValueError(f"expected a 4x4 input state, got shape {rho_in.shape}")
    if not is_hermitian(rho_in, tol=1e-10):
        raise ValueError("input state must be Hermitian")
    if min_eigenvalue(hermitize(rho_in)) < -1e-10:
        raise ValueError("input state must be positive semidefinite")
    if abs(np.trace(rho_in).real - 1.0) > 1e-9:
        raise ValueError("input state must have unit trace")
    chi4 = chi.reshape(4, 4, 4, 4)
    # Tr_in[(rho^T (x) I) chi]: the transpose cancels against the trace
    # pairing, leaving rho_out[a, b] = sum_ij rho_in[i, j] chi[(i, a), (j, b)]
    rho_out = np.einsum("ij,iajb->ab", rho_in, chi4)
    p = float(np.trace(rho_out).real)
    return rho_out, p


def process_fidelity(chi: np.ndarray, chi_ref: np.ndarray) -> float:
    """Normalized overlap Tr[chi chi_ref] / (Tr[chi_ref] Tr[chi]).

    Invariant under positive rescaling of either argument; equals 1 iff the
    two (PSD) process matrices are proportional and rank-1 aligned.
    """
    chi = np.asarray(chi, dtype=complex)
    chi_ref = np.asarray(chi_ref, dtype=complex)
    tr = np.trace(chi).real
    tr_ref = np.trace(chi_ref).real
    if tr <= 1e-14 or tr_ref <= 1e-14:
        raise ValueError("process fidelity is undefined for zero-trace process matrices")
    overlap = np.einsum("ij,ji->", chi, chi_ref).real
    return float(overlap / (tr * tr_ref))


@lru_cache(maxsize=1)
def _pauli_product_basis() -> np.ndarray:
    """The 256 operators sigma_a (x) sigma_b (x) sigma_c (x) sigma_d, (256, 16, 16)."""
    out = np.empty((256, 16, 16), dtype=complex)
    n = 0
    for a in range(4):
        for b in range(4):
            ab = np.kron(PAULIS[a], PAULIS[b])
            for c in range(4):
                for d in range(4):
                    out[n] = np.kron(ab, np.kron(PAULIS[c], PAULIS[d]))
                    n += 1
    out.setflags(write=False)
    return out


def pauli_coefficients(chi: np.ndarray) -> np.ndarray:
    """Coefficients s[a,b,c,d] = Tr[chi sigma_a (x) sigma_b (x) sigma_c (x) sigma_d] / 16.

    The slot order matches the process-matrix index factorization
    (q1_in, q2_in, q1_out, q2_out).  For Hermitian input the coefficients are
    real, and ``pauli_resum(pauli_coefficients(chi)) == chi``.
    """
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (16, 16):
        raise ValueError(f"expected a 16x16 matrix, got shape {chi.shape}")
    if not is_hermitian(chi, tol=1e-9):
        raise ValueError("Pauli expansion is defined here for Hermitian matrices only")
    basis = _pauli_product_basis()
    s = np.einsum("nij,ji->n", basis, chi).real / 16.0
    return s.reshape(4, 4, 4, 4)


def pauli_resum(s: np.ndarray) -> np.ndarray:
    """Rebuild a 16x16 matrix from its Pauli-product coefficients."""
    s = np.asarray(s, dtype=float)
    if s.shape != (4, 4, 4, 4):
        raise ValueError(f"expected coefficients of shape (4,4,4,4), got {s.shape}")
    basis = _pauli_product_basis()
    return np.tensordot(s.reshape(256), basis, axes=1)
