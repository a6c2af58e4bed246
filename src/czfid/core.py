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
``realign^-1(P^T . w . conj(P))``.  Row n of ``P`` is the flattened
projector onto :func:`pair_ket` of ``pair_labels(n)``; ``P`` and the views
of it the two maps use are built once, at import, as read-only module
constants.

The matmuls leave residues near 1e-17 where a term-by-term sum gives an
exact zero.  Callers drawing Poisson counts set ``|p| <= ZERO_CLAMP *
max(Tr chi, 1)`` to exactly 0: ``Generator.poisson`` consumes random numbers
for a positive mean and none for a zero one, so a residue would shift every
later draw and change the dataset a seed produces.
"""

from __future__ import annotations

import math
import operator

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

#: The probe frame S[j, a] = <psi_j|sigma_a|psi_j>: the six probes' Bloch vectors, each after a 1, as exact
#: 0 and +-1 entries (the kets carry 1/sqrt(2) roundoff).  Projector j is ``sum_a S[j, a] sigma_a / 2``.
#: An einsum makes no BLAS call: one at import raised the CLI's peak RSS by about 0.2 MB.
PROBE_FRAME = np.rint(np.einsum("ji,aik,jk->ja", np.conj([*_PROBE_KETS.values()]), PAULIS,
                                [*_PROBE_KETS.values()]).real)
PROBE_FRAME.setflags(write=False)


def _label(label: str) -> str:
    if label not in PROBE_LABELS:
        raise ValueError(f"unknown probe state {label!r}; expected one of {PROBE_LABELS}")
    return label


def probe_state(label: str) -> np.ndarray:
    """Single-qubit probe ket for a label in :data:`PROBE_LABELS`."""
    return _PROBE_KETS[_label(label)].copy()


def pair_index(j: str, k: str) -> int:
    """Flat index in 0..35 of the two-qubit probe pair (j, k)."""
    return 6 * PROBE_LABELS.index(_label(j)) + PROBE_LABELS.index(_label(k))


def pair_labels(n: int) -> tuple[str, str]:
    """Inverse of :func:`pair_index`."""
    if whole_number(n, 0, "pair index must be in 0..35") >= 36:
        raise ValueError(f"pair index must be in 0..35, got {n}")
    return PROBE_LABELS[n // 6], PROBE_LABELS[n % 6]


def pair_ket(j: str, k: str) -> np.ndarray:
    """Product two-qubit ket |psi_j>|psi_k>."""
    return np.kron(probe_state(j), probe_state(k))


def count_table(counts) -> np.ndarray:
    """Validated 36x36 coincidence table as floats, from an array or ``.counts``."""
    return _checked_counts(getattr(counts, "counts", counts), (36, 36), "count table")


def reference_values(references) -> np.ndarray:
    """Validated 36 reference counts as floats."""
    return _checked_counts(references, (36,), "reference counts")


#: Largest count accepted.  Integers up to 2**53 are exact in a double, and
#: counts near the float range overflow in the products of the ML iteration.
MAX_COUNT = 2.0**53

#: Value rules: (what a value must be, nonnegative, largest value).
COUNT_RULE = ("a finite nonnegative number", True, MAX_COUNT)
FINITE_RULE = ("a finite number", False, math.inf)


def value_faults(values, rule: tuple) -> np.ndarray:
    """The first fault of each entry of ``values`` under ``rule``, or ``""`` where it has none.

    The faults, in the order they are checked: ``non-finite``, ``negative``,
    ``too large``.
    """
    _, nonnegative, largest = rule
    values = np.asarray(values, dtype=float)
    faults = np.zeros(values.shape, dtype="<U10")
    faults[values > largest] = "too large"
    if nonnegative:
        faults[values < 0] = "negative"
    faults[~np.isfinite(values)] = "non-finite"
    return faults


def number_array(values, name: str, kinds: str = "iuf") -> np.ndarray:
    """``values`` as an array, unconverted; ValueError unless its dtype kind is one of ``kinds``.

    The default admits real numbers only: converting a complex array to float
    drops its imaginary part, and strings and booleans are not numbers.
    """
    values = np.asarray(values)
    if values.dtype.kind not in kinds:
        what = "numbers" if "c" in kinds else "real numbers"
        raise ValueError(f"{name} must be {what}, got dtype {values.dtype}")
    return values


def whole_number(value, low: int, message: str, high: float = math.inf) -> int:
    """``value`` as an int of at least ``low``, else ``ValueError`` with ``message``; a bool is no number.

    One above ``high`` is a ``ValueError`` whose message adds ``and at most {high}``.
    """
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < low:
        raise ValueError(f"{message}, got {value!r}")
    if number > high:
        raise ValueError(f"{message} and at most {high}, got {value!r}")
    return number


def real_number(value, message: str, valid=lambda x: True) -> float:
    """``value`` as a float if it is a finite real number with ``valid``, else ValueError with ``message``.

    A real number is a Python or numpy int, uint or float, the kinds :func:`number_array` admits;
    a bool, a string, None, a complex number, an int beyond float range and any array are not.
    """
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int beyond float range
        number = math.nan
    if not (math.isfinite(number) and valid(number)):
        raise ValueError(f"{message}, got {value!r}")
    return number


def _checked_counts(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    values = number_array(values, name).astype(float, copy=False)
    if values.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {values.shape}")
    faults = value_faults(values, COUNT_RULE)
    n_bad = int(np.count_nonzero(faults == "non-finite"))
    if n_bad:
        raise ValueError(f"{name} has {n_bad} non-finite counts")
    if np.any(faults == "negative"):
        raise ValueError(f"{name} has negative counts; counts must be nonnegative")
    n_big = int(np.count_nonzero(faults == "too large"))
    if n_big:
        raise ValueError(f"{name} has {n_big} counts above 2**53 (too large); counts must be at most 2**53")
    return values


def finite_matrix(chi, name: str = "16x16 matrix") -> np.ndarray:
    """``chi`` as a complex 16x16 array, else ValueError: numbers, shape, finite entries, finite trace, in that order.
    Every public door that takes a process matrix checks it here, and the kernels behind them check nothing."""
    chi = number_array(chi, name, "iufc").astype(complex, copy=False)
    if chi.shape != (16, 16):
        raise ValueError(f"expected a {name}, got shape {chi.shape}")
    n_bad = int(np.count_nonzero(~np.isfinite(chi)))
    if n_bad:
        raise ValueError(f"{name} has {n_bad} non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        trace = np.trace(chi).real
    if not np.isfinite(trace):
        raise ValueError(f"{name} is too large: its trace is not a finite number")
    return chi


#: ``P``, ``conj(P)``, ``P^H`` and ``P^T``, built once and read-only.  The
#: last two are transposed views, not contiguous copies: the bits of a BLAS
#: product depend on the operand layout, and the pinned dataset digests and
#: golden fits depend on those bits.
_P = np.array([np.outer(ket, ket.conj()).reshape(16)
               for ket in (pair_ket(*pair_labels(n)) for n in range(36))])
_P_CONJ = _P.conj()
_P.setflags(write=False)
_P_CONJ.setflags(write=False)
_P_H = _P_CONJ.T
_P_T = _P.T


#: ``|p| <= ZERO_CLAMP * max(Tr chi, 1)`` is roundoff of an exact zero.
ZERO_CLAMP = 1e-14


def map_buffers(lead: tuple) -> list:
    """Empty complex buffers for the maps of a stack with batch axes ``lead``: the realigned chi x (16x16),
    ``P x`` (36x16) and ``P x P^H`` (36x36).  The adjoint writes ``P^T w`` into the memory of ``P x`` and
    ``P^T w conj(P)`` into x's."""
    return [np.empty((*lead, *shape), complex) for shape in ((16, 16), (36, 16), (36, 36))]


def buffered_map(chi: np.ndarray, x: np.ndarray, px: np.ndarray, pxp: np.ndarray):
    """The forward map of ``chi`` in the buffers of :func:`map_buffers`: a call, its views made here once, that
    maps the values chi holds when it is called and returns p, the real part of ``P x P^H``."""
    x4 = x.reshape(*chi.shape[:-2], 4, 4, 4, 4)
    source, p = chi.reshape(x4.shape).swapaxes(-3, -2), pxp.real

    def forward():
        np.copyto(x4, source)
        np.matmul(np.matmul(_P, x, out=px), _P_H, out=pxp)
        return p
    return forward


def buffered_adjoint(weights: np.ndarray, x: np.ndarray, px: np.ndarray, r: np.ndarray):
    """The adjoint of ``weights`` into ``r`` in the first two buffers of :func:`map_buffers`: a call, its views
    made here once, that maps the values weights holds when it is called and returns r.  Complex weights
    with a zero imaginary part give the bits of real ones."""
    lead = weights.shape[:-2]
    ptw, m = px.reshape(*lead, 16, 36), x.reshape(*lead, 4, 4, 4, 4)  # m[i, j, a, b] is r[j, b, i, a]
    source, target = np.moveaxis(m, (-3, -1), (-4, -3)), r.reshape(m.shape)

    def adjoint():
        np.matmul(np.matmul(_P_T, weights, out=ptw), _P_CONJ, out=x)
        np.copyto(target, source)
        return r
    return adjoint


def measurement_map(chi: np.ndarray) -> np.ndarray:
    """Raw 36x36 table ``p[jk, lm] = Tr[Pi_jk,lm chi]``; no validation, no clamp.

    Leading axes of ``chi`` (shape ``(..., 16, 16)``) are batch axes; each
    slice gives exactly the table of that slice alone.  This is
    :func:`buffered_map` in buffers of its own.
    """
    chi = np.asarray(chi)
    return buffered_map(chi, *map_buffers(chi.shape[:-2]))()


def measurement_adjoint(weights: np.ndarray) -> np.ndarray:
    """16x16 operator ``sum_jk,lm weights[jk, lm] Pi_jk,lm`` for real weights.

    Leading axes of ``weights`` (shape ``(..., 36, 36)``) are batch axes.
    This is :func:`buffered_adjoint` in buffers of its own.
    """
    weights = np.asarray(weights)
    x, px, _ = map_buffers(weights.shape[:-2])
    return buffered_adjoint(weights, x, px, np.empty_like(x))()


def cz_choi() -> np.ndarray:
    """Rank-1, trace-4 Choi matrix of the ideal CZ gate, with exact entries 0 and +-1.

    ``(I (x) U)|Phi+> = sum_j |j> (x) U|j>`` is the flattened transpose of
    ``U``; for the diagonal U_CZ = diag(1, 1, 1, -1) (a pi phase shift iff
    both qubits are |1>) that is ``U_CZ`` itself.
    """
    ket = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex).reshape(16)
    return np.outer(ket, ket.conj())


def identity_choi() -> np.ndarray:
    """Choi matrix |Phi+><Phi+| of the identity channel (trace 4), Phi+ = sum_jk |jk>|jk>."""
    ket = np.eye(4, dtype=complex).reshape(16)
    return np.outer(ket, ket.conj())


def process_fidelity(chi: np.ndarray, chi_ref: np.ndarray) -> float:
    """Normalized overlap Tr[chi chi_ref] / (Tr[chi_ref] Tr[chi]) of two finite 16x16 matrices.

    Invariant under positive rescaling of either argument; equals 1 iff the
    two (PSD) process matrices are proportional and rank-1 aligned.  Each is
    checked by :func:`finite_matrix`, and a trace at or below 1e-14 is refused.
    """
    chi = finite_matrix(chi, "16x16 process matrix")
    chi_ref = finite_matrix(chi_ref, "16x16 reference process matrix")
    if min(np.trace(chi).real, np.trace(chi_ref).real) <= 1e-14:
        raise ValueError("process fidelity is undefined for zero-trace process matrices")
    return _overlap(chi, chi_ref)


def _overlap(chi: np.ndarray, chi_ref: np.ndarray) -> float:
    """:func:`process_fidelity` of two complex 16x16 arrays, each with a trace above 1e-14; checks nothing."""
    tr = np.trace(chi).real
    tr_ref = np.trace(chi_ref).real
    overlap = np.einsum("ij,ji->", chi, chi_ref).real
    return float(overlap / (tr * tr_ref))
