"""Direct fidelity estimators and state-fidelity bounds for the CZ gate.

Two families of estimators operate on the same 36x36 coincidence table:

* A linear (Monte-Carlo style) estimator.  The ideal-gate process matrix is
  expanded in Pauli products, each Pauli factor is decomposed into projectors
  onto the six probe states, and the process fidelity becomes a ratio of two
  linear combinations of the measured coincidences,
  ``F_MC = (81/4) sum u_jk,lm C_jk,lm / sum C_jk,lm``.  The decomposition of
  the single-qubit identity is not unique (H/V, D/A or R/L projectors), so
  three distinct estimators exist; comparing them probes systematic effects.

* Average output-state fidelities over the two mutually unbiased product
  bases {DH, DV, AH, AV} and {HD, VD, HA, VA}.  Success-probability-weighted
  averages F_1, F_2 yield bounds valid for any (possibly trace-decreasing)
  operation: F_1 + F_2 - 1 <= F_chi <= min(F_1, F_2).  Plain averages give
  F_D, a lower bound only for trace-preserving operations, which can exceed
  the true fidelity when success probabilities vary between inputs.

All statistical uncertainties assume Poissonian counts and standard error
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    count_table,
    cz_choi,
    pair_index,
    pair_ket,
    pauli_coefficients,
    process_fidelity,
    reference_values,
)
from .exceptions import DegenerateDataError
from .model import HOFMANN_BASIS_INPUTS, HOFMANN_BASIS_OUTPUTS
from .simulate import renormalize_counts
from .tomography import (
    BootstrapResult,
    MaxLikSettings,
    ReconstructionResult,
    bootstrap_fidelity_uncertainty,
    maxlik_reconstruct,
)

#: Supported decompositions of the single-qubit identity into probe projectors.
EXPANSIONS = ("hv", "da", "rl")


#: Weights w[a, j] with sigma_a = sum_j w[a, j] |psi_j><psi_j| over the probes
#: H, V, D, A, R, L: the identity in each of :data:`EXPANSIONS`, then the
#: fixed decompositions sigma_1 = D - A, sigma_2 = R - L, sigma_3 = H - V.
_PROBE_WEIGHTS = np.array([
    [1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
    [0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, -1.0],
    [1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
])


@lru_cache(maxsize=len(EXPANSIONS))
def u_coefficients(expansion: str = "hv") -> np.ndarray:
    """Linear-estimator coefficients u[jk, lm], shape (36, 36).

    Built at runtime by contracting the Pauli coefficients of the ideal CZ
    process matrix with the projector decomposition of each Pauli factor.
    Preparation slots use the transposed projectors, which swaps the roles of
    the circular states R and L.  For every Hermitian chi the table satisfies
    ``sum u_jk,lm p_jk,lm(chi) = Tr[chi chi_CZ]``.
    """
    if expansion not in EXPANSIONS:
        raise ValueError(f"expansion must be one of {EXPANSIONS}, got {expansion!r}")
    s = pauli_coefficients(cz_choi())
    w_out = _PROBE_WEIGHTS[[EXPANSIONS.index(expansion), -3, -2, -1]]
    w_in = w_out[:, [0, 1, 2, 3, 5, 4]]  # projector transpose: R <-> L
    u = np.einsum("abcd,aj,bk,cl,dm->jklm", s, w_in, w_in, w_out, w_out, optimize=True)
    u = u.reshape(36, 36)
    u.setflags(write=False)
    return u


def _linear_estimate(table: np.ndarray, expansion: str, what: str) -> tuple[np.ndarray, float, float]:
    """Kernel shared by both linear estimators: ``(81/4) u``, F_MC and sum C."""
    c_tot = table.sum()
    if c_tot <= 0:
        raise DegenerateDataError(f"total {what} is zero")
    coef = (81.0 / 4.0) * u_coefficients(expansion)
    return coef, float((coef * table).sum() / c_tot), c_tot


def monte_carlo_fidelity(counts, expansion: str = "hv") -> tuple[float, float]:
    """Linear fidelity estimate and its Poissonian standard error.

    ``F_MC = (81/4) sum u C / sum C`` and
    ``(dF_MC)^2 = (1/C_tot) sum (C/C_tot) ((81/4) u - F_MC)^2``.
    """
    table = count_table(counts)
    coef, f_mc, c_tot = _linear_estimate(table, expansion, "coincidence count")
    var = float(((table / c_tot) * (coef - f_mc) ** 2).sum() / c_tot)
    return f_mc, np.sqrt(var)


def monte_carlo_fidelity_renormalized(
    counts, references, expansion: str = "hv"
) -> tuple[float, float]:
    """Linear fidelity estimate from drift-renormalized coincidences C/D.

    The error budget carries two Poissonian terms: fluctuations of the
    coincidences themselves and fluctuations of the reference counts used to
    renormalize each input block.
    """
    refs = reference_values(references)
    ct = renormalize_counts(counts, refs)
    coef, f_mc, ct_tot = _linear_estimate(ct, expansion, "renormalized coincidence count")
    dev = coef - f_mc
    var_c = float(((ct / refs[:, None]) * dev**2).sum())
    block = (ct * dev).sum(axis=1)
    var_d = float((block**2 / refs).sum())
    return f_mc, np.sqrt((var_c + var_d) / ct_tot**2)


@dataclass(frozen=True)
class HofmannResult:
    """State-fidelity data for both probe bases and the derived bounds.

    Arrays are indexed [basis, input]; ``counts[k, j, j']`` is the coincidence
    for input j of basis k projected onto the ideal output of input j', so the
    diagonal holds the 'good' coincidences.
    """

    counts: np.ndarray
    row_sums: np.ndarray
    state_fidelities: np.ndarray
    rel_success: np.ndarray
    weighted_means: np.ndarray
    plain_means: np.ndarray
    f_h: float
    sigma_f_h: float
    f_d: float
    sigma_f_d: float

    @property
    def f_1(self) -> float:
        return float(self.weighted_means[0])

    @property
    def f_2(self) -> float:
        return float(self.weighted_means[1])

    @property
    def min_f12(self) -> float:
        return float(self.weighted_means.min())


def hofmann_bounds(counts) -> HofmannResult:
    """Evaluate the state-fidelity bounds from a coincidence table.

    Weighted bound: ``F_H = F_1 + F_2 - 1`` with
    ``F_k = sum_j C^k_jj / sum_j S^k_j``; may legitimately be negative.
    Plain-average bound: ``F_D = Fbar_1 + Fbar_2 - 1`` with
    ``Fbar_k = (1/4) sum_j f_j,k``.  Uncertainties follow binomial error
    propagation on each row.
    """
    table = count_table(counts)
    blocks = np.empty((2, 4, 4))  # the two 4x4 state-fidelity blocks of the table
    for k in range(2):
        rows = [pair_index(p[0], p[1]) for p in HOFMANN_BASIS_INPUTS[k]]
        cols = [pair_index(p[0], p[1]) for p in HOFMANN_BASIS_OUTPUTS[k]]
        blocks[k] = table[np.ix_(rows, cols)]
    row_sums = blocks.sum(axis=2)
    for k in range(2):
        for j in range(4):
            if row_sums[k, j] <= 0:
                probe = HOFMANN_BASIS_INPUTS[k][j]
                raise DegenerateDataError(
                    f"row sum for probe |{probe}> (basis {k + 1}) is zero"
                )
    good = np.array([[blocks[k, j, j] for j in range(4)] for k in range(2)])
    f = good / row_sums
    rel_p = row_sums / row_sums.sum(axis=1, keepdims=True)
    weighted = good.sum(axis=1) / row_sums.sum(axis=1)
    plain = f.mean(axis=1)
    f_h = float(weighted.sum() - 1.0)
    f_d = float(plain.sum() - 1.0)
    var_h = float((weighted * (1.0 - weighted) / row_sums.sum(axis=1)).sum())
    var_d = float((f * (1.0 - f) / row_sums).sum() / 16.0)
    return HofmannResult(
        counts=blocks,
        row_sums=row_sums,
        state_fidelities=f,
        rel_success=rel_p,
        weighted_means=weighted,
        plain_means=plain,
        f_h=f_h,
        sigma_f_h=np.sqrt(var_h),
        f_d=f_d,
        sigma_f_d=np.sqrt(var_d),
    )


def bound_gap_decomposition(data: HofmannResult) -> float:
    """Correlation term splitting the weighted and plain fidelity averages.

    Returns ``sum_k sum_j P_j,k (f_j,k - Fbar_k)``, which satisfies
    ``F_1 + F_2 = Fbar_1 + Fbar_2 + term`` exactly; it vanishes when all
    success probabilities are equal and otherwise measures the correlation
    between success probability and state fidelity across inputs.
    """
    delta_f = data.state_fidelities - data.plain_means[:, None]
    return float((data.rel_success * delta_f).sum())


def q_operator() -> np.ndarray:
    """Operator certifying the weighted lower bound, (1/4) chi_CZ - Q1 - Q2 + I.

    ``Q_k = sum_j omega_j,k^T (x) omega'_j,k`` pairs each input projector of
    basis k with its ideal output projector from :data:`HOFMANN_BASIS_OUTPUTS`,
    the table :func:`hofmann_bounds` reads, and encodes the weighted average
    state fidelity of basis k as Tr[Q_k chi]/Tr[chi].  Positive
    semidefiniteness of the total makes F_1 + F_2 - 1 a valid lower bound for
    trace-decreasing operations as well.
    """
    total = cz_choi() / 4.0 + np.eye(16, dtype=complex)
    for inputs, outputs in zip(HOFMANN_BASIS_INPUTS, HOFMANN_BASIS_OUTPUTS):
        for probe_in, probe_out in zip(inputs, outputs):
            ket_in, ket_out = pair_ket(*probe_in), pair_ket(*probe_out)
            total -= np.kron(np.outer(ket_in, ket_in.conj()).T, np.outer(ket_out, ket_out.conj()))
    return total


def _value_sigma(estimates: dict[str, tuple[float, float]] | None) -> dict | None:
    if estimates is None:
        return None
    return {label: {"value": v, "sigma": s} for label, (v, s) in estimates.items()}


@dataclass(frozen=True)
class FidelityReport:
    """All estimators evaluated on one dataset, with uncertainties.

    ``f_mc`` and ``f_mc_renormalized`` map expansion labels to (value, sigma)
    pairs.  ``bootstrap`` (and with it ``f_chi_sigma``) is present only when
    a bootstrap was run; ``reconstruction`` is the ML fit ``f_chi`` comes
    from.  When the state-fidelity extraction hits an empty probe row,
    ``hofmann`` is None and ``hofmann_invalid`` names the offending probe
    instead of imputing.
    """

    f_chi: float
    bootstrap: BootstrapResult | None
    f_mc: dict[str, tuple[float, float]]
    f_mc_renormalized: dict[str, tuple[float, float]] | None
    hofmann: HofmannResult | None
    reconstruction: ReconstructionResult
    provenance: dict
    hofmann_invalid: str | None = None

    @property
    def f_chi_sigma(self) -> float | None:
        return None if self.bootstrap is None else self.bootstrap.sigma

    def as_dict(self) -> dict:
        """JSON-ready representation with full-precision floats."""
        hof = self.hofmann
        if hof is None:
            hofmann_payload: dict = {"invalid": self.hofmann_invalid}
        else:
            hofmann_payload = {
                "f_1": hof.f_1,
                "f_2": hof.f_2,
                "min_f12": hof.min_f12,
                "f_h": hof.f_h,
                "sigma_f_h": hof.sigma_f_h,
                "f_d": hof.f_d,
                "sigma_f_d": hof.sigma_f_d,
                "plain_means": hof.plain_means.tolist(),
                "state_fidelities": hof.state_fidelities.tolist(),
                "rel_success": hof.rel_success.tolist(),
                "row_sums": hof.row_sums.tolist(),
                "gap_term": bound_gap_decomposition(hof),
            }
        fit, boot = self.reconstruction, self.bootstrap
        return {
            "f_chi": {
                "value": self.f_chi, "sigma": self.f_chi_sigma,
                "iterations": fit.iterations, "residual": fit.final_residual,
                "converged": fit.converged, "log_likelihood": fit.log_likelihood,
                "min_eigenvalue": fit.min_eigenvalue, "guard_activations": fit.guard_activations,
                "loglik_gap_bound": fit.gap_bound,
                "bootstrap_nonconverged": None if boot is None else boot.nonconverged,
                "bootstrap_max_gap_bound": None if boot is None else boot.max_gap_bound,
            },
            "f_mc": _value_sigma(self.f_mc),
            "f_mc_renormalized": _value_sigma(self.f_mc_renormalized),
            "hofmann": hofmann_payload,
            "provenance": self.provenance,
        }


def estimate(
    counts, references=None, *, expansions=EXPANSIONS, bootstrap: int = 0, seed: int = 0,
    settings: MaxLikSettings | None = None,
) -> FidelityReport:
    """Evaluate every estimator on one coincidence table.

    Runs the ML reconstruction (with a ``bootstrap``-resample parametric
    bootstrap of its fidelity when ``bootstrap`` > 0, seeded by the nonnegative ``seed``),
    ``F_MC`` for each of ``expansions``, the drift-renormalized ``F_MC`` when
    ``references`` are given, and the state-fidelity bounds.  An empty probe
    row makes the bounds unavailable (``hofmann=None``, ``hofmann_invalid``
    says why) without failing the other estimators.
    """
    if bootstrap < 0:
        raise ValueError(f"bootstrap must be a nonnegative number of resamples, got {bootstrap}")
    if bootstrap > 0 and seed < 0:
        raise ValueError(f"bootstrap seed must be a nonnegative integer, got {seed}")
    table = count_table(counts)
    fit = maxlik_reconstruct(table, settings=settings)
    boot = None
    if bootstrap > 0:
        boot = bootstrap_fidelity_uncertainty(
            fit.chi, float(table.sum()), n_runs=bootstrap, seed=seed, settings=settings
        )
    f_mc = {label: monte_carlo_fidelity(table, label) for label in expansions}
    f_mc_renormalized = None
    if references is not None:
        f_mc_renormalized = {
            label: monte_carlo_fidelity_renormalized(table, references, label)
            for label in f_mc
        }
    hofmann, hofmann_invalid = None, None
    try:
        hofmann = hofmann_bounds(table)
    except DegenerateDataError as exc:
        hofmann_invalid = str(exc)
    provenance = {"expansions": list(f_mc), "bootstrap_runs": bootstrap,
                  "bootstrap_seed": seed if bootstrap > 0 else None}
    return FidelityReport(
        process_fidelity(fit.chi, cz_choi()), boot, f_mc, f_mc_renormalized,
        hofmann, fit, provenance, hofmann_invalid,
    )
