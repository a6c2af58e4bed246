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

Each of these numbers is a ratio F = (n.C) / (d.C) of two linear functionals
of the table, with the Poisson error sigma^2 = sum C (n - F d)^2 / (d.C)^2;
for F_k this is the binomial F_k (1 - F_k) / S_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import (
    PAULIS, PROBE_FRAME, PROBE_LABELS, _overlap, count_table, cz_choi, pair_index, reference_values, whole_number,
)
from .exceptions import DegenerateDataError
from .model import HOFMANN_BASIS_INPUTS, HOFMANN_BASIS_OUTPUTS
from .simulate import _reference_fault, _renormalized
from .tomography import (
    BootstrapResult, MaxLikSettings, ReconstructionResult, _resampling, bootstrap_fidelity_uncertainty,
    maxlik_reconstruct,
)

#: Supported decompositions of the single-qubit identity into probe projectors.
EXPANSIONS = ("hv", "da", "rl")


def u_coefficients(expansion: str = "hv") -> np.ndarray:
    """Linear-estimator coefficients u[jk, lm], shape (36, 36), a new array each call.

    The measurement map read through the probes' dual operators ``D_j = sum_a w[a, j] sigma_a / 2``, where
    w is the expansion's two-probe indicator over the sigma_1..sigma_3 columns of
    :data:`czfid.core.PROBE_FRAME`, so ``sigma_a = sum_j w[a, j] |psi_j><psi_j|``.  Row jk of Q is the
    flattened ``D_j (x) D_k`` and ``u = Re(Q . realign(chi_CZ) . Q^H)``, as ``p = Re(P . realign(chi) . P^H)``
    in :mod:`czfid.core`, whose realignment transposes the preparation slots.  For every Hermitian chi,
    ``sum u_jk,lm p_jk,lm(chi) = Tr[chi chi_CZ]``.
    """
    if not isinstance(expansion, str) or expansion not in EXPANSIONS:
        raise ValueError(f"expansion must be one of {EXPANSIONS}, got {expansion!r}")
    w = np.vstack([[probe.lower() in expansion for probe in PROBE_LABELS], PROBE_FRAME[:, 1:].T])
    duals = np.einsum("aj,axy->jxy", w, PAULIS) / 2.0
    q = np.einsum("jab,kcd->jkacbd", duals, duals).reshape(36, 16)  # row jk: D_j (x) D_k, flattened
    x = cz_choi().reshape(4, 4, 4, 4).swapaxes(1, 2).reshape(16, 16)
    return (q @ x @ q.conj().T).real  # tests/golden.py U_DIGESTS pins these bits


def _ratios(x, num, den, refs=None) -> tuple[np.ndarray, np.ndarray]:
    """The K ratios ``F = (n.x) / (d.x)`` of ``(K, 36, 36)`` stacks ``num`` and ``den``, and their sigma.

    ``x`` is the count table C, or C/D given the 36 input-block references D,
    whose Poisson error adds ``sum_blocks (sum_row x (n - F d))^2 / D`` to sigma^2.
    A block whose D is too small for a finite variance is refused by name.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # only a reference too small to divide by overflows
        total = (den * x).sum(axis=(1, 2))
        f = (num * x).sum(axis=(1, 2)) / total
        dev = num - f[:, None, None] * den
        scaled = x if refs is None else x / refs[:, None]
        var = (scaled * dev**2).sum(axis=(1, 2))
        if refs is not None:
            block_terms = (x * dev).sum(axis=2) ** 2 / refs
            var += block_terms.sum(axis=1)
            if not np.isfinite(var).all():  # name the first block whose term is not finite, else the largest
                terms = (scaled * dev**2).sum(axis=2) + block_terms
                worst = np.where(np.isfinite(terms), terms, np.inf).max(axis=0)
                raise _reference_fault(refs, int(worst.argmax()), "variance")
    return f, np.sqrt(var) / total


def _monte_carlo(table, refs, u) -> dict[str, tuple[float, float | None]]:
    """``F_MC`` and its sigma per label of ``u``, of a checked table C, or of C/D given checked references D.

    A sigma of exactly 0 (every counted cell has the same ``u``) is no error bar: it is None.
    """
    if not u:
        return {}
    if refs is None:
        x, total = table, "total coincidence count"
    else:
        x, total = _renormalized(table, refs), "total renormalized coincidence count"
    if not x.any():
        raise DegenerateDataError(f"{total} is zero")
    f_mc, sigma = _ratios(x, (81.0 / 4.0) * np.array(list(u.values())), np.ones((1, 36, 36)), refs)
    return {label: (float(f), float(s) or None) for label, f, s in zip(u, f_mc, sigma)}


def monte_carlo_fidelity(counts, expansion: str = "hv") -> tuple[float, float | None]:
    """Linear fidelity estimate ``F_MC = (81/4) sum u C / sum C`` and its Poissonian standard error, or None if 0."""
    u = {expansion: u_coefficients(expansion)}
    return _monte_carlo(count_table(counts), None, u)[expansion]


def monte_carlo_fidelity_renormalized(counts, references, expansion: str = "hv") -> tuple[float, float | None]:
    """Linear fidelity estimate from drift-renormalized counts C/D, with the Poisson error of C and D, or None if 0."""
    refs, u = reference_values(references), {expansion: u_coefficients(expansion)}
    return _monte_carlo(count_table(counts), refs, u)[expansion]


@dataclass(frozen=True)
class HofmannResult:
    """State-fidelity data for both probe bases and the derived bounds.

    Arrays are indexed [basis, input]; ``row_sums[k, j]`` sums the
    coincidences of input j of basis k over the ideal outputs of the four
    inputs of that basis.  A sigma the Poisson rule gives as exactly 0 (every
    ratio it is built from is 0 or 1) is no error bar: it is None.
    """

    row_sums: np.ndarray
    state_fidelities: np.ndarray
    rel_success: np.ndarray
    weighted_means: np.ndarray
    plain_means: np.ndarray
    f_h: float
    sigma_f_h: float | None
    f_d: float
    sigma_f_d: float | None

    @property
    def f_1(self) -> float:
        return float(self.weighted_means[0])

    @property
    def f_2(self) -> float:
        return float(self.weighted_means[1])

    @property
    def min_f12(self) -> float:
        return float(self.weighted_means.min())


#: Table rows (inputs) and columns (ideal outputs) of the two 4x4 blocks, [basis, input].
_HOFMANN_ROWS, _HOFMANN_COLS = (np.array([[pair_index(*probe) for probe in basis] for basis in probes])
                                for probes in (HOFMANN_BASIS_INPUTS, HOFMANN_BASIS_OUTPUTS))


#: Numerators and denominators of F_1, F_2, then the f_jk in [basis, input] order: F_k is the 4
#: good cells of basis k over its 4x4 block, f_jk one good cell over its block row.
_HOFMANN_NUM, _HOFMANN_DEN = np.zeros((2, 10, 36, 36), dtype=bool)
_SLOT = np.array([np.indices((2, 4))[0], np.arange(2, 10).reshape(2, 4)])  # [F_k or f_jk, basis, input]
_HOFMANN_NUM[_SLOT, _HOFMANN_ROWS, _HOFMANN_COLS] = True
_HOFMANN_DEN[_SLOT[..., None], _HOFMANN_ROWS[..., None], _HOFMANN_COLS[:, None, :]] = True


def hofmann_bounds(counts) -> HofmannResult:
    """Evaluate the state-fidelity bounds from a coincidence table.

    Weighted bound: ``F_H = F_1 + F_2 - 1`` with
    ``F_k = sum_j C^k_jj / sum_j S^k_j``; may legitimately be negative.
    Plain-average bound: ``F_D = Fbar_1 + Fbar_2 - 1`` with
    ``Fbar_k = (1/4) sum_j f_j,k``.  No two blocks or rows share a cell, so
    ``sigma_H^2 = sigma_1^2 + sigma_2^2`` and ``sigma_D^2 = sum sigma_jk^2 / 16``.
    """
    return _hofmann(count_table(counts))


def _hofmann(table: np.ndarray) -> HofmannResult:
    """:func:`hofmann_bounds` of a checked table."""
    blocks = table[_HOFMANN_ROWS[:, :, None], _HOFMANN_COLS[:, None, :]]
    row_sums = blocks.sum(axis=2)
    empty = np.argwhere(row_sums <= 0)
    if empty.size:
        k, j = empty[0]
        probe = HOFMANN_BASIS_INPUTS[k][j]
        raise DegenerateDataError(f"row sum for probe |{probe}> (basis {k + 1}) is zero")
    f, sigma = _ratios(table, _HOFMANN_NUM, _HOFMANN_DEN)
    weighted, state = f[:2], f[2:].reshape(2, 4)
    plain = state.mean(axis=1)
    sigma_h = float(np.sqrt((sigma[:2] ** 2).sum()))
    sigma_d = float(np.sqrt((sigma[2:] ** 2).sum() / 16.0))
    return HofmannResult(
        row_sums=row_sums, rel_success=row_sums / row_sums.sum(axis=1, keepdims=True),
        state_fidelities=state, weighted_means=weighted, plain_means=plain,
        f_h=float(weighted.sum() - 1.0), sigma_f_h=sigma_h or None,
        f_d=float(plain.sum() - 1.0), sigma_f_d=sigma_d or None,
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


def _value_sigma(estimates: dict[str, tuple[float, float | None]] | None) -> dict | None:
    if estimates is None:
        return None
    return {label: {"value": v, "sigma": s} for label, (v, s) in estimates.items()}


@dataclass(frozen=True)
class FidelityReport:
    """All estimators evaluated on one dataset, with uncertainties.

    ``f_mc`` and ``f_mc_renormalized`` map expansion labels to (value, sigma)
    pairs, with sigma None where the Poisson rule gives exactly 0.
    ``bootstrap`` is present only when a bootstrap was run; ``f_chi_sigma`` is
    None without one, and also when every resample fit to the same fidelity.
    ``reconstruction`` is the ML fit ``f_chi`` comes from.  When the
    state-fidelity extraction hits an empty probe row, ``hofmann`` is None and
    ``hofmann_invalid`` names the offending probe instead of imputing.
    """

    f_chi: float
    bootstrap: BootstrapResult | None
    f_mc: dict[str, tuple[float, float | None]]
    f_mc_renormalized: dict[str, tuple[float, float | None]] | None
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
    ``references`` are given, and the state-fidelity bounds.  ``bootstrap`` is
    0 or from 2 to :data:`czfid.tomography.MAX_BOOTSTRAP_RUNS`.  An empty probe
    row makes the bounds unavailable (``hofmann=None``, ``hofmann_invalid``
    says why) without failing the other estimators.  Inputs are checked before the first fit, in this
    order: an ``expansions`` string, ``bootstrap``, ``seed`` (with a bootstrap), ``counts``, the
    ``expansions`` labels, ``references``.
    """
    if isinstance(expansions, str):
        raise ValueError(f"expansions must be a sequence of labels, not a string, got {expansions!r}")
    bootstrap = whole_number(bootstrap, 0, "bootstrap must be a nonnegative number of resamples")
    if bootstrap > 0:
        bootstrap, seed = _resampling(bootstrap, seed)
    table = count_table(counts)
    u = {label: u_coefficients(label) for label in expansions}
    refs = None if references is None else reference_values(references)
    # The two fits go through their public doors, which check the table and chi_hat again: the
    # benchmark counts ML iterations and bootstrap time by these two names.
    fit = maxlik_reconstruct(table, settings=settings)
    boot = None if bootstrap == 0 else bootstrap_fidelity_uncertainty(
        fit.chi, float(table.sum()), n_runs=bootstrap, seed=seed, settings=settings)
    f_mc = _monte_carlo(table, None, u)
    f_mc_renormalized = None if refs is None else _monte_carlo(table, refs, u)
    hofmann, hofmann_invalid = None, None
    try:
        hofmann = _hofmann(table)
    except DegenerateDataError as exc:
        hofmann_invalid = str(exc)
    provenance = {"expansions": list(u), "bootstrap_runs": bootstrap,
                  "bootstrap_seed": seed if bootstrap > 0 else None,
                  "czfid_version": __version__, "numpy_version": np.__version__}
    return FidelityReport(
        _overlap(fit.chi, cz_choi()), boot, f_mc, f_mc_renormalized,
        hofmann, fit, provenance, hofmann_invalid,
    )
