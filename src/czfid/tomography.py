"""Maximum-likelihood reconstruction of a two-qubit process matrix.

The data are the 36x36 measurement ``p = Tr[Pi chi]`` of :mod:`czfid.core`,
whose forward map and adjoint each iteration applies once.  Under
Poissonian counting statistics the maximizer of the likelihood satisfies
the extremal equation ``R chi = lambda chi`` with

    R = sum_jk,lm (C_jk,lm / p_jk,lm) Pi_jk,lm,   lambda = C_tot / Tr[chi],

and is found by repeated application of the symmetrized update
``chi <- R chi R / Tr[R chi R]``, which preserves positive semidefiniteness.
The overall scale of the data is unknown (losses, detection efficiency), so
the trace of chi is fixed to a conventional value during the iteration; all
downstream fidelities are scale-invariant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import count_table, cz_choi, measurement_adjoint, measurement_map, process_fidelity
from .exceptions import DegenerateDataError
from .simulate import outcome_probabilities

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MaxLikSettings:
    """Iteration controls for :func:`maxlik_reconstruct`.

    The stopping rule is ``|R chi - lambda chi|_1 / C_tot < stop_threshold``
    with the entrywise norm ``|A|_1 = sum_jk |A_jk|``.  ``psd_check_interval``
    triggers an eigenvalue audit of the running iterate every that many
    updates (0 disables it).
    """

    stop_threshold: float = 1e-5
    max_iterations: int = 100_000
    trace_target: float = 1.0
    psd_check_interval: int = 100
    track_history: bool = False

    def __post_init__(self):
        if not self.stop_threshold > 0:
            raise ValueError(f"stop_threshold must be positive, got {self.stop_threshold}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be nonnegative, got {self.max_iterations}")
        if not self.trace_target > 0:
            raise ValueError(f"trace_target must be positive, got {self.trace_target}")


@dataclass(frozen=True)
class ReconstructionResult:
    """Converged (or best-effort) iterate plus diagnostics."""

    chi: np.ndarray
    iterations: int
    final_residual: float
    log_likelihood: float
    converged: bool
    min_eigenvalue: float
    guard_activations: int = 0
    residual_history: list[float] | None = None
    log_likelihood_history: list[float] | None = None


def _weights(table: np.ndarray, p: np.ndarray, p_floor: float) -> tuple[np.ndarray, int]:
    """Ratios C/p with zero-count terms dropped and tiny p floored."""
    guarded = int(np.count_nonzero((table > 0) & (p < p_floor)))
    if guarded:
        log.debug("probability floor active for %d measured outcomes", guarded)
    safe_p = np.maximum(p, p_floor)
    return np.where(table > 0, table / safe_p, 0.0), guarded


def r_operator(chi: np.ndarray, counts) -> np.ndarray:
    """Likelihood-gradient operator R = sum (C / p) Pi for the given iterate."""
    chi = np.asarray(chi, dtype=complex)
    table = count_table(counts)
    trace = float(np.trace(chi).real)
    if trace <= 0:
        raise ValueError("process matrix must have positive trace")
    p = measurement_map(chi)
    weights, _ = _weights(table, p, 1e-12 * trace)
    return measurement_adjoint(weights)


def maxlik_reconstruct(
    counts,
    settings: MaxLikSettings | None = None,
    chi0: np.ndarray | None = None,
) -> ReconstructionResult:
    """Reconstruct the process matrix maximizing the Poissonian likelihood.

    ``counts`` may be integer or real valued (renormalized tables are fine);
    the log-likelihood ``sum C ln p - lambda Tr[chi]`` is monitored and never
    decreases along the iteration.  Starting point is the maximally mixed
    ``chi0 = I/16`` unless one is supplied.  If the iteration budget runs out
    the best iterate is returned with ``converged=False``.
    """
    settings = settings or MaxLikSettings()
    table = count_table(counts)
    c_tot = float(table.sum())
    if c_tot <= 0:
        raise DegenerateDataError("total coincidence count is zero; nothing to reconstruct")

    tau = settings.trace_target
    if chi0 is None:
        chi = np.eye(16, dtype=complex) / 16.0 * tau
    else:
        chi = np.asarray(chi0, dtype=complex).copy()
        chi *= tau / np.trace(chi).real
    lam = c_tot / tau
    p_floor = 1e-12 * tau
    measured = table > 0

    residuals: list[float] = []
    logliks: list[float] = []
    converged = False
    guard_total = 0
    min_eig = float(np.linalg.eigvalsh(chi)[0])
    iterations = 0
    residual = np.inf
    loglik = -np.inf

    while True:
        p = measurement_map(chi)
        weights, guarded = _weights(table, p, p_floor)
        guard_total += guarded
        r = measurement_adjoint(weights)
        residual = float(np.abs(r @ chi - lam * chi).sum()) / c_tot
        loglik = float(np.sum(table[measured] * np.log(np.maximum(p[measured], p_floor)))) - c_tot
        if settings.track_history:
            residuals.append(residual)
            logliks.append(loglik)
        if residual < settings.stop_threshold:
            converged = True
            break
        if iterations >= settings.max_iterations:
            log.warning(
                "maxlik stopped at %d iterations with residual %.3e (threshold %.3e)",
                iterations, residual, settings.stop_threshold,
            )
            break
        chi = r @ chi @ r
        chi = (chi + chi.conj().T) / 2.0
        chi *= tau / np.trace(chi).real
        iterations += 1
        if settings.psd_check_interval and iterations % settings.psd_check_interval == 0:
            eig = float(np.linalg.eigvalsh(chi)[0])
            min_eig = min(min_eig, eig)
            if eig < -1e-10 * tau:
                raise RuntimeError(f"iterate lost positivity (min eigenvalue {eig:.3e})")

    min_eig = min(min_eig, float(np.linalg.eigvalsh(chi)[0]))
    return ReconstructionResult(
        chi=chi,
        iterations=iterations,
        final_residual=residual,
        log_likelihood=loglik,
        converged=converged,
        min_eigenvalue=min_eig,
        guard_activations=guard_total,
        residual_history=residuals if settings.track_history else None,
        log_likelihood_history=logliks if settings.track_history else None,
    )


def bootstrap_fidelity_uncertainty(
    chi_hat: np.ndarray,
    c_tot: float,
    n_runs: int = 100,
    seed: int = 0,
    settings: MaxLikSettings | None = None,
    reference: np.ndarray | None = None,
) -> float:
    """Parametric-bootstrap standard deviation of the reconstructed fidelity.

    Each resample draws Poisson counts with means proportional to the outcome
    probabilities of ``chi_hat``, scaled so the expected total equals
    ``c_tot``, reconstructs a process matrix from them, and evaluates its
    fidelity to ``reference`` (ideal CZ by default).  Returns the sample
    standard deviation over ``n_runs`` resamples.
    """
    if n_runs < 2:
        raise ValueError(f"need at least 2 bootstrap runs, got {n_runs}")
    if not c_tot > 0:
        raise ValueError(f"c_tot must be positive, got {c_tot}")
    reference = cz_choi() if reference is None else reference
    p = outcome_probabilities(chi_hat)
    mu = c_tot * p / p.sum()

    streams = np.random.SeedSequence(seed).spawn(n_runs)
    fidelities = np.empty(n_runs)
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        resample = rng.poisson(mu)
        result = maxlik_reconstruct(resample, settings=settings)
        fidelities[i] = process_fidelity(result.chi, reference)
    return float(np.std(fidelities, ddof=1))
