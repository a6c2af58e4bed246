"""Maximum-likelihood reconstruction of a two-qubit process matrix.

The data are the 36x36 measurement ``p = Tr[Pi chi]`` of :mod:`czfid.core`,
whose forward map and adjoint each iteration applies once.  Under
Poissonian counting statistics the maximizer of the likelihood satisfies
the extremal equation ``R chi = lambda chi`` with

    R = sum_jk,lm (C_jk,lm / p_jk,lm) Pi_jk,lm,   lambda = C_tot / Tr[chi],

and is found by repeated application of the symmetrized update
``chi <- R chi R / Tr[R chi R]``, which preserves positive semidefiniteness.
Each iteration forms the product ``R chi`` once and uses it twice: in the
residual ``R chi - lambda chi`` and in the update ``(R chi) R``.
The overall scale of the data is unknown (losses, detection efficiency), so
the trace of chi is fixed to 1 during the iteration; all downstream
fidelities are scale-invariant.

There is one iteration loop, over a ``(B, 16, 16)`` stack of iterates:
:func:`maxlik_reconstruct_batch` fits B count tables at once, each with its
own stopping rule and diagnostics and with exactly the result it gets alone,
and :func:`maxlik_reconstruct` is the same loop with B = 1.
:func:`bootstrap_fidelity_uncertainty` fits its resamples in blocks through
it and returns a :class:`BootstrapResult` (sigma, the per-resample
fidelities and the number of resample fits that did not converge).
The loop writes every stack-sized array into one workspace,
:class:`_Workspace`, made once per fit stack and once per bootstrap for all
its blocks: an iteration allocates nothing of the stack's size, so the heap
does not map, trim and re-fault its temporaries on every iteration.  There
is one iterate buffer and no swap: the next iterate overwrites chi once the
results and the residual have been taken from it.

A fit reports through its :class:`ReconstructionResult` alone (``converged``,
``iterations``, ``final_residual``, ``guard_activations``, ``gap_bound``);
nothing here writes to stderr or a log.  The positivity audit runs every
:data:`PSD_CHECK_INTERVAL` updates; no setting turns it off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    _overlap, count_table, cz_choi, finite_matrix, measurement_adjoint, measurement_map, real_number, whole_number,
)
from .exceptions import DegenerateDataError
from .simulate import outcome_probabilities


@dataclass(frozen=True)
class MaxLikSettings:
    """Iteration controls for :func:`maxlik_reconstruct`.

    The stopping rule is ``|R chi - lambda chi|_1 / C_tot < stop_threshold``
    with the entrywise norm ``|A|_1 = sum_jk |A_jk|`` and a finite positive
    ``stop_threshold``.  These are the CLI's two ML flags.
    """

    stop_threshold: float = 1e-5
    max_iterations: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "stop_threshold", real_number(
            self.stop_threshold, "stop_threshold must be positive and finite", lambda x: x > 0))
        max_iterations = whole_number(self.max_iterations, 0, "max_iterations must be a nonnegative integer")
        object.__setattr__(self, "max_iterations", max_iterations)


@dataclass(frozen=True)
class ReconstructionResult:
    """Converged (or best-effort) iterate plus diagnostics.

    ``gap_bound`` bounds ``L* - log_likelihood`` over ``Tr chi = 1`` by the
    Frank-Wolfe gap ``lambda_max(R) - Tr[R chi]`` of the concave L, whose
    gradient is R (Glancy, Knill & Girard, NJP 14, 095017 (2012)); it is None
    when a floored ``p`` built the final R, which breaks ``Tr[R chi] = C_tot``.
    """

    chi: np.ndarray
    iterations: int
    final_residual: float
    log_likelihood: float
    converged: bool
    min_eigenvalue: float
    guard_activations: int = 0
    gap_bound: float | None = None


#: Floor on each outcome probability, per unit Tr chi, in C/p and ln p; a measured p below it is a guard activation.
P_FLOOR = 1e-12


def _weights(
    table: np.ndarray, p: np.ndarray, p_floor: float, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Ratios C/p with tiny p floored (zero counts give zero weight), into ``out`` if given.

    Also returns how many measured outcomes hit the floor, per table of a
    ``(..., 36, 36)`` stack.
    """
    if p.min() >= p_floor:
        return np.divide(table, p, out=out), np.zeros(p.shape[:-2], dtype=int)
    guarded = np.count_nonzero((p < p_floor) & (table > 0), axis=(-2, -1))
    return np.divide(table, np.maximum(p, p_floor), out=out), guarded


def r_operator(chi: np.ndarray, counts) -> np.ndarray:
    """Likelihood-gradient operator R = sum (C / p) Pi for a finite 16x16 iterate of positive trace."""
    chi = finite_matrix(chi, "16x16 process matrix")
    table = count_table(counts)
    trace = float(np.trace(chi).real)
    if trace <= 0:
        raise ValueError("process matrix must have positive trace")
    p = measurement_map(chi)
    weights, _ = _weights(table, p, P_FLOOR * trace)
    return measurement_adjoint(weights)


def maxlik_reconstruct(counts, settings: MaxLikSettings | None = None) -> ReconstructionResult:
    """Reconstruct the process matrix maximizing the Poissonian likelihood.

    ``counts`` may be integer or real valued (renormalized tables are fine);
    the log-likelihood ``sum C ln p - lambda Tr[chi]`` never decreases along
    the iteration, which starts from the maximally mixed ``I/16`` and keeps
    ``Tr chi = 1``.  If the iteration budget runs out the best
    iterate is returned with ``converged=False``.  This is
    :func:`maxlik_reconstruct_batch` on a stack of one table.
    """
    return _rchir(count_table(counts)[None], settings or MaxLikSettings())[0]


def maxlik_reconstruct_batch(
    tables, settings: MaxLikSettings | None = None
) -> list[ReconstructionResult]:
    """Reconstruct one process matrix per count table, all in one iteration.

    ``tables`` is a sequence (or ``(B, 36, 36)`` array) of count tables.
    Each table gets exactly the result :func:`maxlik_reconstruct` gives it
    alone: its own stopping rule, iteration budget, positivity audit and
    diagnostics.  The iterates are advanced together as a ``(B, 16, 16)``
    stack, which amortizes the per-call overhead of the small matmuls.
    """
    tables = [count_table(table) for table in tables]
    if not tables:
        raise ValueError("need at least one count table to fit")
    return _rchir(np.stack(tables), settings or MaxLikSettings())


#: Updates between two eigenvalue audits of the running iterates.
PSD_CHECK_INTERVAL = 100

#: Smallest table total a fit accepts: R chi R squares the table's scale, which
#: underflows below about 1e-152.  Real totals are >= 1 (nonzero C/D >= 2**-53).
MIN_FIT_TOTAL = 1e-100


class _Workspace(NamedTuple):
    """Every stack-sized array an R chi R iteration writes, one row per replicate.

    Made once per fit stack (once per bootstrap) by :meth:`sized`, so the loop
    allocates nothing of the stack's size; :meth:`front` cuts every buffer to
    the replicates still running, which compaction moves to the front.
    """

    x: np.ndarray  # the realigned iterate, then P^T w conj(P) once p is taken
    px: np.ndarray  # P x
    pxp: np.ndarray  # P x P^H, whose real part is p
    # C/p over a zero imaginary part: the operand the implicit cast of real weights gives the adjoint's GEMM
    weights: np.ndarray
    ptw: np.ndarray  # P^T w, in the memory of px
    r: np.ndarray
    rc: np.ndarray  # R chi
    chi: np.ndarray  # the iterate, which the next one overwrites
    diff: np.ndarray  # R chi - lambda chi, then conj(chi), in the memory of x
    abs: np.ndarray  # |R chi - lambda chi|

    @classmethod
    def sized(cls, size: int) -> _Workspace:
        def stack(rows: int = 16, cols: int = 16, dtype=complex) -> np.ndarray:
            return np.zeros((size, rows, cols), dtype)

        x, px = stack(), stack(36, 16)  # each shared by two uses that never overlap in an iteration
        return cls(x=x, px=px, pxp=stack(36, 36), weights=stack(36, 36), ptw=px.reshape(size, 16, 36),
                   r=stack(), rc=stack(), chi=stack(), diff=x, abs=stack(dtype=float))

    def front(self, k: int) -> _Workspace:
        return _Workspace(*(buffer[:k] for buffer in self))


def _rchir(tables: np.ndarray, settings: MaxLikSettings, work: _Workspace | None = None) -> list[ReconstructionResult]:
    """The R chi R iteration over a validated ``(B, 36, 36)`` stack.

    Iterates of replicates still running stay at the front of the buffers of
    ``work`` (a new workspace of size B if None); they are compacted only on
    an iteration where some replicate stops, so a batch of one pays no
    indexing cost.  ``tables`` is never written.  The log-likelihood is
    evaluated once, from the final ``p``.  Every :data:`PSD_CHECK_INTERVAL`
    updates a lost eigenvalue raises ``RuntimeError``; the smallest seen is
    ``min_eigenvalue``.
    """
    n_tables = len(tables)
    c_tot = tables.reshape(n_tables, -1).sum(axis=1)
    empty = np.flatnonzero(c_tot < MIN_FIT_TOTAL)
    if empty.size:
        where = "" if n_tables == 1 else f" in table {int(empty[0])}"
        raise DegenerateDataError(f"total coincidence count is zero or below {MIN_FIT_TOTAL:g}{where}, "
                                  f"got {float(c_tot[empty[0]])!r}")

    start = np.eye(16, dtype=complex) / 16.0
    work = (work or _Workspace.sized(n_tables)).front(n_tables)
    chi = work.chi
    chi[...] = start
    # Per running replicate, compacted together with chi.
    active = np.arange(n_tables)
    guard_total = np.zeros(n_tables, dtype=int)
    min_eig = np.full(n_tables, float(np.linalg.eigvalsh(start)[0]))
    results: list[ReconstructionResult | None] = [None] * n_tables
    iterations = 0

    while True:
        p = measurement_map(chi, out=(work.x, work.px, work.pxp))
        _, guarded = _weights(tables, p, P_FLOOR, out=work.weights.real)
        guard_total += guarded
        r = measurement_adjoint(work.weights, out=(work.ptw, work.x, work.r))
        rc = np.matmul(r, chi, out=work.rc)
        # lambda = C_tot / Tr chi = C_tot at Tr chi = 1
        diff = np.multiply(c_tot[:, None, None], chi, out=work.diff)
        np.subtract(rc, diff, out=diff)
        residual = np.abs(diff, out=work.abs).reshape(len(chi), -1).sum(axis=1) / c_tot
        converged = residual < settings.stop_threshold
        out_of_budget = iterations >= settings.max_iterations
        stopping = np.ones_like(converged) if out_of_budget else converged
        if stopping.any():
            for a in np.flatnonzero(stopping):
                results[active[a]] = ReconstructionResult(
                    chi=chi[a].copy(),
                    iterations=iterations,
                    final_residual=float(residual[a]),
                    log_likelihood=_log_likelihood(tables[a], p[a]),
                    converged=bool(converged[a]),
                    min_eigenvalue=min(float(min_eig[a]), float(np.linalg.eigvalsh(chi[a])[0])),
                    guard_activations=int(guard_total[a]),
                    gap_bound=None if guarded[a]  # Tr[R chi] = C_tot needs an R of unfloored p
                    else max(0.0, float(np.linalg.eigvalsh(r[a])[-1] - c_tot[a])),
                )
            if stopping.all():
                return results
            keep = np.flatnonzero(~stopping)
            for buffer in (chi, work.r, work.rc):
                buffer[:len(keep)] = buffer[keep]
            work, chi = work.front(len(keep)), chi[:len(keep)]
            # new arrays: tables may be the caller's own
            active, tables = active[keep], tables[keep]
            c_tot, guard_total, min_eig = c_tot[keep], guard_total[keep], min_eig[keep]
        # R chi R, with the R chi of the residual, over chi: no operand, and its results and residual are taken
        np.matmul(work.rc, work.r, out=chi)
        # chi + chi^H, not its half: the exact factor 2 cancels in the 1/Tr scaling
        chi += np.conjugate(chi, out=work.diff).swapaxes(-1, -2)
        # times 1/Tr, not / Tr: the pinned golden values depend on these bits
        chi *= (1.0 / chi.trace(axis1=1, axis2=2).real)[:, None, None]
        iterations += 1
        if iterations % PSD_CHECK_INTERVAL == 0:
            eig = np.linalg.eigvalsh(chi)[:, 0]
            np.minimum(min_eig, eig, out=min_eig)
            worst = float(eig.min())
            if worst < -1e-10:
                raise RuntimeError(f"iterate lost positivity (min eigenvalue {worst:.3e})")


def _log_likelihood(table: np.ndarray, p: np.ndarray) -> float:
    """``sum C ln p - C_tot`` over measured outcomes, at ``Tr chi = 1``."""
    measured = table > 0
    loglik = float(np.sum(table[measured] * np.log(np.maximum(p[measured], P_FLOOR))))
    return loglik - float(table.sum())


#: Resamples fitted together by :func:`bootstrap_fidelity_uncertainty`.  The
#: workspace grows with the block: for 100 resamples of a 1e4-pair table on
#: 2 vCPUs (OpenBLAS, one thread), one block of 100 raised the CLI's peak RSS
#: from 37.8 MB (one fit at a time) to 47.5 MB; 16 adds about 1.5 MB and is
#: as fast (0.56 s against 0.54 s for 32, 0.57 s for 100, 0.64 s for 8 and
#: 1.2 s for fitting one at a time; medians of 11 fresh processes).
BOOTSTRAP_BLOCK = 16


@dataclass(frozen=True)
class BootstrapResult:
    """Parametric-bootstrap spread of the reconstructed fidelity.

    ``sigma`` is the sample standard deviation of ``fidelities`` (one per
    resample, in stream order), None where it is exactly 0 (every resample
    fit to the same fidelity), which is no error bar; ``nonconverged`` counts
    resamples whose fit stopped at ``max_iterations``.  ``max_gap_bound`` is
    the largest resample ``gap_bound``, None if some resample fit has none.
    """

    sigma: float | None
    fidelities: np.ndarray
    nonconverged: int
    max_gap_bound: float | None = None


def bootstrap_fidelity_uncertainty(
    chi_hat: np.ndarray,
    c_tot: float,
    n_runs: int = 100,
    seed: int = 0,
    settings: MaxLikSettings | None = None,
) -> BootstrapResult:
    """Parametric-bootstrap standard deviation of the reconstructed fidelity.

    Each resample draws Poisson counts with means proportional to the outcome
    probabilities of ``chi_hat``, scaled so the expected total equals
    ``c_tot``, reconstructs a process matrix from them, and evaluates its
    fidelity to the ideal CZ gate.  Resample ``i`` draws from stream ``i`` of
    ``SeedSequence(seed).spawn(n_runs)``; the fits run in blocks of
    :data:`BOOTSTRAP_BLOCK` through the loop of :func:`maxlik_reconstruct_batch`,
    which does not change any result.  A resample that draws no counts cannot be
    fitted: it is ``DegenerateDataError`` naming its stream and ``c_tot``.
    """
    n_runs = whole_number(n_runs, 2, "need an integer of at least 2 bootstrap runs")
    seed = whole_number(seed, 0, "bootstrap seed must be a nonnegative integer")
    c_tot = real_number(c_tot, "c_tot must be positive and finite", lambda x: x > 0)
    reference = cz_choi()
    p = outcome_probabilities(chi_hat)
    if p.sum() <= 0:
        raise ValueError("process matrix must have positive trace")
    mu = c_tot * p / p.sum()

    streams = np.random.SeedSequence(seed).spawn(n_runs)
    work = _Workspace.sized(min(n_runs, BOOTSTRAP_BLOCK))
    fits: list[ReconstructionResult] = []
    for first in range(0, n_runs, BOOTSTRAP_BLOCK):
        block = [np.random.default_rng(stream).poisson(mu) for stream in streams[first:first + BOOTSTRAP_BLOCK]]
        i = next((first + j for j, table in enumerate(block) if not table.any()), None)
        if i is not None:
            raise DegenerateDataError(f"total coincidence count is zero in bootstrap resample {i} (stream {i} of "
                                      f"SeedSequence({seed}).spawn({n_runs})), drawn from an input total of {c_tot!r}")
        fits += _rchir(np.stack(block, dtype=float), settings or MaxLikSettings(), work)
    fidelities = np.array([_overlap(fit.chi, reference) for fit in fits])
    bounds = [fit.gap_bound for fit in fits]
    return BootstrapResult(
        sigma=float(np.std(fidelities, ddof=1)) or None,
        fidelities=fidelities,
        nonconverged=sum(not fit.converged for fit in fits),
        max_gap_bound=None if None in bounds else max(bounds),
    )
