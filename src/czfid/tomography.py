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

There is one iteration loop, ``_rchir``, over a ``(B, 16, 16)`` stack of
iterates, and it alone resolves the default settings of every fit:
:func:`maxlik_reconstruct_batch` fits B count tables at once, each with its
own stopping rule and diagnostics and with exactly the result it gets alone,
and :func:`maxlik_reconstruct` is that function on a list of one table.
:func:`bootstrap_fidelity_uncertainty` fits its resamples in blocks through
the loop and returns a :class:`BootstrapResult` (sigma, the per-resample
fidelities and the number of resample fits that did not converge).  It holds
one block at a time: its streams are spawned per block, the same streams one
``spawn(n_runs)`` gives, its resamples are drawn into one reused stack, and of
each fit it keeps the fidelity, gap bound and convergence flag, so its memory
does not grow with the resample count.
The loop writes every stack-sized array into one :class:`_Workspace`, made
once per fit stack (per bootstrap), so the heap does not re-fault temporaries
on every iteration.  The update overwrites the one chi buffer once results and
residual are taken from it, over the whole stack; then, if some replicate
stopped, compaction moves only chi and the survivors' state to the front.
Each front (the start of a fit, and each compaction) makes once every view
and per-replicate array its iterations read, and the buffered calls of the
forward map and adjoint of :mod:`czfid.core`, so an iteration allocates no
buffer of its own; the stop mask is built only on an iteration where some
replicate stops.  numpy still takes one stack-sized operand buffer in each of
three ufunc calls, the broadcast ``lambda chi`` and ``chi (1/Tr)`` products
and the transposed ``chi + chi^H`` sum: a step's traced memory peaks 5,248
bytes above its start for one table and 66,688 for 16.

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
    _overlap, buffered_adjoint, buffered_map, count_table, cz_choi, finite_matrix, map_buffers,
    measurement_adjoint, measurement_map, real_number, whole_number,
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
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ratios C/p with tiny p floored (zero counts give zero weight), into ``out`` if given.

    Also returns how many measured outcomes hit the floor, per table of a
    ``(..., 36, 36)`` stack; None if no p is below the floor.
    """
    if np.minimum.reduce(p, axis=None) >= p_floor:
        return np.divide(table, p, out=out), None
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
    return maxlik_reconstruct_batch([counts], settings)[0]


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
    return _rchir(np.stack(tables), settings)


#: Updates between two eigenvalue audits of the running iterates.
PSD_CHECK_INTERVAL = 100

#: Smallest table total a fit accepts: R chi R squares the table's scale, which
#: underflows below about 1e-152.  Real totals are >= 1 (nonzero C/D >= 2**-53).
MIN_FIT_TOTAL = 1e-100


class _Workspace(NamedTuple):
    """Every stack-sized array an R chi R iteration writes, one row per replicate.

    Made once per fit stack (once per bootstrap) by :meth:`sized`, so the loop
    allocates no stack-sized buffer of its own; :meth:`front` cuts every buffer to
    the replicates still running, and the loop makes its views of that front
    once.  Only chi carries a value from one iteration to the next; every
    other buffer is written before it is read.
    """

    x: np.ndarray  # the three buffers of core.map_buffers, which both maps work in
    px: np.ndarray
    pxp: np.ndarray
    # C/p over a zero imaginary part: the operand the implicit cast of real weights gives the adjoint's GEMM
    weights: np.ndarray
    r: np.ndarray
    rc: np.ndarray  # R chi
    chi: np.ndarray  # the iterate, which the next one overwrites
    diff: np.ndarray  # R chi - lambda chi, then conj(chi), in x: the maps are done with it by then
    abs: np.ndarray  # |R chi - lambda chi|

    @classmethod
    def sized(cls, size: int) -> _Workspace:
        def stack(rows: int = 16, cols: int = 16, dtype=complex) -> np.ndarray:
            return np.zeros((size, rows, cols), dtype)

        x, px, pxp = map_buffers((size,))
        return cls(x=x, px=px, pxp=pxp, weights=stack(36, 36), r=stack(), rc=stack(), chi=stack(), diff=x,
                   abs=stack(dtype=float))

    def front(self, k: int) -> _Workspace:
        return _Workspace(*(buffer[:k] for buffer in self))


def _rchir(tables: np.ndarray, settings: MaxLikSettings | None = None,
           work: _Workspace | None = None) -> list[ReconstructionResult]:
    """The R chi R iteration over a validated ``(B, 36, 36)`` stack: the one place a fit gets its default settings.

    Iterates of replicates still running stay at the front of the buffers of
    ``work`` (a new workspace of size B if None).  On an iteration where some
    replicate stops, its result is taken and the update runs over the whole
    stack; then compaction moves the survivors' chi and per-replicate state to
    the front, and no other buffer.  ``tables`` is never written.  The
    log-likelihood is evaluated once, from the final ``p``.  Every
    :data:`PSD_CHECK_INTERVAL` updates a lost eigenvalue raises
    ``RuntimeError``; the smallest seen is ``min_eigenvalue``.
    """
    settings = settings or MaxLikSettings()
    threshold, budget = settings.stop_threshold, settings.max_iterations
    n_tables = len(tables)
    c_tot = tables.reshape(n_tables, -1).sum(axis=1)
    empty = np.flatnonzero(c_tot < MIN_FIT_TOTAL)
    if empty.size:
        where = "" if n_tables == 1 else f" in table {int(empty[0])}"
        raise DegenerateDataError(f"total coincidence count is zero or below {MIN_FIT_TOTAL:g}{where}, "
                                  f"got {float(c_tot[empty[0]])!r}")

    work = work or _Workspace.sized(n_tables)
    work.chi[:n_tables] = np.eye(16) / 16.0  # I/16, whose smallest eigenvalue is 1/16
    # Per running replicate, in stack order; compaction keeps the survivors' rows.
    running = (np.arange(n_tables), tables, c_tot, np.zeros(n_tables, dtype=int), np.full(n_tables, 1 / 16))
    results: list[ReconstructionResult | None] = [None] * n_tables
    iterations = 0

    while True:  # one pass per front
        active, tables, c_tot, guard_total, min_eig = running
        size = len(active)
        work = work.front(size)
        chi, rc, r, diff = work.chi, work.rc, work.r, work.diff
        forward = buffered_map(chi, work.x, work.px, work.pxp)
        adjoint = buffered_adjoint(work.weights, work.x, work.px, r)
        weights = work.weights.real
        lam = c_tot[:, None, None]  # lambda = C_tot / Tr chi = C_tot at Tr chi = 1
        abs_rows, diff_h, diagonal = work.abs.reshape(size, -1), diff.swapaxes(-1, -2), chi.diagonal(0, -2, -1)
        residual, converged, scale = np.empty(size), np.empty(size, bool), np.empty(size)
        trace = np.empty(size, complex)
        trace_re, scale_3d = trace.real, scale[:, None, None]
        while True:
            if iterations and iterations % PSD_CHECK_INTERVAL == 0:
                eig = np.linalg.eigvalsh(chi)[:, 0]
                np.minimum(min_eig, eig, out=min_eig)
                worst = float(eig.min())
                if worst < -1e-10:
                    raise RuntimeError(f"iterate lost positivity (min eigenvalue {worst:.3e})")
            p = forward()
            _, guarded = _weights(tables, p, P_FLOOR, out=weights)
            if guarded is not None:
                guard_total += guarded
            adjoint()
            np.matmul(r, chi, out=rc)
            np.multiply(lam, chi, out=diff)
            np.subtract(rc, diff, out=diff)
            np.absolute(diff, out=work.abs)
            np.divide(np.add.reduce(abs_rows, axis=1, out=residual), c_tot, out=residual)
            np.less(residual, threshold, out=converged)
            # false on most iterations, which skip the result block and compaction
            some_stop = iterations >= budget or np.logical_or.reduce(converged)
            if some_stop:
                stopping = converged | (iterations >= budget)
                for a in np.flatnonzero(stopping):
                    results[active[a]] = ReconstructionResult(
                        chi=chi[a].copy(),
                        iterations=iterations,
                        final_residual=float(residual[a]),
                        log_likelihood=_log_likelihood(tables[a], p[a]),
                        converged=bool(converged[a]),
                        min_eigenvalue=min(float(min_eig[a]), float(np.linalg.eigvalsh(chi[a])[0])),
                        guard_activations=int(guard_total[a]),
                        gap_bound=None if guarded is not None and guarded[a]  # Tr[R chi] = C_tot needs unfloored p
                        else max(0.0, float(np.linalg.eigvalsh(r[a])[-1] - c_tot[a])),
                    )
                if stopping.all():
                    return results
            # R chi R, with the R chi of the residual, over chi: no operand, and its results and residual are taken
            np.matmul(rc, r, out=chi)
            # chi + chi^H, not its half: the exact factor 2 cancels in the 1/Tr scaling
            np.conjugate(chi, out=diff)
            np.add(chi, diff_h, out=chi)
            # times 1/Tr, not / Tr: the pinned golden values depend on these bits
            np.add.reduce(diagonal, axis=-1, out=trace)  # Tr chi, the sum ndarray.trace takes
            np.divide(1.0, trace_re, out=scale)
            np.multiply(chi, scale_3d, out=chi)
            iterations += 1
            if some_stop:
                break
        keep = np.flatnonzero(~stopping)
        chi[:len(keep)] = chi[keep]
        running = tuple(state[keep] for state in running)  # new arrays: tables may be the caller's own


def _log_likelihood(table: np.ndarray, p: np.ndarray) -> float:
    """``sum C ln p - C_tot`` over measured outcomes, at ``Tr chi = 1``."""
    measured = table > 0
    loglik = float(np.sum(table[measured] * np.log(np.maximum(p[measured], P_FLOOR))))
    return loglik - float(table.sum())


#: Resamples fitted together by :func:`bootstrap_fidelity_uncertainty`.  The
#: workspace and the drawn stack grow with the block, the resample count does
#: not: for ``estimate --bootstrap 100`` on a 1e4-pair table on 2 vCPUs
#: (OpenBLAS, one thread), the CLI's peak RSS is 37.6 MB fitting one at a time,
#: 38.1 MB for blocks of 8, 38.8 MB for 16, 40.3 MB for 32 and 47.2 MB for one
#: block of 100; 16 is as fast as any (0.47 s against 0.46 s for 32, 0.48 s
#: for 100, 0.52 s for 8 and 0.89 s for one at a time; medians of 9 fresh
#: processes).  At ``--bootstrap 1000`` it peaks at 38.9 MB.
BOOTSTRAP_BLOCK = 16

#: Most resamples one bootstrap fits: it keeps a fidelity per resample, and a million resample fits take
#: over an hour.
MAX_BOOTSTRAP_RUNS = 10**6


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
    ``SeedSequence(seed).spawn(n_runs)``: each block of :data:`BOOTSTRAP_BLOCK`
    resamples spawns its own streams from one ``SeedSequence(seed)``, which
    numbers its children in spawn order, so they are exactly those streams.  A
    block is drawn into one reused stack and fitted through the loop of
    :func:`maxlik_reconstruct_batch`, which does not change any result; only
    each fit's fidelity, gap bound and convergence flag outlive the block.  A
    resample that draws no counts cannot be fitted: it is
    ``DegenerateDataError`` naming its stream and ``c_tot``.  ``n_runs`` is
    from 2 to :data:`MAX_BOOTSTRAP_RUNS`.
    """
    n_runs = whole_number(n_runs, 2, "need an integer of at least 2 bootstrap runs", MAX_BOOTSTRAP_RUNS)
    seed = whole_number(seed, 0, "bootstrap seed must be a nonnegative integer")
    c_tot = real_number(c_tot, "c_tot must be positive and finite", lambda x: x > 0)
    reference = cz_choi()
    p = outcome_probabilities(chi_hat)
    if p.sum() <= 0:
        raise ValueError("process matrix must have positive trace")
    mu = c_tot * p / p.sum()

    root = np.random.SeedSequence(seed)
    size = min(n_runs, BOOTSTRAP_BLOCK)
    work, drawn = _Workspace.sized(size), np.empty((size, 36, 36))
    fidelities, bounds, nonconverged = np.empty(n_runs), [], 0
    for first in range(0, n_runs, BOOTSTRAP_BLOCK):
        block = drawn[:min(BOOTSTRAP_BLOCK, n_runs - first)]
        for j, stream in enumerate(root.spawn(len(block))):  # stream first + j of spawn(n_runs)
            block[j] = np.random.default_rng(stream).poisson(mu)
            if not block[j].any():
                i = first + j
                raise DegenerateDataError(f"total coincidence count is zero in bootstrap resample {i} (stream {i} "
                                          f"of SeedSequence({seed}).spawn({n_runs})), drawn from an input total "
                                          f"of {c_tot!r}")
        for i, fit in enumerate(_rchir(block, settings, work), start=first):
            fidelities[i] = _overlap(fit.chi, reference)
            bounds.append(fit.gap_bound)
            nonconverged += not fit.converged
    return BootstrapResult(
        sigma=float(np.std(fidelities, ddof=1)) or None,
        fidelities=fidelities,
        nonconverged=nonconverged,
        max_gap_bound=None if None in bounds else max(bounds),
    )
