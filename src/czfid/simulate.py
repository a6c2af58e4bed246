"""Synthetic coincidence-count experiments with Poisson statistics and drift.

A run steps through the 36 input probe pairs in a fixed order.  For each
input block the 36 output projections are measured sequentially (one abstract
acquisition window each), followed by one reference measurement at a fixed
setting (input |HH>, projection onto |HH>) used later to divide out slow
source-rate drift.  Counts are Poisson draws with mean
``pair_rate * m(t) * p_jk,lm`` where ``m(t)`` is the drift multiplier of the
window in which that setting was acquired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_COUNT, ZERO_CLAMP, count_table, finite_matrix, measurement_map, pair_index, pair_labels, real_number,
    reference_values, whole_number,
)
from .exceptions import DegenerateDataError
from .model import clamp_visibility, model_choi

#: Windows per input block: 36 projection settings plus one reference setting.
WINDOWS_PER_BLOCK = 37
N_WINDOWS = 36 * WINDOWS_PER_BLOCK

#: The :class:`DriftProfile` parameters each drift kind reads; the others must stay 0.
DRIFT_PARAMETERS = {
    "constant": (),
    "linear": ("amplitude",),
    "sinusoidal": ("amplitude", "period"),
    "random-walk": ("step",),
}
#: The rule of each parameter where its kind reads it: its message and valid range, in checking order.
#: A period must also keep the largest phase 2 pi t / period of :meth:`DriftProfile.multipliers` finite.
_DRIFT_RULES = {
    "period": ("sinusoidal drift requires a positive finite period",
               lambda x: x > 0 and np.isfinite(2.0 * np.pi * (N_WINDOWS - 1) / x)),
    "amplitude": ("{kind} drift amplitude must lie in [-0.5, 0.5]", lambda x: abs(x) <= 0.5),
    "step": ("drift step must be nonnegative and finite", lambda x: x >= 0),
}


@dataclass(frozen=True)
class DriftProfile:
    """Slow variation of the pair-generation rate across acquisition windows.

    ``amplitude`` is a relative fraction (0.1 = +-10%), ``period`` is measured
    in window counts (at least about 4.65e-305, so that every phase of the
    run's windows is finite), ``step`` is the standard deviation of one random-walk
    increment.  Multipliers stay within [0.5, 1.5]: linear and sinusoidal
    amplitudes are limited to 0.5, and a random walk is clamped to that range.
    Every parameter is finite, and one the kind does not read (see
    :data:`DRIFT_PARAMETERS`) must be 0; all three are stored as Python floats.
    """

    kind: str = "constant"
    amplitude: float = 0.0
    period: float = 0.0
    step: float = 0.0

    def __post_init__(self):
        if self.kind not in tuple(DRIFT_PARAMETERS):  # a tuple: an unhashable kind is refused by name too
            raise ValueError(f"drift kind must be one of {tuple(DRIFT_PARAMETERS)}, got {self.kind!r}")
        reads = DRIFT_PARAMETERS[self.kind]
        for name in sorted(_DRIFT_RULES, key=lambda name: name not in reads):  # a bad value it reads is named first
            value = getattr(self, name)
            if name in reads:
                message, valid = _DRIFT_RULES[name]
                object.__setattr__(self, name, real_number(value, message.format(kind=self.kind), valid))
                continue
            try:
                object.__setattr__(self, name, real_number(value, "", lambda x: x == 0))
            except ValueError:
                raise ValueError(f"{self.kind} drift takes no {name}, got {name}={value!r}") from None

    def multipliers(self, n_windows: int, rng: np.random.Generator) -> np.ndarray:
        """Rate multiplier m(t) for window indices 0..n_windows-1."""
        t = np.arange(n_windows, dtype=float)
        if self.kind == "constant":
            m = np.ones(n_windows)
        elif self.kind == "linear":
            span = max(n_windows - 1, 1)
            m = 1.0 + self.amplitude * (2.0 * t / span - 1.0)
        elif self.kind == "sinusoidal":
            m = 1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period)
        else:  # random-walk
            steps = rng.normal(0.0, self.step, size=n_windows)
            steps[0] = 0.0
            m = 1.0 + np.cumsum(steps)
        return np.clip(m, 0.5, 1.5)


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated data-taking run.

    ``pair_rate`` is the mean number of detected photon pairs per window
    (before drift); the 30 s physical window duration is metadata only.
    The process is exactly one of ``visibility`` (gate model, stored through
    :func:`czfid.model.clamp_visibility`) or an explicit Choi matrix
    ``choi``.  A ``choi`` is checked once, as supplied, when the config is
    built, by the rules of :func:`outcome_probabilities`, and stored as a
    read-only complex copy.  ``noise_admixture`` replaces that fraction
    of the process with white noise of equal trace, emulating residual setup
    imperfections.
    """

    pair_rate: float
    visibility: float | None = None
    choi: np.ndarray | None = None
    drift: DriftProfile = field(default_factory=DriftProfile)
    seed: int = 0
    noise_admixture: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pair_rate", real_number(
            self.pair_rate, "pair_rate must be positive and finite", lambda x: x > 0))
        object.__setattr__(self, "noise_admixture", real_number(
            self.noise_admixture, "noise_admixture must be in [0, 1)", lambda x: 0 <= x < 1))
        if (self.visibility is None) == (self.choi is None):
            raise ValueError("config must define exactly one of visibility and choi (choi_file in JSON)")
        if self.visibility is not None:
            object.__setattr__(self, "visibility", clamp_visibility(self.visibility))
        else:
            choi = _checked_choi(self.choi).copy()
            choi.setflags(write=False)
            object.__setattr__(self, "choi", choi)
        object.__setattr__(self, "seed", whole_number(self.seed, 0, "seed must be a nonnegative integer"))

    def resolve_choi(self) -> np.ndarray:
        """Process matrix the run draws data from, including noise admixture; checks nothing.

        A model chi, a checked ``choi``, and either mixed with white noise are PSD.
        """
        chi = model_choi(self.visibility) if self.choi is None else self.choi
        if self.noise_admixture > 0.0:
            eps = self.noise_admixture
            white = np.trace(chi).real * np.eye(16, dtype=complex) / 16.0
            chi = (1.0 - eps) * chi + eps * white
        return chi


@dataclass(frozen=True)
class CoincidenceTable:
    """36x36 coincidence counts, rows = input pairs, columns = projections."""

    counts: np.ndarray

    def __post_init__(self):
        count_table(self.counts)
        object.__setattr__(self, "counts", np.asarray(self.counts))


def outcome_probabilities(chi: np.ndarray) -> np.ndarray:
    """Table p[jk, lm] = Tr[Psi_jk^T (x) Psi_lm chi] for all 36x36 settings.

    Entries sum to 81 Tr[chi].  ``chi`` must pass :func:`czfid.core.finite_matrix`
    (finite entries and trace), then be Hermitian within 1e-9 and PSD: a chi with
    an eigenvalue below ``-1e-10 max(Tr chi, 1)`` is rejected.  Roundoff of exact
    zeros is set to exactly zero, keeping seeded draws stable (see
    :data:`czfid.core.ZERO_CLAMP`), and other roundoff negatives to zero.
    """
    return _probabilities(_checked_choi(chi))


def _checked_choi(chi) -> np.ndarray:
    """``chi`` as a complex 16x16 array that passes :func:`czfid.core.finite_matrix`, is Hermitian and is PSD."""
    chi = finite_matrix(chi, "16x16 process matrix")
    if np.max(np.abs(chi / 2.0 - chi.conj().T / 2.0)) > 0.5e-9:  # halved, as below, so finite for any finite chi
        raise ValueError("process matrix must be Hermitian")
    # the Hermitian part, halved before it is summed, is finite for any finite chi
    if np.linalg.eigvalsh(chi / 2.0 + chi.conj().T / 2.0)[0] < -1e-10 * max(np.trace(chi).real, 1.0):
        raise ValueError("process matrix must be positive semidefinite")
    return chi


def _probabilities(chi: np.ndarray) -> np.ndarray:
    """:func:`outcome_probabilities` of a checked chi."""
    p = measurement_map(chi)
    p[np.abs(p) <= ZERO_CLAMP * max(np.trace(chi).real, 1.0)] = 0.0
    return np.maximum(p, 0.0, out=p)


def simulate_counts(config: ExperimentConfig) -> tuple[CoincidenceTable, np.ndarray]:
    """Draw one full dataset: coincidence table plus the 36 reference counts D_jk, in block order.

    Identical configs produce bit-identical tables.  A ``pair_rate`` whose
    mean counts exceed :data:`czfid.core.MAX_COUNT` is rejected.  No matrix
    is checked here: the config checked its ``choi`` when it was built.
    """
    p = _probabilities(config.resolve_choi())
    hh = pair_index("H", "H")  # the reference setting: input |HH>, projection onto |HH>
    p_ref = p[hh, hh]

    rng = np.random.default_rng(config.seed)
    mult = config.drift.multipliers(N_WINDOWS, rng)
    window_grid = np.arange(36)[:, None] * WINDOWS_PER_BLOCK + np.arange(36)[None, :]
    ref_windows = np.arange(36) * WINDOWS_PER_BLOCK + 36

    with np.errstate(over="ignore", invalid="ignore"):  # inf, or nan from inf * 0: rejected below
        means = config.pair_rate * mult[window_grid] * p
        ref_means = config.pair_rate * mult[ref_windows] * p_ref
    if not (np.all(means <= MAX_COUNT) and np.all(ref_means <= MAX_COUNT)):
        raise ValueError(f"pair_rate {config.pair_rate!r} gives mean counts above 2**53, the largest count")
    counts = rng.poisson(means)
    refs = rng.poisson(ref_means)
    return CoincidenceTable(counts), refs


def expected_counts(chi: np.ndarray, pair_rate: float = 1.0) -> np.ndarray:
    """Noiseless (drift-free) expected coincidence table pair_rate * p."""
    pair_rate = real_number(pair_rate, "pair_rate must be positive and finite", lambda x: x > 0)
    return pair_rate * outcome_probabilities(chi)


def renormalize_counts(counts, references) -> np.ndarray:
    """Divide each input block's counts by its reference: C~ = C_jk,lm / D_jk."""
    return _renormalized(count_table(counts), reference_values(references))


def _renormalized(table: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """:func:`renormalize_counts` of a checked table and checked references.

    A zero reference, or one so small that some C/D of its block is not finite,
    is refused by name (:func:`_reference_fault`).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below
        renormalized = table / refs[:, None]
    bad = np.flatnonzero((refs <= 0) | ~np.isfinite(renormalized).all(axis=1))
    if bad.size:
        raise _reference_fault(refs, int(bad[0]), "C/D")
    return renormalized


def _reference_fault(refs: np.ndarray, block: int, term: str) -> DegenerateDataError:
    """The error naming input block ``block``, whose reference is zero or too small for a finite ``term``."""
    j, k = pair_labels(block)
    if refs[block] <= 0:
        return DegenerateDataError(f"reference count for input block |{j}{k}> is zero; cannot renormalize")
    return DegenerateDataError(f"reference count {float(refs[block])!r} for input block |{j}{k}> is too small to "
                               f"divide by: its {term} is not finite; cannot renormalize")
