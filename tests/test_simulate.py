import re

import numpy as np
import pytest

from czfid import core, model, simulate
from czfid.exceptions import DegenerateDataError

from conftest import probability_table_bruteforce, random_psd_choi
from golden import GOLDEN_CONFIGS, GOLDEN_DIGESTS, digest


def test_probability_table_matches_bruteforce(rng):
    for _ in range(3):
        chi = random_psd_choi(rng)
        expected = probability_table_bruteforce(chi)
        np.testing.assert_allclose(simulate.outcome_probabilities(chi), expected, atol=1e-10)


def test_outcome_probabilities_ideal_gate():
    p = simulate.outcome_probabilities(core.cz_choi())
    hh = core.pair_index("H", "H")
    assert abs(p[hh, hh] - 1.0) < 1e-12


def test_outcome_probabilities_dv_to_av():
    p = simulate.outcome_probabilities(core.cz_choi() / 9.0)
    dv = core.pair_index("D", "V")
    av = core.pair_index("A", "V")
    assert abs(p[dv, av] - 1.0 / 9.0) < 1e-12


def test_outcome_probabilities_sum_rule():
    for v in (0.0, 0.5, 1.0):
        chi = model.model_choi(v)
        p = simulate.outcome_probabilities(chi)
        total = p.sum()
        expected = 81.0 * np.trace(chi).real
        assert abs(total - expected) / expected < 1e-8
    # normalized trace
    chi = model.model_choi(0.5)
    chi /= np.trace(chi).real
    assert abs(simulate.outcome_probabilities(chi).sum() - 81.0) < 1e-8


def test_outcome_probabilities_clamps_roundoff_only():
    p = simulate.outcome_probabilities(core.cz_choi())  # rank 1, many exact zeros
    assert p.min() >= 0.0
    raw = core.measurement_map(core.cz_choi())
    assert raw.min() > -1e-10


def test_outcome_probabilities_rejects_non_psd():
    bad = np.eye(16, dtype=complex)
    bad[0, 0] = -0.5
    with pytest.raises(ValueError):
        simulate.outcome_probabilities(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        simulate.ExperimentConfig(pair_rate=0.0, visibility=0.5)
    with pytest.raises(ValueError):
        simulate.ExperimentConfig(pair_rate=-5.0, visibility=0.5)
    for pair_rate in (np.inf, np.nan):
        with pytest.raises(ValueError, match="pair_rate must be positive and finite"):
            simulate.ExperimentConfig(pair_rate=pair_rate, visibility=0.5)
        with pytest.raises(ValueError, match="pair_rate must be positive and finite"):
            simulate.expected_counts(core.cz_choi(), pair_rate)
    for sources in ({}, {"visibility": 0.5, "choi": core.cz_choi() / 9.0}):
        with pytest.raises(ValueError, match="exactly one of visibility and choi"):
            simulate.ExperimentConfig(pair_rate=100.0, **sources)
    with pytest.raises(ValueError, match="visibility must lie in"):
        simulate.ExperimentConfig(pair_rate=100.0, visibility=5.0)
    assert simulate.ExperimentConfig(pair_rate=100.0, visibility=1.0005).visibility == 1.0
    assert simulate.ExperimentConfig(pair_rate=100.0, visibility=-0.0005).visibility == 0.0
    with pytest.raises(ValueError):
        simulate.ExperimentConfig(pair_rate=100.0, visibility=0.5, noise_admixture=1.0)
    for seed in (-1, 1.7, 2.0, True, "3", np.nan, np.float64(3.0)):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got "):
            simulate.ExperimentConfig(pair_rate=100.0, visibility=0.5, seed=seed)
    config = simulate.ExperimentConfig(pair_rate=100.0, visibility=0.5, seed=np.int64(3))
    assert config.seed == 3 and type(config.seed) is int
    for pair_rate in ("100", True, 10**400):
        with pytest.raises(ValueError, match="^pair_rate must be positive and finite, got "):
            simulate.ExperimentConfig(pair_rate=pair_rate, visibility=0.5)
    with pytest.raises(ValueError, match="^pair_rate must be positive and finite, got True$"):
        simulate.expected_counts(core.cz_choi(), True)
    for noise in (False, "0.1"):
        with pytest.raises(ValueError, match=r"^noise_admixture must be in \[0, 1\), got "):
            simulate.ExperimentConfig(pair_rate=100.0, visibility=0.5, noise_admixture=noise)
    for visibility in ("0.5", True):
        with pytest.raises(ValueError, match=r"^visibility must lie in \[0, 1\], got "):
            simulate.ExperimentConfig(pair_rate=100.0, visibility=visibility)
    config = simulate.ExperimentConfig(pair_rate=100, visibility=np.float32(0.5), noise_admixture=np.int64(0))
    assert (config.pair_rate, config.visibility, config.noise_admixture) == (100.0, 0.5, 0.0)
    assert all(type(x) is float for x in (config.pair_rate, config.visibility, config.noise_admixture))


def test_config_checks_its_choi_as_supplied_when_built():
    skew = core.cz_choi() / 9.0
    skew[0, 1] += 1e-6
    not_psd = np.eye(16, dtype=complex)
    not_psd[0, 0] = -0.5  # PSD once mixed with 90% white noise, but checked before the admixture
    for chi, message in ((skew, "process matrix must be Hermitian"),
                         (not_psd, "process matrix must be positive semidefinite")):
        for noise in (0.0, 0.9):
            with pytest.raises(ValueError, match=f"^{message}$"):
                simulate.ExperimentConfig(pair_rate=1e3, choi=chi, noise_admixture=noise)
    chi = core.cz_choi() / 9.0
    config = simulate.ExperimentConfig(pair_rate=1e3, choi=chi)
    chi[0, 0] = np.nan  # the config keeps its checked copy
    assert np.isfinite(config.choi).all() and not config.choi.flags.writeable
    assert simulate.ExperimentConfig(pair_rate=1e3, choi=np.eye(16)).choi.dtype == complex


def test_a_choi_near_float_range_is_checked_without_numpy_warnings():
    # numpy warnings are errors here, so no check may overflow; a sum of two 1e308 entries would
    with pytest.raises(ValueError, match="^16x16 process matrix is too large: its trace is not a finite number$"):
        simulate.ExperimentConfig(pair_rate=1e3, choi=1e308 * np.eye(16))
    big = np.zeros((16, 16))
    big[0, 0] = 1e308  # |HH> to |HH>, its checks finite: checked, then simulated at a rate that fits it
    assert simulate.ExperimentConfig(pair_rate=1e3, choi=big).choi[0, 0] == 1e308
    table, _ = simulate.simulate_counts(simulate.ExperimentConfig(pair_rate=1e-300, choi=big, seed=1))
    assert table.counts[table.counts > 0].min() > 1e6  # counts near 1e8 x p, every p a sum of |HH> overlaps
    with pytest.raises(ValueError, match=r"^pair_rate 1000\.0 gives mean counts above 2\*\*53"):
        simulate.simulate_counts(simulate.ExperimentConfig(pair_rate=1e3, choi=big))
    skew = np.full((16, 16), 1.5e307) - np.diag(np.full(16, 1.5e307))  # its largest eigenvalue overflows
    with pytest.raises(ValueError, match="^process matrix must be positive semidefinite$"):
        simulate.ExperimentConfig(pair_rate=1e3, choi=skew)


@pytest.mark.parametrize("entry", [1e308, 1.7e308 + 1.7e308j], ids=["real", "complex"])
def test_a_skew_choi_near_float_range_is_named_without_numpy_warnings(entry):
    # numpy warnings are errors here: chi minus its adjoint, 2e308 at [0, 1], would overflow unhalved;
    # halved, a complex difference may still have a modulus beyond float range, which is refused as well
    chi = np.zeros((16, 16), dtype=complex)
    chi[0, 1], chi[1, 0] = entry, -np.conj(entry)
    with pytest.raises(ValueError, match="^process matrix must be Hermitian$"):
        simulate.outcome_probabilities(chi)

def test_simulation_is_deterministic():
    config = simulate.ExperimentConfig(pair_rate=1e4, visibility=0.5, seed=99)
    table_a, refs_a = simulate.simulate_counts(config)
    table_b, refs_b = simulate.simulate_counts(config)
    np.testing.assert_array_equal(table_a.counts, table_b.counts)
    np.testing.assert_array_equal(refs_a, refs_b)


def test_different_seeds_differ():
    a, _ = simulate.simulate_counts(simulate.ExperimentConfig(pair_rate=1e4, visibility=0.5, seed=1))
    b, _ = simulate.simulate_counts(simulate.ExperimentConfig(pair_rate=1e4, visibility=0.5, seed=2))
    assert np.any(a.counts != b.counts)


def test_empirical_means_match_probabilities():
    # law-of-large-numbers check over 200 seeds at fixed configuration
    n_seeds = 200
    pair_rate = 1e4
    chi = model.model_choi(0.953)
    p = simulate.outcome_probabilities(chi)
    totals = np.zeros((36, 36))
    for seed in range(n_seeds):
        table, _ = simulate.simulate_counts(
            simulate.ExperimentConfig(pair_rate=pair_rate, visibility=0.953, seed=seed)
        )
        totals += table.counts
    mu = n_seeds * pair_rate * p
    mask = mu >= 25.0  # normal approximation only where the mean supports it
    z = (totals[mask] - mu[mask]) / np.sqrt(mu[mask])
    assert np.max(np.abs(z)) < 5.0
    assert np.mean(np.abs(z) > 3.0) < 0.01
    assert np.all(totals[mu == 0.0] == 0)


def test_drift_profile_validation():
    with pytest.raises(ValueError):
        simulate.DriftProfile(kind="quadratic")
    with pytest.raises(ValueError):
        simulate.DriftProfile(kind="sinusoidal", amplitude=0.1, period=0.0)
    for kind in ("linear", "sinusoidal"):
        for amplitude in (0.9, -0.51, float("nan")):
            with pytest.raises(ValueError, match="amplitude"):
                simulate.DriftProfile(kind=kind, amplitude=amplitude, period=100.0)
    with pytest.raises(ValueError, match="step"):
        simulate.DriftProfile(kind="random-walk", step=-0.1)
    for period in (np.nan, np.inf, -np.inf, True):
        with pytest.raises(ValueError, match=f"requires a positive finite period, got {period}"):
            simulate.DriftProfile(kind="sinusoidal", amplitude=0.1, period=period)
    for step in (np.inf, np.nan, True):
        with pytest.raises(ValueError, match=f"drift step must be nonnegative and finite, got {step}"):
            simulate.DriftProfile(kind="random-walk", step=step)
    with pytest.raises(ValueError, match="^linear drift amplitude must lie in .-0.5, 0.5., got '0.1'$"):
        simulate.DriftProfile(kind="linear", amplitude="0.1")


def test_a_sinusoidal_period_must_keep_every_phase_finite():
    # 2 pi (N_WINDOWS - 1) / 1e-320 overflows; the multipliers would be nan from sin(inf)
    with pytest.raises(ValueError, match="^sinusoidal drift requires a positive finite period, got 1e-320$"):
        simulate.DriftProfile("sinusoidal", amplitude=0.1, period=1e-320)
    drift = simulate.DriftProfile("sinusoidal", amplitude=0.1, period=5e-305)
    table, refs = simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=100, visibility=0.5, seed=1, drift=drift)
    )
    assert table.counts.sum() > 0 and np.all(np.isfinite(refs))


@pytest.mark.parametrize(
    "kind, parameters, message",
    [
        ("random-walk", {"step": -1, "amplitude": 0.3}, "drift step must be nonnegative and finite, got -1"),
        ("sinusoidal", {"amplitude": 0.9, "period": 0}, "sinusoidal drift requires a positive finite period, got 0"),
        ("constant", {"amplitude": 0.3, "period": 5}, "constant drift takes no period, got period=5"),
        ("linear", {"amplitude": 0.9, "step": -1}, "linear drift amplitude must lie in [-0.5, 0.5], got 0.9"),
    ],
    ids=["read-step-first", "read-period-first", "ignored-period-first", "read-amplitude-before-ignored-step"],
)
def test_drift_profile_names_the_first_fault(kind, parameters, message):
    # a parameter the kind reads is judged first, then the others, each in the order period, amplitude, step
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate.DriftProfile(kind, **parameters)


#: A valid profile of each kind, and every parameter that kind does not read.
DRIFT_READS = {
    "constant": ({}, ("amplitude", "period", "step")),
    "linear": ({"amplitude": 0.1}, ("period", "step")),
    "sinusoidal": ({"amplitude": 0.1, "period": 100.0}, ("step",)),
    "random-walk": ({"step": 0.01}, ("amplitude", "period")),
}


@pytest.mark.parametrize(
    "kind, ignored",
    [(kind, name) for kind, (_, names) in DRIFT_READS.items() for name in names],
)
def test_drift_profile_rejects_a_parameter_its_kind_ignores(kind, ignored):
    valid, _ = DRIFT_READS[kind]
    simulate.DriftProfile(kind=kind, **valid, **{ignored: 0.0})
    for value in (0.3, -0.3, float("nan"), np.array([0.1, 0.2]), False):
        with pytest.raises(ValueError, match=f"{kind} drift takes no {ignored}, got {ignored}="):
            simulate.DriftProfile(kind=kind, **valid, **{ignored: value})


@pytest.mark.parametrize("kind", DRIFT_READS)
def test_drift_profile_stores_python_floats(kind):
    valid, ignored = DRIFT_READS[kind]
    profile = simulate.DriftProfile(kind=kind, **{name: np.float64(value) for name, value in valid.items()},
                                    **{name: np.float64(0) for name in ignored})
    for name in ("amplitude", "period", "step"):
        assert type(getattr(profile, name)) is float
    assert profile == simulate.DriftProfile(kind=kind, **valid)


def test_drift_multipliers_shapes_and_clamping(rng):
    const = simulate.DriftProfile().multipliers(rng)
    assert np.all(const == 1.0)
    lin = simulate.DriftProfile(kind="linear", amplitude=0.3).multipliers(rng)
    assert abs(lin[0] - 0.7) < 1e-12 and abs(lin[-1] - 1.3) < 1e-12
    sin = simulate.DriftProfile(kind="sinusoidal", amplitude=0.2, period=100.0).multipliers(rng)
    assert sin.min() >= 0.8 - 1e-12 and sin.max() <= 1.2 + 1e-12
    walk = simulate.DriftProfile(kind="random-walk", step=0.3).multipliers(rng)
    assert walk.min() >= 0.5 and walk.max() <= 1.5


def test_each_count_is_drawn_in_its_own_acquisition_window():
    # input block j is acquired in windows 37 j .. 37 j + 35 (projection k in window 37 j + k), then its
    # reference in window 37 j + 36.  At 1e12 pairs a cell with p >= 0.01 has a mean of at least 5e9, so
    # its draw is within about 1e-5 of it, and neighbouring windows of this drift differ by at least 5e-4
    drift = simulate.DriftProfile(kind="linear", amplitude=0.5)
    config = simulate.ExperimentConfig(pair_rate=1e12, visibility=0.5, seed=3, drift=drift)
    table, refs = simulate.simulate_counts(config)
    p = simulate.outcome_probabilities(model.model_choi(0.5))
    m = drift.multipliers(np.random.default_rng(0))
    j, k = np.nonzero(p >= 0.01)  # dividing by a p = 0 cell is a numpy warning, an error here
    np.testing.assert_allclose(table.counts[j, k] / (config.pair_rate * p[j, k]), m[37 * j + k], rtol=1e-4)
    hh = core.pair_index("H", "H")
    np.testing.assert_allclose(refs / (config.pair_rate * p[hh, hh]), m[37 * np.arange(36) + 36], rtol=1e-4)


def test_linear_drift_slope_sign_in_references():
    for amplitude in (0.2, -0.2):
        drift = simulate.DriftProfile(kind="linear", amplitude=amplitude)
        config = simulate.ExperimentConfig(pair_rate=1e4, visibility=0.5, seed=5, drift=drift)
        _, refs = simulate.simulate_counts(config)
        slope = np.polyfit(np.arange(36.0), refs.astype(float), 1)[0]
        assert np.sign(slope) == np.sign(amplitude)


def test_noise_admixture_preserves_trace_and_lowers_fidelity():
    config = simulate.ExperimentConfig(
        pair_rate=1e4, visibility=0.953, noise_admixture=0.1, seed=0
    )
    chi = config.resolve_choi()
    pure = model.model_choi(0.953)
    assert abs(np.trace(chi).real - np.trace(pure).real) < 1e-12
    f_pure = core.process_fidelity(pure, core.cz_choi())
    f_mixed = core.process_fidelity(chi, core.cz_choi())
    assert f_mixed < f_pure


def test_explicit_choi_overrides_model():
    chi = core.cz_choi() / 9.0
    config = simulate.ExperimentConfig(pair_rate=1e3, choi=chi, seed=0)
    np.testing.assert_allclose(config.resolve_choi(), chi, atol=1e-15)


def test_expected_counts_scaling():
    chi = model.model_choi(0.5)
    table = simulate.expected_counts(chi, pair_rate=100.0)
    np.testing.assert_allclose(table, 100.0 * simulate.outcome_probabilities(chi), atol=1e-12)
    with pytest.raises(ValueError):
        simulate.expected_counts(chi, pair_rate=0.0)


def test_renormalize_counts():
    counts = np.full((36, 36), 100.0)
    refs = np.full(36, 50.0)
    table = simulate.renormalize_counts(counts, refs)
    assert np.all(table == 2.0)
    # uniform references leave all count ratios unchanged
    config = simulate.ExperimentConfig(pair_rate=1e3, visibility=0.5, seed=3)
    table, _ = simulate.simulate_counts(config)
    uniform = simulate.renormalize_counts(table, np.full(36, 7.0))
    np.testing.assert_allclose(uniform, table.counts / 7.0, atol=1e-12)


def test_renormalize_rejects_zero_reference_naming_block():
    counts = np.ones((36, 36))
    refs = np.full(36, 5.0)
    refs[core.pair_index("D", "V")] = 0.0
    with pytest.raises(DegenerateDataError, match="DV"):
        simulate.renormalize_counts(counts, refs)


def test_coincidence_table_validation():
    with pytest.raises(ValueError):
        simulate.CoincidenceTable(np.zeros((6, 6)))
    with pytest.raises(ValueError):
        simulate.CoincidenceTable(np.full((36, 36), -1))
    table = simulate.CoincidenceTable(np.ones((36, 36)))
    assert table.counts.sum() == 1296.0
    # one real-number rule: complex, string and bool arrays are named, never converted
    for bad in (np.ones(36) * (1 + 2j), np.full(36, "5"), np.ones(36, dtype=bool)):
        dtype = re.escape(str(bad.dtype))
        table = np.tile(bad, (36, 1))
        for check in (core.count_table, simulate.CoincidenceTable):
            with pytest.raises(ValueError, match=f"count table must be real numbers, got dtype {dtype}"):
                check(table)
        with pytest.raises(ValueError, match=f"reference counts must be real numbers, got dtype {dtype}"):
            core.reference_values(bad)


@pytest.mark.parametrize("index", range(len(GOLDEN_CONFIGS)))
def test_seeded_dataset_matches_golden_digest(index):
    # Pins datasets across code versions: a change in how probabilities are
    # computed must not change which counts a seed draws.
    v, pair_rate, drift, noise, seed = GOLDEN_CONFIGS[index]
    config = simulate.ExperimentConfig(
        pair_rate=pair_rate,
        visibility=None if v == "cz" else v,
        choi=core.cz_choi() if v == "cz" else None,
        drift=simulate.DriftProfile(*drift),
        seed=seed,
        noise_admixture=noise,
    )
    table, refs = simulate.simulate_counts(config)
    assert digest(table.counts, refs) == GOLDEN_DIGESTS[index]
