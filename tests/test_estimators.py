import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czfid import __version__, core, estimators, model, simulate, tomography
from czfid.exceptions import DegenerateDataError

from conftest import (
    KETS, ORDER, U_CZ, pauli_coefficients, probability_table_bruteforce, proj, q_operator, random_psd_choi,
)
from golden import U_DIGESTS, digest


def test_identity_expansions_resum_to_identity():
    decompositions = {
        "hv": ("H", "V"),
        "da": ("D", "A"),
        "rl": ("R", "L"),
    }
    for labels in decompositions.values():
        total = proj(labels[0]) + proj(labels[1])
        assert np.max(np.abs(total - np.eye(2))) < 1e-14


def test_u_numerator_identity_random_hermitian(rng):
    # sum_jk,lm u p = Tr[chi chi_CZ] for any Hermitian chi, all expansions
    chi_cz = core.cz_choi()
    for _ in range(20):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (a + a.conj().T) / 2.0
        p = probability_table_bruteforce(h)
        target = np.trace(h @ chi_cz).real
        for expansion in estimators.EXPANSIONS:
            u = estimators.u_coefficients(expansion)
            assert abs((u * p).sum() - target) < 1e-10 * max(1.0, abs(target))


def test_u_tables_are_expansion_dependent():
    u_hv = estimators.u_coefficients("hv")
    u_da = estimators.u_coefficients("da")
    u_rl = estimators.u_coefficients("rl")
    assert np.max(np.abs(u_hv - u_da)) > 0.1
    assert np.max(np.abs(u_hv - u_rl)) > 0.1


@pytest.mark.parametrize("expansion", estimators.EXPANSIONS)
def test_u_table_matches_golden_digest(expansion):
    assert digest(estimators.u_coefficients(expansion)) == U_DIGESTS[expansion]


#: sigma_a = sum_j w[a, j] |psi_j><psi_j| over H, V, D, A, R, L, written out: the identity of each
#: expansion, then sigma_1 = D - A, sigma_2 = R - L, sigma_3 = H - V.
IDENTITY_WEIGHTS = {"hv": [1, 1, 0, 0, 0, 0], "da": [0, 0, 1, 1, 0, 0], "rl": [0, 0, 0, 0, 1, 1]}
PAULI_WEIGHTS = [[0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1], [1, -1, 0, 0, 0, 0]]


def test_u_hh_to_hh_entry_per_expansion():
    # every entry resums the CZ Pauli table through the literal weights; preparation slots carry the
    # transposed projectors, sigma_2^T = -sigma_2 = L - R, and every sum is exact
    s = pauli_coefficients(core.cz_choi())
    for expansion in estimators.EXPANSIONS:
        w_out = np.array([IDENTITY_WEIGHTS[expansion], *PAULI_WEIGHTS], dtype=float)
        w_in = w_out * np.array([[1.0], [1.0], [-1.0], [1.0]])
        expected = np.einsum("abcd,aj,bk,cl,dm->jklm", s, w_in, w_in, w_out, w_out).reshape(36, 36)
        assert (estimators.u_coefficients(expansion) == expected).all()
    # only identity/Z Pauli rows reach the HH->HH entry
    hh = core.pair_index("H", "H")
    assert estimators.u_coefficients("hv")[hh, hh] == 1.0
    # the pure sigma_3 x4 contribution (0.25) is common to all expansions
    for expansion in ("da", "rl"):
        assert estimators.u_coefficients(expansion)[hh, hh] == 0.25


def test_u_invalid_expansion():
    with pytest.raises(ValueError):
        estimators.u_coefficients("xy")


@pytest.mark.parametrize("label", [["hv"], np.array("hv"), np.array(["hv"]), None], ids=["list", "0-d", "1-d", "none"])
def test_an_expansion_label_that_is_no_string_is_named(label):
    message = re.escape(f"expansion must be one of {estimators.EXPANSIONS}, got {label!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        estimators.u_coefficients(label)
    table = simulate.expected_counts(model.model_choi(0.9), pair_rate=1e2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        estimators.estimate(table, expansions=[label])


def test_monte_carlo_fidelity_ideal_gate():
    counts = simulate.expected_counts(core.cz_choi(), pair_rate=100.0)
    for expansion in estimators.EXPANSIONS:
        f, df = estimators.monte_carlo_fidelity(counts, expansion)
        assert abs(f - 1.0) < 1e-10


def test_monte_carlo_fidelity_noiseless_model():
    counts = simulate.expected_counts(model.model_choi(0.953), pair_rate=1e4)
    for expansion in estimators.EXPANSIONS:
        f, _ = estimators.monte_carlo_fidelity(counts, expansion)
        assert abs(f - 0.96475) < 1e-10


def test_monte_carlo_single_count_where_u_vanishes():
    u = estimators.u_coefficients("hv")
    zeros = np.argwhere(np.abs(u) < 1e-14)
    assert zeros.size > 0
    counts = np.zeros((36, 36))
    counts[tuple(zeros[0])] = 123.0
    f, sigma = estimators.monte_carlo_fidelity(counts, "hv")
    assert f == 0.0
    assert sigma is None
    assert estimators.monte_carlo_fidelity_renormalized(counts, np.full(36, 50.0), "hv") == (0.0, None)


def test_monte_carlo_rejects_empty_table():
    with pytest.raises(DegenerateDataError, match="^total coincidence count is zero$"):
        estimators.monte_carlo_fidelity(np.zeros((36, 36)), "hv")
    with pytest.raises(DegenerateDataError, match="^total renormalized coincidence count is zero$"):
        estimators.monte_carlo_fidelity_renormalized(np.zeros((36, 36)), np.ones(36), "hv")


def test_estimate_scale_invariance_and_error_scaling():
    table, refs = simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=1e4, visibility=0.5, seed=12)
    )
    c = 4.0
    for expansion in estimators.EXPANSIONS:
        f1, df1 = estimators.monte_carlo_fidelity(table.counts, expansion)
        f2, df2 = estimators.monte_carlo_fidelity(c * table.counts, expansion)
        assert abs(f1 - f2) < 1e-12
        assert abs(df2 - df1 / np.sqrt(c)) < 1e-12
    hof1 = estimators.hofmann_bounds(table.counts)
    hof2 = estimators.hofmann_bounds(c * table.counts)
    assert abs(hof1.f_h - hof2.f_h) < 1e-12
    assert abs(hof1.f_d - hof2.f_d) < 1e-12
    assert abs(hof2.sigma_f_h - hof1.sigma_f_h / np.sqrt(c)) < 1e-12
    assert abs(hof2.sigma_f_d - hof1.sigma_f_d / np.sqrt(c)) < 1e-12


def test_renormalized_equals_plain_for_uniform_references():
    table, _ = simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=1e4, visibility=0.953, seed=9)
    )
    refs = np.full(36, 11.0)
    for expansion in estimators.EXPANSIONS:
        f_plain, _ = estimators.monte_carlo_fidelity(table.counts, expansion)
        f_renorm, _ = estimators.monte_carlo_fidelity_renormalized(table.counts, refs, expansion)
        assert f_plain == pytest.approx(f_renorm, abs=1e-12)


def test_renormalized_requires_references():
    with pytest.raises(ValueError, match="^reference counts must be real numbers, got dtype object$"):
        estimators.monte_carlo_fidelity_renormalized(np.ones((36, 36)), None)


def test_renormalized_rejects_zero_reference():
    table = np.ones((36, 36))
    refs = np.full(36, 3.0)
    refs[core.pair_index("A", "V")] = 0.0
    with pytest.raises(DegenerateDataError, match="AV"):
        estimators.monte_carlo_fidelity_renormalized(table, refs, "hv")


@pytest.mark.parametrize("value, term", [(1e-320, "C/D"), (1e-300, "variance")])
def test_a_reference_too_small_to_divide_by_is_refused_by_name(value, term):
    config = simulate.ExperimentConfig(pair_rate=300, visibility=0.9, seed=3, noise_admixture=0.02)
    table, refs = simulate.simulate_counts(config)
    refs = refs.astype(float)
    refs[core.pair_index("R", "L")] = value
    message = f"^reference count {value!r} for input block \\|RL> is too small to divide by: its {term} is not "
    with pytest.raises(DegenerateDataError, match=message):
        estimators.estimate(table.counts, refs)
    with pytest.raises(DegenerateDataError, match=message):
        estimators.monte_carlo_fidelity_renormalized(table.counts, refs, "hv")
    if term == "C/D":
        with pytest.raises(DegenerateDataError, match=message):
            simulate.renormalize_counts(table.counts, refs)
    else:  # the quotient itself is finite, and exact: only its variance overflows
        renormalized = simulate.renormalize_counts(table.counts, refs)
        assert np.isfinite(renormalized).all()
        assert np.array_equal(renormalized, table.counts / refs[:, None])


def test_renormalized_error_reference_term_is_small_at_scale():
    # at realistic count rates the reference-fluctuation term stays a minor
    # share of the total variance (inflates the error by < 10%)
    drift = simulate.DriftProfile(kind="sinusoidal", amplitude=0.1, period=666.0)
    table, refs = simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=7.1e4, visibility=0.953, seed=7, drift=drift)
    )
    coef = (81.0 / 4.0) * estimators.u_coefficients("hv")
    ct = table.counts / refs[:, None]
    f_mc = (coef * ct).sum() / ct.sum()
    dev = coef - f_mc
    var_c = ((ct / refs[:, None]) * dev**2).sum()
    var_d = (((ct * dev).sum(axis=1)) ** 2 / refs).sum()
    assert var_d / (var_c + var_d) < 0.2
    # and the reported total matches the sum of both terms
    _, df = estimators.monte_carlo_fidelity_renormalized(table.counts, refs, "hv")
    assert abs(df - np.sqrt((var_c + var_d) / ct.sum() ** 2)) < 1e-15


#: Seeded noisy tables with their references: no drift, then three kinds of drift.
RATIO_ORACLE_CONFIGS = [
    simulate.ExperimentConfig(pair_rate=rate, visibility=v, seed=seed, noise_admixture=0.02, drift=drift)
    for seed, (rate, v) in enumerate([(1e3, 0.953), (1e5, 0.5)])
    for drift in (
        simulate.DriftProfile(),
        simulate.DriftProfile(kind="sinusoidal", amplitude=0.3, period=10.0),
        simulate.DriftProfile(kind="random-walk", step=0.05),
        simulate.DriftProfile(kind="linear", amplitude=0.2),
    )
]


@pytest.mark.parametrize("config", RATIO_ORACLE_CONFIGS)
def test_ratio_errors_match_the_per_estimator_formulas(config):
    # each F is the plain ratio to the bit; each sigma is its estimator's binomial or Poisson formula
    table, refs = simulate.simulate_counts(config)
    counts, d = table.counts, refs
    c_tot = counts.sum()
    ct = counts / d[:, None]
    for expansion in estimators.EXPANSIONS:
        coef = (81.0 / 4.0) * estimators.u_coefficients(expansion)
        f_mc = (coef * counts).sum() / c_tot
        sigma = np.sqrt(((counts / c_tot) * (coef - f_mc) ** 2).sum() / c_tot)
        f, s = estimators.monte_carlo_fidelity(counts, expansion)
        assert f == f_mc
        np.testing.assert_allclose(s, sigma, rtol=1e-13)
        f_mc = (coef * ct).sum() / ct.sum()
        dev = coef - f_mc
        var = ((ct / d[:, None]) * dev**2).sum() + ((ct * dev).sum(axis=1) ** 2 / d).sum()
        f, s = estimators.monte_carlo_fidelity_renormalized(counts, d, expansion)
        assert f == f_mc
        np.testing.assert_allclose(s, np.sqrt(var) / ct.sum(), rtol=1e-13)
    blocks = np.array([
        [[counts[core.pair_index(*probe), core.pair_index(*out)] for out in outputs] for probe in inputs]
        for inputs, outputs in zip(estimators.HOFMANN_BASIS_INPUTS, estimators.HOFMANN_BASIS_OUTPUTS)
    ])
    rows, good = blocks.sum(axis=2), np.einsum("kjj->kj", blocks)
    f_k, f_jk = good.sum(axis=1) / rows.sum(axis=1), good / rows
    hof = estimators.hofmann_bounds(counts)
    np.testing.assert_array_equal(hof.weighted_means, f_k)
    np.testing.assert_array_equal(hof.state_fidelities, f_jk)
    sigma_h = np.sqrt((f_k * (1.0 - f_k) / rows.sum(axis=1)).sum())
    np.testing.assert_allclose(hof.sigma_f_h, sigma_h, rtol=1e-13)
    np.testing.assert_allclose(hof.sigma_f_d, np.sqrt((f_jk * (1.0 - f_jk) / rows).sum() / 16.0), rtol=1e-13)


def test_renormalized_error_formula_matches_empirical_spread():
    # the two-term error budget reproduces the seed-to-seed scatter
    values, sigmas = [], []
    for seed in range(120):
        table, refs = simulate.simulate_counts(
            simulate.ExperimentConfig(pair_rate=2e4, visibility=0.953, seed=500 + seed)
        )
        f, s = estimators.monte_carlo_fidelity_renormalized(table.counts, refs, "hv")
        values.append(f)
        sigmas.append(s)
    empirical = np.std(values, ddof=1)
    assert abs(empirical - np.mean(sigmas)) / np.mean(sigmas) < 0.3


def test_hofmann_bounds_noiseless_model():
    counts = simulate.expected_counts(model.model_choi(0.5), pair_rate=1e4)
    hof = estimators.hofmann_bounds(counts)
    assert abs(hof.f_1 - 0.75) < 1e-10
    assert abs(hof.f_2 - 0.75) < 1e-10
    assert abs(hof.f_h - 0.5) < 1e-10
    assert abs(hof.f_d - 0.6) < 1e-10
    assert abs(hof.min_f12 - 0.75) < 1e-10
    np.testing.assert_allclose(hof.rel_success.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(hof.state_fidelities >= 0.0) and np.all(hof.state_fidelities <= 1.0)


def test_hofmann_bounds_perfect_gate():
    counts = simulate.expected_counts(core.cz_choi() / 9.0, pair_rate=900.0)
    hof = estimators.hofmann_bounds(counts)
    for value in (hof.f_1, hof.f_2, hof.f_h, hof.f_d):
        assert abs(value - 1.0) < 1e-12
    # only the 'good' diagonal coincidences survive
    for inputs, outputs in zip(estimators.HOFMANN_BASIS_INPUTS, estimators.HOFMANN_BASIS_OUTPUTS):
        rows = [core.pair_index(*probe) for probe in inputs]
        cols = [core.pair_index(*probe) for probe in outputs]
        block = counts[np.ix_(rows, cols)]
        assert np.max(np.abs(block - np.diag(np.diag(block)))) < 1e-9


def test_hofmann_negative_lower_bound_is_reported():
    # anti-aligned data: all coincidences land on wrong outputs
    counts = np.zeros((36, 36))
    for k in range(2):
        inputs = estimators.HOFMANN_BASIS_INPUTS[k]
        outputs = estimators.HOFMANN_BASIS_OUTPUTS[k]
        for j, probe in enumerate(inputs):
            wrong = outputs[(j + 1) % 4]
            counts[core.pair_index(probe[0], probe[1]), core.pair_index(wrong[0], wrong[1])] = 50.0
    hof = estimators.hofmann_bounds(counts)
    assert hof.f_1 == 0.0 and hof.f_2 == 0.0
    assert hof.f_h == -1.0


#: A 100-pair table whose two F_k and eight f_jk all come out 1: F_H = F_D = 1 with a
#: Poisson sigma of 0, while F_chi of the simulating process is about 0.946.
ZERO_SIGMA_CONFIG = {"pair_rate": 100, "visibility": 0.953, "noise_admixture": 0.02, "seed": 1075}


def test_hofmann_zero_sigma_is_null_with_a_reason():
    table, _ = simulate.simulate_counts(simulate.ExperimentConfig(**ZERO_SIGMA_CONFIG))
    hof = estimators.hofmann_bounds(table)
    assert (hof.f_h, hof.f_d) == (1.0, 1.0)
    assert (hof.sigma_f_h, hof.sigma_f_d) == (None, None)
    # F_D alone: input |DH> sends its good counts to |AV>, so every f_jk is 0 or 1,
    # while F_1 = 3/4 keeps a Poisson sigma
    counts = simulate.expected_counts(core.cz_choi() / 9.0, pair_rate=900.0)
    dh = core.pair_index("D", "H")
    counts[dh, core.pair_index("A", "V")], counts[dh, dh] = counts[dh, dh], 0.0
    hof = estimators.hofmann_bounds(counts)
    assert hof.f_1 == 0.75 and hof.sigma_f_h > 0.0
    assert hof.sigma_f_d is None
    hof = estimators.hofmann_bounds(simulate.expected_counts(model.model_choi(0.5), 1e4))
    assert hof.sigma_f_h > 0.0 and hof.sigma_f_d > 0.0


def test_hofmann_zero_row_sum_names_probe():
    counts = simulate.expected_counts(model.model_choi(0.9), pair_rate=100.0)
    for col_probe in estimators.HOFMANN_BASIS_OUTPUTS[0]:
        counts[core.pair_index("D", "V"), core.pair_index(col_probe[0], col_probe[1])] = 0.0
    with pytest.raises(DegenerateDataError, match="DV"):
        estimators.hofmann_bounds(counts)
    # one empty row in each basis: |HD> comes first in the table, |AV> in (basis, input) order
    counts = simulate.expected_counts(model.model_choi(0.9), pair_rate=100.0)
    for probe, outputs in (("AV", estimators.HOFMANN_BASIS_OUTPUTS[0]), ("HD", estimators.HOFMANN_BASIS_OUTPUTS[1])):
        for col_probe in outputs:
            counts[core.pair_index(*probe), core.pair_index(*col_probe)] = 0.0
    with pytest.raises(DegenerateDataError, match=r"^row sum for probe \|AV> \(basis 1\) is zero$"):
        estimators.hofmann_bounds(counts)


def test_hofmann_sandwich_noiseless_grid():
    chi_cz = core.cz_choi()
    for v in np.linspace(0.0, 1.0, 21):
        counts = simulate.expected_counts(model.model_choi(v), pair_rate=1e3)
        hof = estimators.hofmann_bounds(counts)
        f_chi = model.model_fidelity(v)
        assert hof.f_h <= f_chi + 1e-10
        assert f_chi <= hof.min_f12 + 1e-10
        assert abs(hof.min_f12 - (1.0 + v) / 2.0) < 1e-10
        if v < 1.0 / 3.0 - 1e-9:
            assert hof.f_d > f_chi


def test_bound_gap_decomposition_identity_and_values():
    for v in (0.0, 0.25, 0.5, 0.81, 1.0):
        counts = simulate.expected_counts(model.model_choi(v), pair_rate=1e3)
        hof = estimators.hofmann_bounds(counts)
        term = estimators.bound_gap_decomposition(hof)
        weighted_sum = hof.f_1 + hof.f_2
        plain_sum = float(hof.plain_means.sum())
        assert abs(weighted_sum - plain_sum - term) < 1e-10
        assert abs((hof.f_d - hof.f_h) - (1.0 - v) ** 2 / (3.0 - v)) < 1e-10
    counts = simulate.expected_counts(model.model_choi(1.0), pair_rate=1e3)
    assert abs(estimators.bound_gap_decomposition(estimators.hofmann_bounds(counts))) < 1e-12
    counts = simulate.expected_counts(model.model_choi(0.0), pair_rate=1e3)
    assert abs(estimators.bound_gap_decomposition(estimators.hofmann_bounds(counts)) + 1.0 / 3.0) < 1e-10


def test_hofmann_output_table_is_the_cz_action():
    # the one input -> output table both F_H and its certificate read, against the literal U_CZ
    pairs = [
        (probe_in, probe_out)
        for inputs, outputs in zip(estimators.HOFMANN_BASIS_INPUTS, estimators.HOFMANN_BASIS_OUTPUTS)
        for probe_in, probe_out in zip(inputs, outputs)
    ]
    assert len(pairs) == 8
    for probe_in, probe_out in pairs:
        ket_out = np.kron(KETS[probe_out[0]], KETS[probe_out[1]])
        image = U_CZ @ np.kron(KETS[probe_in[0]], KETS[probe_in[1]])
        overlap = ket_out.conj() @ image
        assert abs(abs(overlap) - 1.0) < 1e-12 and abs(overlap.imag) < 1e-12, (probe_in, probe_out)
        np.testing.assert_allclose(image, overlap.real * ket_out, atol=1e-12)


def test_q_operator_positivity_and_traces():
    assert np.linalg.eigvalsh(q_operator())[0] >= -1e-10
    # per-basis operators built independently from literal projectors and U_CZ
    expected = core.cz_choi() / 4.0 + np.eye(16)
    for basis in estimators.HOFMANN_BASIS_INPUTS:
        q_k = np.zeros((16, 16), dtype=complex)
        for probe in basis:
            omega = np.kron(proj(probe[0]), proj(probe[1]))
            q_k += np.kron(omega.T, U_CZ @ omega @ U_CZ.conj().T)
        assert abs(np.trace(q_k).real - 4.0) < 1e-12
        expected -= q_k
    np.testing.assert_allclose(q_operator(), expected, rtol=0, atol=1e-12)


def test_q_operator_expectation_nonnegative_on_random_psd(rng):
    q = q_operator()
    for _ in range(50):
        chi = random_psd_choi(rng)
        value = np.trace(q @ chi).real / np.trace(chi).real
        assert value >= -1e-9


def test_estimator_agreement_on_noiseless_data(rng):
    chi_cz = core.cz_choi()
    settings = tomography.MaxLikSettings(stop_threshold=1e-7)
    for _ in range(3):
        chi = random_psd_choi(rng, mix=1e-4)
        counts = simulate.expected_counts(chi, pair_rate=1e4 / np.trace(chi).real)
        direct = core.process_fidelity(chi, chi_cz)
        values = [estimators.monte_carlo_fidelity(counts, e)[0] for e in estimators.EXPANSIONS]
        values.append(
            estimators.monte_carlo_fidelity_renormalized(counts, np.full(36, 2.0), "hv")[0]
        )
        values.append(
            core.process_fidelity(tomography.maxlik_reconstruct(counts, settings=settings).chi, chi_cz)
        )
        for value in values:
            assert abs(value - direct) < 1e-4


def test_uncertainty_tracks_empirical_spread_quick():
    # reduced-size version of the full calibration in the acceptance suite
    values, sigmas = [], []
    for seed in range(60):
        table, _ = simulate.simulate_counts(
            simulate.ExperimentConfig(pair_rate=2e4, visibility=0.5, seed=100 + seed)
        )
        f, s = estimators.monte_carlo_fidelity(table.counts, "da")
        values.append(f)
        sigmas.append(s)
    empirical = np.std(values, ddof=1)
    assert abs(empirical - np.mean(sigmas)) / np.mean(sigmas) < 0.35


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_counts_are_rejected_by_name(bad):
    table = simulate.expected_counts(model.model_choi(0.8), pair_rate=1e3)
    table[0, 0] = bad
    refs = np.full(36, 10.0)
    for estimate in (
        estimators.estimate,
        tomography.maxlik_reconstruct,
        estimators.monte_carlo_fidelity,
        estimators.hofmann_bounds,
        lambda t: estimators.monte_carlo_fidelity_renormalized(t, refs),
    ):
        with pytest.raises(ValueError, match="non-finite counts"):
            estimate(table)


def test_counts_at_the_bound_fit_cleanly():
    # 2**53 is the largest count accepted; RuntimeWarnings fail the suite
    report = estimators.estimate(np.full((36, 36), 2.0**53))
    assert report.reconstruction.converged and abs(report.f_chi - 1.0 / 16.0) < 1e-12
    table = simulate.expected_counts(model.model_choi(0.9), pair_rate=1.0)
    report = estimators.estimate(table * (2.0**53 / table.max()), bootstrap=3)
    assert report.reconstruction.converged and abs(report.f_chi - model.model_fidelity(0.9)) < 1e-4
    assert np.isfinite(report.f_chi_sigma)


def test_estimate_reports_the_individual_estimators():
    drift = simulate.DriftProfile(kind="sinusoidal", amplitude=0.1, period=666.0)
    table, refs = simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=1e4, visibility=0.953, seed=31, drift=drift)
    )
    ml = tomography.MaxLikSettings(stop_threshold=1e-6)
    report = estimators.estimate(
        table, refs, expansions=("da", "rl", "hv"), bootstrap=3, seed=5, settings=ml
    )
    fit = tomography.maxlik_reconstruct(table.counts, settings=ml)
    np.testing.assert_array_equal(report.reconstruction.chi, fit.chi)
    assert report.f_chi == core.process_fidelity(fit.chi, core.cz_choi())
    assert report.f_chi_sigma == tomography.bootstrap_fidelity_uncertainty(
        fit.chi, table.counts.sum(), n_runs=3, seed=5, settings=ml
    ).sigma
    assert list(report.f_mc) == list(report.f_mc_renormalized) == ["da", "rl", "hv"]
    for label in estimators.EXPANSIONS:
        assert report.f_mc[label] == estimators.monte_carlo_fidelity(table.counts, label)
        assert report.f_mc_renormalized[label] == (
            estimators.monte_carlo_fidelity_renormalized(table.counts, refs, label)
        )
    hof = estimators.hofmann_bounds(table.counts)
    np.testing.assert_array_equal(report.hofmann.weighted_means, hof.weighted_means)
    assert (report.hofmann.f_h, report.hofmann.f_d) == (hof.f_h, hof.f_d)
    assert report.as_dict()["hofmann"]["gap_term"] == estimators.bound_gap_decomposition(hof)
    assert report.provenance == {"expansions": ["da", "rl", "hv"], "bootstrap_runs": 3, "bootstrap_seed": 5,
                                 "czfid_version": __version__, "numpy_version": np.__version__}

    plain = estimators.estimate(table)
    assert plain.f_chi_sigma is None and plain.f_mc_renormalized is None
    assert list(plain.f_mc) == list(estimators.EXPANSIONS)
    # no expansion asked for: the references (here all zero) are checked, but never divided by
    bare = estimators.estimate(table, np.zeros(36), expansions=())
    assert bare.f_mc == bare.f_mc_renormalized == {} and bare.provenance["expansions"] == []
    for junk in (np.full(36, -5.0), "junk"):
        with pytest.raises(ValueError, match="^reference counts "):
            estimators.estimate(table, junk, expansions=())


@pytest.mark.parametrize("options", [
    pytest.param({"bootstrap": 2.5}, id="fractional-runs"),
    pytest.param({"bootstrap": "3"}, id="string-runs"),
    pytest.param({"bootstrap": float("nan")}, id="nan-runs"),
    pytest.param({"bootstrap": True}, id="bool-runs"),
    pytest.param({"bootstrap": 3, "seed": 1.5}, id="fractional-seed"),
])
def test_estimate_rejects_a_non_integer_resample_count_or_seed(options):
    table = simulate.expected_counts(model.model_choi(0.9), pair_rate=1e2)
    with pytest.raises(ValueError, match=r"^bootstrap (seed )?must be a nonnegative .*, got "):
        estimators.estimate(table, **options)


@pytest.mark.parametrize("expansions", ["hv", "h", ""])
def test_estimate_names_an_expansions_string_whole(expansions):
    table = simulate.expected_counts(model.model_choi(0.9), pair_rate=1e2)
    with pytest.raises(ValueError, match=re.escape(
        f"expansions must be a sequence of labels, not a string, got {expansions!r}"
    )):
        estimators.estimate(table, expansions=expansions)


def test_estimate_names_bad_expansions_and_references_before_any_fit(monkeypatch):
    table = simulate.expected_counts(model.model_choi(0.9), pair_rate=1e2)

    def no_fit(*args, **kwargs):
        raise AssertionError("an ML fit ran before every input was checked")

    monkeypatch.setattr(tomography, "_rchir", no_fit)
    with pytest.raises(ValueError, match=re.escape(f"expansion must be one of {estimators.EXPANSIONS}, got 'xx'")):
        estimators.estimate(table, expansions=["xx"], bootstrap=100)
    with pytest.raises(ValueError, match="^reference counts has 36 non-finite counts$"):
        estimators.estimate(table, np.full(36, np.nan), bootstrap=100)


def test_each_public_door_checks_each_input_once(monkeypatch):
    visibility_config = simulate.ExperimentConfig(pair_rate=1e4, visibility=0.953, seed=1)
    chi = model.model_choi(0.953)
    choi_config = simulate.ExperimentConfig(pair_rate=1e4, choi=chi, seed=1)
    table, refs = simulate.simulate_counts(visibility_config)
    calls = Counter()
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "czfid"]
    for name in ("_checked_counts", "finite_matrix"):
        check = getattr(core, name)

        def recorded(*args, _name=name, _check=check, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)

        for module in modules:  # every module that binds the check, so no caller escapes the count
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, recorded)

    def checks(door, *args, **kwargs):
        calls.clear()
        door(*args, **kwargs)
        return calls["_checked_counts"], calls["finite_matrix"]

    # the table and the references at the door, and the table again in maxlik_reconstruct
    assert checks(estimators.estimate, table, refs) == (3, 0)
    # chi_hat once, in bootstrap_fidelity_uncertainty; no resample fit or fidelity checks again
    assert checks(estimators.estimate, table, refs, bootstrap=100) == (3, 1)
    assert checks(estimators.monte_carlo_fidelity_renormalized, table, refs) == (2, 0)
    # a config checks its choi once, when it is built, and simulate_counts checks no matrix again;
    # its one count check is the CoincidenceTable it builds from the draw
    assert checks(simulate.ExperimentConfig, pair_rate=1e4, choi=chi, seed=1) == (0, 1)
    assert checks(simulate.simulate_counts, choi_config) == (1, 0)
    assert checks(simulate.simulate_counts, visibility_config) == (1, 0)


#: Each example runs one or two ML reconstructions.
PROPERTY_SETTINGS = settings(max_examples=20, deadline=None)


@PROPERTY_SETTINGS
@given(
    v=st.floats(0.0, 1.0),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_is_invariant_under_count_rescaling(v, scale, seed):
    table, _ = simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=1e3, visibility=v, seed=seed)
    )
    plain = estimators.estimate(table)
    scaled = estimators.estimate(scale * table.counts)
    assert scaled.f_chi == pytest.approx(plain.f_chi, abs=1e-9)
    for label in estimators.EXPANSIONS:
        assert scaled.f_mc[label][0] == pytest.approx(plain.f_mc[label][0], abs=1e-9)
    assert (scaled.hofmann is None) == (plain.hofmann is None)
    if plain.hofmann is not None:
        assert scaled.hofmann.f_h == pytest.approx(plain.hofmann.f_h, abs=1e-9)
        assert scaled.hofmann.f_d == pytest.approx(plain.hofmann.f_d, abs=1e-9)


@PROPERTY_SETTINGS
@given(v=st.floats(0.0, 1.0), pair_rate=st.floats(1.0, 1e6))
def test_estimate_bounds_sandwich_fidelity_on_model_data(v, pair_rate):
    # F_H <= F_chi <= min(F1, F2), up to the ML convergence error (about
    # the stopping threshold)
    counts = simulate.expected_counts(model.model_choi(v), pair_rate=pair_rate)
    report = estimators.estimate(
        counts, settings=tomography.MaxLikSettings(stop_threshold=1e-9)
    )
    slack = 1e-8
    assert report.hofmann.f_h - slack <= report.f_chi <= report.hofmann.min_f12 + slack
