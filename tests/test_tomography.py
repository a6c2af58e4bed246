import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from czfid import core, model, simulate, tomography
from czfid.exceptions import DegenerateDataError

from conftest import ORDER, povm_element, python, random_psd_choi, rchir_step_diagnostics
from golden import GOLDEN_SIGMA, NOISY_F_REF, NOISY_LOGLIK_REF, NOISY_SIGMA


def test_r_operator_matches_bruteforce(rng):
    chi = random_psd_choi(rng, mix=0.05)
    chi /= np.trace(chi).real
    counts = rng.poisson(1e3 * np.clip(core.measurement_map(chi), 0, None)).astype(float)
    r = tomography.r_operator(chi, counts)
    p = core.measurement_map(chi)
    expected = np.zeros((16, 16), dtype=complex)
    for n, (j, k) in enumerate((a, b) for a in ORDER for b in ORDER):
        for m, (l, mm) in enumerate((a, b) for a in ORDER for b in ORDER):
            if counts[n, m] > 0:
                expected += counts[n, m] / p[n, m] * povm_element(j, k, l, mm)
    np.testing.assert_allclose(r, expected, atol=1e-8)


def test_r_operator_extremal_equation_at_truth(rng):
    # exact expected counts of chi itself satisfy R chi = lambda chi
    for chi in (model.model_choi(0.85), random_psd_choi(rng, mix=0.1)):
        scale = 3000.0
        counts = scale * simulate.outcome_probabilities(chi)
        r = tomography.r_operator(chi, counts)
        lam = counts.sum() / np.trace(chi).real
        lhs = r @ chi
        rhs = lam * chi
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-8


def test_r_operator_zero_counts_and_hermiticity(rng):
    chi = np.eye(16, dtype=complex) / 16.0
    assert np.max(np.abs(tomography.r_operator(chi, np.zeros((36, 36))))) == 0.0
    counts = rng.poisson(50.0, size=(36, 36)).astype(float)
    r = tomography.r_operator(chi, counts)
    assert np.max(np.abs(r - r.conj().T)) < 1e-12


def test_r_operator_probability_floor_keeps_terms_finite():
    # rank-1 iterate assigns p = 0 to some measured outcomes
    chi = core.cz_choi() / 4.0
    counts = np.ones((36, 36))
    r = tomography.r_operator(chi, counts)
    assert np.all(np.isfinite(r))


def test_r_operator_rejects_a_malformed_iterate():
    with pytest.raises(ValueError, match=r"expected a 16x16 process matrix, got shape \(3, 3\)"):
        tomography.r_operator(np.eye(3), np.ones((36, 36)))
    with pytest.raises(ValueError, match="^process matrix must have positive trace$"):
        tomography.r_operator(np.zeros((16, 16)), np.ones((36, 36)))


def test_maxlik_recovers_ideal_gate_from_exact_counts():
    counts = simulate.expected_counts(core.cz_choi() / 9.0, pair_rate=1e6 / 36.0)
    settings = tomography.MaxLikSettings(stop_threshold=1e-8)
    result = tomography.maxlik_reconstruct(counts, settings=settings)
    assert result.converged
    assert abs(core.process_fidelity(result.chi, core.cz_choi()) - 1.0) < 1e-6


def test_maxlik_noiseless_pipeline_recovers_model_fidelity():
    # exact expected counts stand in for the infinite-statistics limit
    settings = tomography.MaxLikSettings(stop_threshold=1e-8)
    for v in (0.25, 0.953):
        counts = simulate.expected_counts(model.model_choi(v), pair_rate=1e4)
        result = tomography.maxlik_reconstruct(counts, settings=settings)
        f = core.process_fidelity(result.chi, core.cz_choi())
        assert abs(f - model.model_fidelity(v)) < 1e-6


def test_maxlik_on_simulated_data_within_bootstrap_band():
    config = simulate.ExperimentConfig(pair_rate=1e4, visibility=0.5, seed=8)
    table, _ = simulate.simulate_counts(config)
    result = tomography.maxlik_reconstruct(table.counts)
    f = core.process_fidelity(result.chi, core.cz_choi())
    sigma = tomography.bootstrap_fidelity_uncertainty(result.chi, table.total, n_runs=50, seed=1).sigma
    assert abs(f - 0.625) < 3.0 * sigma


def test_maxlik_zero_iterations_returns_maximally_mixed_start():
    config = simulate.ExperimentConfig(pair_rate=1e3, visibility=0.6, seed=17)
    table, _ = simulate.simulate_counts(config)
    settings = tomography.MaxLikSettings(max_iterations=0)
    result = tomography.maxlik_reconstruct(table.counts, settings=settings)
    assert result.iterations == 0
    assert not result.converged
    np.testing.assert_allclose(result.chi, np.eye(16) / 16.0, atol=1e-15)
    # maximally mixed process matrix overlaps the rank-1 CZ projector at 1/16
    assert abs(core.process_fidelity(result.chi, core.cz_choi()) - 1.0 / 16.0) < 1e-12


def test_maxlik_uniform_counts_fix_the_maximally_mixed_point():
    # flat data make I/16 the exact maximum-likelihood solution
    result = tomography.maxlik_reconstruct(np.ones((36, 36)))
    assert result.converged and result.iterations == 0
    np.testing.assert_allclose(result.chi, np.eye(16) / 16.0, atol=1e-15)


def test_maxlik_monotone_loglikelihood_and_trace(rchir_steps):
    config = simulate.ExperimentConfig(pair_rate=1e4, visibility=0.953, seed=21)
    table, _ = simulate.simulate_counts(config)
    result = tomography.maxlik_reconstruct(table.counts)
    residuals, logliks = rchir_step_diagnostics(table.counts, rchir_steps, result)
    assert np.all(np.diff(logliks) > -1e-9)
    assert abs(np.trace(result.chi).real - 1.0) < 1e-12
    assert np.all(np.diff(residuals)[-5:] < 0)  # settling near the fixed point


def test_maxlik_preserves_positivity_every_iteration(rchir_steps):
    config = simulate.ExperimentConfig(pair_rate=1e4, visibility=0.022, seed=13)
    table, _ = simulate.simulate_counts(config)
    result = tomography.maxlik_reconstruct(table.counts)
    rchir_step_diagnostics(table.counts, rchir_steps, result)
    assert min(np.linalg.eigvalsh(chi)[0] for chi, _ in rchir_steps) >= -1e-10
    assert result.min_eigenvalue >= -1e-10


def test_maxlik_fixed_point_full_rank(rng):
    chi_star = random_psd_choi(rng, mix=1e-6)
    chi_star /= np.trace(chi_star).real
    counts = simulate.expected_counts(chi_star, pair_rate=1e5)
    settings = tomography.MaxLikSettings(stop_threshold=1e-7)
    result = tomography.maxlik_reconstruct(counts, settings=settings)
    assert np.max(np.abs(result.chi - chi_star)) < 1e-4


def test_maxlik_accepts_real_valued_tables():
    config = simulate.ExperimentConfig(pair_rate=1e4, visibility=0.5, seed=2)
    table, refs = simulate.simulate_counts(config)
    renorm = simulate.renormalize_counts(table, refs)
    result = tomography.maxlik_reconstruct(renorm)
    assert result.converged
    f = core.process_fidelity(result.chi, core.cz_choi())
    assert abs(f - 0.625) < 0.02


def test_maxlik_rejects_all_zero_counts():
    with pytest.raises(DegenerateDataError):
        tomography.maxlik_reconstruct(np.zeros((36, 36)))


def test_maxlik_rejects_totals_below_the_underflow_bound():
    # equal cells summing to 1, built without a BLAS call, so the scaled total
    # and the message below have the same bits on every BLAS kernel
    table = np.zeros((36, 36))
    table.flat[:1024] = 1.0 / 1024
    assert tomography.maxlik_reconstruct(table * 1e-99).converged
    with pytest.raises(DegenerateDataError, match=r"below 1e-100, got 1\.0+\d*e-101"):
        tomography.maxlik_reconstruct(table * 1e-101)


def test_maxlik_iteration_budget_returns_flagged_result():
    config = simulate.ExperimentConfig(pair_rate=1e4, visibility=0.5, seed=4)
    table, _ = simulate.simulate_counts(config)
    settings = tomography.MaxLikSettings(max_iterations=3)
    result = tomography.maxlik_reconstruct(table.counts, settings=settings)
    assert not result.converged
    assert result.iterations == 3
    assert np.isfinite(result.final_residual)


def test_settings_validation():
    with pytest.raises(ValueError):
        tomography.MaxLikSettings(stop_threshold=0.0)
    with pytest.raises(ValueError):
        tomography.MaxLikSettings(max_iterations=-1)
    with pytest.raises(ValueError, match="stop_threshold must be positive and finite"):
        tomography.MaxLikSettings(stop_threshold=np.inf)
    for threshold in (True, "1e-5"):
        with pytest.raises(ValueError, match=f"^stop_threshold must be positive and finite, got {threshold!r}$"):
            tomography.MaxLikSettings(stop_threshold=threshold)
    assert type(tomography.MaxLikSettings(stop_threshold=np.float32(0.5)).stop_threshold) is float
    for budget in (np.nan, 2.5, True, "5"):
        with pytest.raises(ValueError, match="^max_iterations must be a nonnegative integer, got "):
            tomography.MaxLikSettings(max_iterations=budget)
    settings = tomography.MaxLikSettings(max_iterations=np.int64(5))
    assert settings.max_iterations == 5 and type(settings.max_iterations) is int


def test_bootstrap_sigma_shrinks_with_counts():
    config = simulate.ExperimentConfig(pair_rate=1e4, visibility=0.953, seed=6)
    table, _ = simulate.simulate_counts(config)
    result = tomography.maxlik_reconstruct(table.counts)
    sigma_1 = tomography.bootstrap_fidelity_uncertainty(result.chi, table.total, n_runs=40, seed=3).sigma
    sigma_4 = tomography.bootstrap_fidelity_uncertainty(result.chi, 4 * table.total, n_runs=40, seed=3).sigma
    ratio = sigma_1 / sigma_4
    assert 2.0 * 0.7 < ratio < 2.0 * 1.3


def test_bootstrap_degenerate_and_invalid_runs():
    chi = model.model_choi(0.8)
    sigma = tomography.bootstrap_fidelity_uncertainty(chi, 1e5, n_runs=2, seed=0).sigma
    assert np.isfinite(sigma) and sigma >= 0.0
    with pytest.raises(ValueError):
        tomography.bootstrap_fidelity_uncertainty(chi, 1e5, n_runs=1)
    with pytest.raises(ValueError):
        tomography.bootstrap_fidelity_uncertainty(chi, 0.0)
    for c_tot in (np.inf, True, "1e4"):
        with pytest.raises(ValueError, match=f"^c_tot must be positive and finite, got {c_tot!r}$"):
            tomography.bootstrap_fidelity_uncertainty(chi, c_tot)
    with pytest.raises(ValueError, match="^process matrix must have positive trace$"):
        tomography.bootstrap_fidelity_uncertainty(np.zeros((16, 16)), 1e4)
    for runs in (2.5, "3", np.nan, True):
        with pytest.raises(ValueError, match="^need an integer of at least 2 bootstrap runs, got "):
            tomography.bootstrap_fidelity_uncertainty(chi, 1e5, n_runs=runs)
    for seed in (1.5, -1, "0"):
        with pytest.raises(ValueError, match="^bootstrap seed must be a nonnegative integer, got "):
            tomography.bootstrap_fidelity_uncertainty(chi, 1e5, n_runs=2, seed=seed)
    numpy_ints = tomography.bootstrap_fidelity_uncertainty(chi, 1e5, n_runs=np.int64(2), seed=np.uint8(0))
    assert numpy_ints.sigma == sigma


@pytest.mark.parametrize("threshold", [1e-3, 1e-5, 1e-7])
def test_gap_bound_covers_the_true_gap_at_a_known_optimum(rng, threshold):
    # the exact expected counts of a full-rank chi have their ML point at chi, so L* is exact
    chi_star = random_psd_choi(rng)
    chi_star /= np.trace(chi_star).real
    counts = simulate.expected_counts(chi_star, pair_rate=1e4)
    l_star = float(np.sum(counts * np.log(simulate.outcome_probabilities(chi_star))) - counts.sum())
    fit = tomography.maxlik_reconstruct(counts, tomography.MaxLikSettings(stop_threshold=threshold))
    assert fit.converged
    assert fit.gap_bound >= l_star - fit.log_likelihood >= 0.0


def _noisy_1e6_v0():
    """A table whose default fit stops far below the likelihood maximum."""
    config = simulate.ExperimentConfig(pair_rate=1e6, visibility=0.0, seed=7, noise_admixture=0.02)
    return simulate.simulate_counts(config)[0].counts


def test_gap_bound_covers_the_default_fits_gap_on_a_noisy_table():
    fit = tomography.maxlik_reconstruct(_noisy_1e6_v0())
    assert fit.converged
    # the reference L is at most L*, so a valid bound must exceed this gap
    assert fit.gap_bound >= NOISY_LOGLIK_REF - fit.log_likelihood > 0.0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the default stop rule leaves F_chi 4.3 sigma from the optimum at 1e6 pairs",
)
def test_default_fit_fidelity_is_within_a_tenth_sigma_of_the_optimum():
    fit = tomography.maxlik_reconstruct(_noisy_1e6_v0())
    assert abs(core.process_fidelity(fit.chi, core.cz_choi()) - NOISY_F_REF) <= NOISY_SIGMA / 10


def _assert_same_fit(batched, alone):
    for name in (f.name for f in dataclasses.fields(tomography.ReconstructionResult)):
        a, b = getattr(batched, name), getattr(alone, name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, name


def _mixed_stack():
    """Tables that stop at different iterations, for different reasons."""
    gate = simulate.expected_counts(model.model_choi(0.953), pair_rate=1e4)
    noisy = simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=100.0, visibility=0.953, seed=1, noise_admixture=0.02)
    )[0].counts
    # a stray count where the ideal gate gives p = 0 drives that p below the floor
    guarded = simulate.expected_counts(core.cz_choi() / 4.0, pair_rate=1e14)
    guarded[tuple(np.argwhere(guarded == 0)[0])] = 1.0
    slow = simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=1e4, visibility=0.953, seed=11, noise_admixture=0.02)
    )[0].counts
    return [gate, noisy, guarded, slow]


def test_the_step_oracle_follows_a_fit_whose_p_hits_the_floor(rchir_steps):
    # r_operator floors p as the loop does, so the oracle gives the loop's own residual on every step
    guarded = _mixed_stack()[2]
    fit = tomography.maxlik_reconstruct(guarded, tomography.MaxLikSettings(stop_threshold=1e-8))
    assert (fit.guard_activations, fit.iterations, fit.gap_bound) == (2, 48, None)
    rchir_step_diagnostics(guarded, rchir_steps, fit)


def test_batch_matches_one_table_at_a_time():
    settings = tomography.MaxLikSettings(stop_threshold=1e-8, max_iterations=600)
    tables = _mixed_stack()
    alone = [tomography.maxlik_reconstruct(table, settings) for table in tables]
    assert [fit.converged for fit in alone] == [True, True, True, False]
    assert alone[2].guard_activations > 0 and alone[3].iterations == 600
    # the guarded table stops on an R built from a floored p, which certifies nothing
    assert [fit.gap_bound is None for fit in alone] == [False, False, True, False]
    assert len({fit.iterations for fit in alone}) == 4
    # the second stack repeats the noisy table last: its two copies stop on one iteration, on
    # either side of the slow table, so compaction drops two rows at once and moves the survivor
    for stack, fits in ((tables, alone), (tables + [tables[1]], alone + [alone[1]])):
        batched = tomography.maxlik_reconstruct_batch(stack, settings)
        for fit_b, fit_a in zip(batched, fits, strict=True):
            _assert_same_fit(fit_b, fit_a)


def test_a_fit_never_writes_into_the_callers_float64_tables():
    # count_table hands a float64 table to the loop as it is, and the loop compacts its
    # stack each time one of these four tables stops
    settings = tomography.MaxLikSettings(stop_threshold=1e-8, max_iterations=600)
    tables = [table.astype(float) for table in _mixed_stack()]
    stacked = np.stack(tables)
    before = stacked.copy()
    fits = tomography.maxlik_reconstruct_batch(tables, settings) + [
        tomography.maxlik_reconstruct(table, settings) for table in tables]
    fits += tomography.maxlik_reconstruct_batch(stacked, settings)
    assert len({fit.iterations for fit in fits}) == 4
    assert np.array_equal(stacked, before)
    assert all(np.array_equal(table, table_before) for table, table_before in zip(tables, before))


#: Minor page faults a warm fit of a 16-table stack may take.  The loop writes into one
#: workspace per fit (270 pages for 16 tables; a warm fit took 150-190 faults); a loop
#: that allocates its temporaries on every iteration took about 22 faults per iteration
#: (6.5k for these 300) on Linux/glibc.
WARM_FIT_FAULTS = 1000


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults as Linux's getrusage reports them")
def test_a_warm_stack_fit_does_not_churn_the_heap():
    # in a fresh interpreter, so the allocator's state does not depend on the tests run before
    code = """if True:
        import resource
        import numpy as np
        from czfid import model, simulate, tomography
        mu = simulate.expected_counts(model.model_choi(0.953), pair_rate=1e4)
        tables = np.stack([np.random.default_rng(seed).poisson(mu) for seed in range(16)]).astype(float)
        settings = tomography.MaxLikSettings(stop_threshold=1e-300, max_iterations=300)
        tomography._rchir(tables, settings)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fits = tomography._rchir(tables, settings)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, sum(fit.iterations for fit in fits))
    """
    faults, iterations = map(int, python(code).split())
    assert iterations == 16 * 300
    assert faults < WARM_FIT_FAULTS


def test_batch_rejects_an_empty_table_by_position():
    tables = [np.ones((36, 36)), np.zeros((36, 36))]
    with pytest.raises(DegenerateDataError, match="in table 1"):
        tomography.maxlik_reconstruct_batch(tables)
    with pytest.raises(ValueError, match="shape"):
        tomography.maxlik_reconstruct_batch([np.ones((36, 36)), np.ones((6, 6))])
    with pytest.raises(ValueError, match="^need at least one count table to fit$"):
        tomography.maxlik_reconstruct_batch([])


def _bootstrap_v0953():
    drift = simulate.DriftProfile(kind="sinusoidal", amplitude=0.1, period=666.0)
    table, _ = simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=1e4, visibility=0.953, seed=42, drift=drift)
    )
    return tomography.maxlik_reconstruct(table.counts).chi, table.total


@pytest.mark.parametrize("block", [1, 7])
def test_bootstrap_does_not_depend_on_block_size(monkeypatch, block):
    chi, total = _bootstrap_v0953()
    default = tomography.bootstrap_fidelity_uncertainty(chi, total, n_runs=20, seed=4)
    monkeypatch.setattr(tomography, "BOOTSTRAP_BLOCK", block)
    blocked = tomography.bootstrap_fidelity_uncertainty(chi, total, n_runs=20, seed=4)
    assert blocked.sigma == default.sigma
    assert np.array_equal(blocked.fidelities, default.fidelities)
    assert blocked.nonconverged == default.nonconverged == 0
    assert blocked.max_gap_bound == default.max_gap_bound > 0.0


#: Largest rise of the bootstrap's traced peak from 64 to 256 resamples.  It
#: holds one block's fits at a time, and per resample only its fidelity and gap
#: bound (about 20 KiB for the 192 more); keeping every fit and stream took 0.9 MB.
BOOTSTRAP_PEAK_RISE = 128 * 1024


def test_bootstrap_peak_memory_does_not_grow_with_the_resample_count():
    chi, settings = model.model_choi(0.953), tomography.MaxLikSettings(max_iterations=10)

    def traced_peak(n_runs: int) -> int:
        tracemalloc.start()
        try:
            tomography.bootstrap_fidelity_uncertainty(chi, 1e4, n_runs=n_runs, settings=settings)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(tomography.BOOTSTRAP_BLOCK)  # warm-up: caches and lazy imports are made outside the trace
    assert traced_peak(256) - traced_peak(64) < BOOTSTRAP_PEAK_RISE


def test_bootstrap_golden_sigma():
    # the value fitting each of the 100 resamples alone gives for this dataset
    chi, total = _bootstrap_v0953()
    result = tomography.bootstrap_fidelity_uncertainty(chi, total, n_runs=100, seed=0)
    assert result.sigma == GOLDEN_SIGMA
    assert result.fidelities.shape == (100,) and result.nonconverged == 0


def test_bootstrap_counts_nonconverged_resamples():
    chi = model.model_choi(0.8)
    settings = tomography.MaxLikSettings(max_iterations=2)
    result = tomography.bootstrap_fidelity_uncertainty(chi, 1e4, n_runs=3, seed=0, settings=settings)
    assert result.nonconverged == 3


def test_bootstrap_zero_total_resample_raises():
    with pytest.raises(DegenerateDataError, match="total coincidence count is zero"):
        tomography.bootstrap_fidelity_uncertainty(model.model_choi(0.8), 1e-9, n_runs=2, seed=0)
