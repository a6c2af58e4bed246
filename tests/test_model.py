import warnings

import numpy as np
import pytest

from czfid import core, model

from conftest import KETS, model_state_behavior_numeric


def test_q_from_visibility_values():
    assert model.q_from_visibility(0.0) == 0.0
    assert model.q_from_visibility(1.0) == 1.0
    assert abs(model.q_from_visibility(0.5) - 2.0 / 3.0) < 1e-15


def test_q_from_visibility_rejects_out_of_range():
    with pytest.raises(ValueError):
        model.q_from_visibility(-0.1)
    with pytest.raises(ValueError):
        model.q_from_visibility(1.1)


def test_visibility_slightly_outside_is_clamped_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.q_from_visibility(1.0005) == 1.0
        assert model.model_fidelity(-0.0005) == 0.25
        assert model.model_hofmann_curves(1.0005) == model.model_hofmann_curves(1.0)
        assert model.model_hofmann_curves(-0.0005) == model.model_hofmann_curves(0.0)
        assert np.array_equal(model.model_choi(-0.0005), model.model_choi(0.0))


def test_hom_visibility():
    assert model.hom_visibility(0.0, 100.0) == 1.0
    assert model.hom_visibility(80.0, 80.0) == 0.0
    # dip counts C = C_inf (1 - q) with q = 2/3 correspond to V = 0.5
    q = 2.0 / 3.0
    assert abs(model.hom_visibility(300.0 * (1 - q), 300.0) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        model.hom_visibility(10.0, 0.0)
    with pytest.raises(ValueError):
        model.hom_visibility(-1.0, 10.0)
    for c_inf in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^coincidence rate outside the dip must be positive and finite"):
            model.hom_visibility(1.0, c_inf)
    for c_dip in (np.nan, np.inf, "1", True):
        with pytest.raises(ValueError, match="^coincidence rate in the dip must be nonnegative and finite"):
            model.hom_visibility(c_dip, 1.0)


def test_model_choi_perfect_interference_is_scaled_cz():
    np.testing.assert_allclose(model.model_choi(1.0), core.cz_choi() / 9.0, atol=1e-14)


def test_model_choi_distinguishable_limit_literal():
    phi = np.zeros(16, dtype=complex)
    phi[[0, 5, 10, 15]] = 1.0  # |HHHH> + |HVHV> + |VHVH> + |VVVV>
    vvvv = np.kron(np.kron(KETS["V"], KETS["V"]), np.kron(KETS["V"], KETS["V"]))
    expected = np.outer(phi, phi.conj()) / 9.0 + (4.0 / 9.0) * np.outer(vvvv, vvvv.conj())
    np.testing.assert_allclose(model.model_choi(0.0), expected, atol=1e-14)


def test_model_choi_trace_and_positivity():
    for v in np.linspace(0.0, 1.0, 21):
        chi = model.model_choi(v)
        q = model.q_from_visibility(v)
        assert abs(np.trace(chi).real - (8.0 - 4.0 * q) / 9.0) < 1e-12
        assert np.linalg.eigvalsh(chi)[0] >= -1e-10
    # trace at V = 0.5: (8 - 8/3)/9 = 16/27
    assert abs(np.trace(model.model_choi(0.5)).real - 16.0 / 27.0) < 1e-14


def test_model_fidelity_values():
    assert model.model_fidelity(1.0) == 1.0
    assert model.model_fidelity(0.0) == 0.25
    assert abs(model.model_fidelity(0.953) - 0.96475) < 1e-12


def test_model_fidelity_consistent_with_choi_overlap():
    chi_cz = core.cz_choi()
    for v in np.linspace(0.0, 1.0, 101):
        f_direct = core.process_fidelity(model.model_choi(v), chi_cz)
        assert abs(f_direct - model.model_fidelity(v)) < 1e-12


def test_model_state_behavior_values():
    for v in (0.0, 0.31, 0.953, 1.0):
        p, f = model.model_state_behavior("DH", v)
        assert abs(p - 1.0 / 9.0) < 1e-15 and f == 1.0
    p, f = model.model_state_behavior("DV", 0.5)
    assert abs(p - 5.0 / 27.0) < 1e-15
    assert abs(f - 0.6) < 1e-15
    p, f = model.model_state_behavior("AV", 1.0)
    assert abs(p - 1.0 / 9.0) < 1e-15 and abs(f - 1.0) < 1e-15


def test_model_state_behavior_matches_channel_numerics():
    for probe in model.HOFMANN_PROBES:
        for v in (0.0, 0.25, 0.66, 1.0):
            closed = model.model_state_behavior(probe, v)
            numeric = model_state_behavior_numeric(probe, v)
            assert abs(closed[0] - numeric[0]) < 1e-12
            assert abs(closed[1] - numeric[1]) < 1e-12


def test_model_state_behavior_rejects_other_probes():
    with pytest.raises(ValueError):
        model.model_state_behavior("HH", 0.5)
    with pytest.raises(ValueError):
        model.model_state_behavior("RV", 0.5)


def test_model_hofmann_curves_values():
    assert model.model_hofmann_curves(1.0) == (1.0, 1.0, 1.0, 1.0)
    f1, f2, f_h, f_d = model.model_hofmann_curves(0.5)
    assert (f1, f2, f_h) == (0.75, 0.75, 0.5)
    assert abs(f_d - 0.6) < 1e-15
    # below the crossover the deterministic-only bound exceeds the true fidelity
    *_, f_d_low = model.model_hofmann_curves(0.2)
    assert abs(f_d_low - 3.0 / 7.0) < 1e-12
    assert f_d_low > model.model_fidelity(0.2)


def test_sandwich_property_on_grid():
    for v in np.linspace(0.0, 1.0, 101):
        f1, f2, f_h, _ = model.model_hofmann_curves(v)
        f_chi = model.model_fidelity(v)
        assert f_h <= f_chi + 1e-12
        assert f_chi <= min(f1, f2) + 1e-12
        assert abs(f_h - v) < 1e-15


def test_deterministic_bound_overestimates_iff_below_one_third():
    for v in np.linspace(0.0, 1.0, 101):
        if abs(v - 1.0 / 3.0) < 1e-9:
            continue
        *_, f_d = model.model_hofmann_curves(v)
        if v < 1.0 / 3.0:
            assert f_d > model.model_fidelity(v)
        else:
            assert f_d <= model.model_fidelity(v) + 1e-12


def test_success_probabilities_sum_to_trace_per_basis():
    basis_1 = ("DH", "DV", "AH", "AV")
    basis_2 = ("HD", "VD", "HA", "VA")
    for v in (0.0, 0.37, 0.953, 1.0):
        trace = np.trace(model.model_choi(v)).real
        for basis in (basis_1, basis_2):
            total = sum(model.model_state_behavior(probe, v)[0] for probe in basis)
            assert abs(total - trace) < 1e-12
