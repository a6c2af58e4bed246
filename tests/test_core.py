import numpy as np
import pytest

from czfid import core, simulate, tomography

from conftest import KETS, ORDER, U_CZ, apply_channel, hermitize, pauli_resum, proj


def test_probe_states_match_definitions():
    for label, expected in KETS.items():
        np.testing.assert_allclose(core.probe_state(label), expected, atol=1e-15)


def test_probe_state_indexing():
    # a probe id is exactly one of the labels; indices and lowercase are unknown
    for bad in ("X", "h", 1):
        with pytest.raises(ValueError, match="unknown probe state"):
            core.probe_state(bad)
        with pytest.raises(ValueError, match="unknown probe state"):
            core.pair_index("H", bad)
        with pytest.raises(ValueError, match="unknown probe state"):
            core.pair_ket(bad, "H")


def test_probe_states_form_three_mutually_unbiased_bases():
    for label in ORDER:
        assert abs(np.linalg.norm(core.probe_state(label)) - 1.0) < 1e-12
    pairs = [("H", "V"), ("D", "A"), ("R", "L")]
    for a, b in pairs:
        assert abs(np.vdot(core.probe_state(a), core.probe_state(b))) < 1e-12
    for i, basis_a in enumerate(pairs):
        for basis_b in pairs[i + 1 :]:
            for a in basis_a:
                for b in basis_b:
                    overlap = abs(np.vdot(core.probe_state(a), core.probe_state(b))) ** 2
                    assert abs(overlap - 0.5) < 1e-12


def test_r_and_l_are_orthogonal():
    assert abs(np.vdot(core.probe_state("R"), core.probe_state("L"))) < 1e-14


def test_cz_choi_trace_and_rank():
    chi = core.cz_choi()
    assert abs(np.trace(chi).real - 4.0) < 1e-12
    eigs = np.linalg.eigvalsh(chi)
    assert abs(eigs[-1] - 4.0) < 1e-12
    assert np.all(np.abs(eigs[:-1]) < 1e-12)


def test_cz_choi_equals_literal_outer_product():
    # |HHHH> + |HVHV> + |VHVH> - |VVVV>, written out by hand
    def basis16(q1i, q2i, q1o, q2o):
        vec = np.zeros(16, dtype=complex)
        vec[8 * q1i + 4 * q2i + 2 * q1o + q2o] = 1.0
        return vec

    ket = basis16(0, 0, 0, 0) + basis16(0, 1, 0, 1) + basis16(1, 0, 1, 0) - basis16(1, 1, 1, 1)
    np.testing.assert_allclose(core.cz_choi(), np.outer(ket, ket.conj()), atol=1e-14)


def test_choi_partial_trace_over_output():
    # deterministic channel: tracing out the output space leaves the identity
    def trace_out(chi):
        chi4 = np.asarray(chi).reshape(4, 4, 4, 4)
        return np.einsum("iaja->ij", chi4)

    np.testing.assert_allclose(trace_out(core.cz_choi()), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(trace_out(core.identity_choi()), np.eye(4), atol=1e-12)


def test_trace_decreasing_choi_stays_below_dimension():
    from czfid import model

    for v in (0.0, 0.4, 0.99):
        assert np.trace(model.model_choi(v)).real <= 4.0 + 1e-12


def test_cz_choi_vvvv_hhhh_element():
    chi = core.cz_choi()
    vvvv = np.kron(np.kron(KETS["V"], KETS["V"]), np.kron(KETS["V"], KETS["V"]))
    hhhh = np.kron(np.kron(KETS["H"], KETS["H"]), np.kron(KETS["H"], KETS["H"]))
    assert abs(vvvv.conj() @ chi @ hhhh - (-1.0)) < 1e-12


def test_apply_channel_cz_fixes_hh():
    rho = np.kron(proj("H"), proj("H"))
    rho_out, p = apply_channel(core.cz_choi(), rho)
    np.testing.assert_allclose(rho_out, rho, atol=1e-12)
    assert abs(p - 1.0) < 1e-12


def test_apply_channel_success_probability_scales_with_trace():
    rho = np.kron(proj("D"), proj("R"))
    _, p = apply_channel(core.cz_choi() / 9.0, rho)
    assert abs(p - 1.0 / 9.0) < 1e-12


def test_apply_channel_matches_unitary_conjugation(rng):
    chi = core.cz_choi()
    for _ in range(10):
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        rho = np.outer(amp, amp.conj())
        rho_out, p = apply_channel(chi, rho)
        expected = U_CZ @ rho @ U_CZ.conj().T
        np.testing.assert_allclose(rho_out, expected, atol=1e-12)
        assert abs(p - 1.0) < 1e-12


def test_apply_channel_linearity(rng):
    chi = core.cz_choi() / 9.0
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho1 = np.outer(a, a.conj()) / np.linalg.norm(a) ** 2
    rho2 = np.outer(b, b.conj()) / np.linalg.norm(b) ** 2
    for alpha in (0.0, 0.3, 0.7, 1.0):
        mixed = alpha * rho1 + (1 - alpha) * rho2
        out_mixed, _ = apply_channel(chi, mixed)
        out1, _ = apply_channel(chi, rho1)
        out2, _ = apply_channel(chi, rho2)
        np.testing.assert_allclose(out_mixed, alpha * out1 + (1 - alpha) * out2, atol=1e-12)


def test_apply_channel_rejects_bad_inputs():
    chi = core.cz_choi()
    not_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        apply_channel(chi, not_psd)
    not_hermitian = np.eye(4, dtype=complex)
    not_hermitian[0, 1] = 1.0
    with pytest.raises(ValueError):
        apply_channel(chi, not_hermitian)
    with pytest.raises(ValueError):
        apply_channel(chi, np.eye(4, dtype=complex))  # trace 4


def test_process_fidelity_self_is_one():
    chi = core.cz_choi()
    assert abs(core.process_fidelity(chi, chi) - 1.0) < 1e-12


def test_process_fidelity_identity_vs_cz():
    # |Tr U_CZ|^2 / 16 computed from the literal unitary
    expected = abs(np.trace(U_CZ)) ** 2 / 16.0
    assert abs(core.process_fidelity(core.identity_choi(), core.cz_choi()) - expected) < 1e-12
    assert abs(expected - 0.25) < 1e-15


def test_process_fidelity_scale_invariance(rng):
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    chi = a @ a.conj().T
    ref = core.cz_choi()
    f = core.process_fidelity(chi, ref)
    for s in (0.1, 3.0, 42.0):
        assert abs(core.process_fidelity(s * chi, ref) - f) < 1e-12
        assert abs(core.process_fidelity(chi, s * ref) - f) < 1e-12


def test_process_fidelity_rejects_zero_trace():
    with pytest.raises(ValueError):
        core.process_fidelity(np.zeros((16, 16)), core.cz_choi())


#: Every entry point that takes a process matrix, each given the matrix to check.
PROCESS_MATRIX_ENTRY_POINTS = {
    "hermitian_process_matrix": core.hermitian_process_matrix,
    "pauli_coefficients": core.pauli_coefficients,
    "process_fidelity": lambda chi: core.process_fidelity(chi, core.cz_choi()),
    "process_fidelity-reference": lambda chi: core.process_fidelity(core.cz_choi(), chi),
    "outcome_probabilities": simulate.outcome_probabilities,
    "simulate_counts": lambda chi: simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=1e3, choi=chi)
    ),
    "r_operator": lambda chi: tomography.r_operator(chi, np.ones((36, 36))),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("entry_point", PROCESS_MATRIX_ENTRY_POINTS)
def test_non_finite_process_matrix_is_named(entry_point, bad):
    chi = core.cz_choi() / 4.0
    chi[5, 5] = bad
    with pytest.raises(ValueError, match="16x16 (reference )?process matrix has 1 non-finite entries"):
        PROCESS_MATRIX_ENTRY_POINTS[entry_point](chi)


@pytest.mark.parametrize("bad", [np.full((16, 16), "1"), np.eye(16, dtype=bool)], ids=["str", "bool"])
@pytest.mark.parametrize("entry_point", PROCESS_MATRIX_ENTRY_POINTS)
def test_non_numeric_process_matrix_is_named(entry_point, bad):
    with pytest.raises(ValueError, match=f"16x16 (reference )?process matrix must be numbers, got dtype {bad.dtype}"):
        PROCESS_MATRIX_ENTRY_POINTS[entry_point](bad)


#: Nonzero Pauli-product coefficients of the CZ process matrix; every
#: coefficient not listed is zero.
CZ_PAULI_TABLE = {
    (0, 0, 0, 0): 0.25,
    (0, 1, 3, 1): 0.25,
    (0, 2, 3, 2): -0.25,
    (0, 3, 0, 3): 0.25,
    (1, 0, 1, 3): 0.25,
    (1, 1, 2, 2): 0.25,
    (1, 2, 2, 1): 0.25,
    (1, 3, 1, 0): 0.25,
    (2, 0, 2, 3): -0.25,
    (2, 1, 1, 2): 0.25,
    (2, 2, 1, 1): 0.25,
    (2, 3, 2, 0): -0.25,
    (3, 0, 3, 0): 0.25,
    (3, 1, 0, 1): 0.25,
    (3, 2, 0, 2): -0.25,
    (3, 3, 3, 3): 0.25,
}


def test_cz_pauli_coefficients_match_known_table():
    s = core.pauli_coefficients(core.cz_choi())
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    expected = CZ_PAULI_TABLE.get((a, b, c, d), 0.0)
                    assert abs(s[a, b, c, d] - expected) < 1e-12, (a, b, c, d)


def test_cz_pauli_coefficient_examples():
    s = core.pauli_coefficients(core.cz_choi())
    assert abs(s[0, 0, 0, 0] - 0.25) < 1e-14
    assert abs(s[1, 0, 0, 0]) < 1e-14


def test_pauli_roundtrip_random_hermitian(rng):
    for _ in range(50):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (a + a.conj().T) / 2.0
        rebuilt = pauli_resum(core.pauli_coefficients(h))
        assert np.max(np.abs(rebuilt - h)) < 1e-10


def test_pauli_coefficients_rejects_non_hermitian():
    m = np.eye(16, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        core.pauli_coefficients(m)


def test_hermitize():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-12
    out = hermitize(m)
    assert np.max(np.abs(out - out.conj().T)) == 0.0
    m[0, 1] = 1e-3
    with pytest.raises(RuntimeError):
        hermitize(m)


def test_pair_index_roundtrip():
    for n in range(36):
        j, k = core.pair_labels(n)
        assert core.pair_index(j, k) == n
    assert core.pair_index("H", "H") == 0
    assert core.pair_index("L", "L") == 35
    assert core.pair_labels(np.int64(3)) == ("H", "A")
    for n in (-1, 36, 3.5, True, "3"):
        with pytest.raises(ValueError, match="^pair index must be in 0..35, got "):
            core.pair_labels(n)


def test_measurement_adjoint_is_adjoint_of_map(rng):
    # sum w p(chi) = Tr[R(w) chi] for any real weights and Hermitian chi
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    chi = a + a.conj().T
    w = rng.normal(size=(36, 36))
    r = core.measurement_adjoint(w)
    assert np.max(np.abs(r - r.conj().T)) < 1e-12
    lhs = float((w * core.measurement_map(chi)).sum())
    assert abs(lhs - np.trace(r @ chi).real) < 1e-10 * max(1.0, abs(lhs))
    np.testing.assert_allclose(core.measurement_adjoint(np.ones((36, 36))), 81 * np.eye(16), atol=1e-12)


def test_measurement_operator_on_a_stack_equals_per_slice_calls(rng):
    a = rng.normal(size=(6, 16, 16)) + 1j * rng.normal(size=(6, 16, 16))
    chis = a @ a.conj().swapaxes(-1, -2)
    weights = rng.poisson(50.0, size=(6, 36, 36)).astype(float)
    tables, ops = core.measurement_map(chis), core.measurement_adjoint(weights)
    assert tables.shape == (6, 36, 36) and ops.shape == (6, 16, 16)
    for chi, w, p, r in zip(chis, weights, tables, ops):
        assert np.array_equal(p, core.measurement_map(chi))
        assert np.array_equal(r, core.measurement_adjoint(w))
    # any number of leading axes
    assert np.array_equal(core.measurement_map(chis.reshape(2, 3, 16, 16)), tables.reshape(2, 3, 36, 36))
    assert np.array_equal(core.measurement_adjoint(weights.reshape(3, 2, 36, 36)), ops.reshape(3, 2, 16, 16))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 2.0**53 + 2, 1e200])
def test_count_checks_reject_bad_entries(bad):
    table = np.ones((36, 36))
    table[3, 4] = bad
    refs = np.ones(36)
    refs[5] = bad
    match = "non-finite" if not np.isfinite(bad) else "negative" if bad < 0 else r"1 counts above 2\*\*53"
    with pytest.raises(ValueError, match=match):
        core.count_table(table)
    with pytest.raises(ValueError, match=match):
        core.reference_values(refs)
    with pytest.raises(ValueError, match="shape"):
        core.count_table(np.ones((6, 6)))
