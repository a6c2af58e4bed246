import numpy as np
import pytest

from czfid import core, simulate, tomography

from conftest import KETS, ORDER, PAULIS, U_CZ, apply_channel, hermitize, pauli_coefficients, pauli_resum, proj


def test_probe_states_match_definitions():
    for label, expected in KETS.items():
        np.testing.assert_allclose(core.probe_state(label), expected, atol=1e-15)


def test_probe_frame_is_the_kets_geometry():
    geometry = np.array([[(KETS[label].conj() @ sigma @ KETS[label]).real for sigma in PAULIS] for label in ORDER])
    assert np.max(np.abs(core.PROBE_FRAME - geometry)) < 1e-15
    assert np.isin(core.PROBE_FRAME, (0.0, 1.0, -1.0)).all()
    assert not core.PROBE_FRAME.flags.writeable


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
    for chi in (np.zeros((16, 16)), -np.eye(16)):  # a zero and a negative trace, in either argument
        for args in ((chi, core.cz_choi()), (core.cz_choi(), chi)):
            with pytest.raises(ValueError, match="^process fidelity is undefined for zero-trace process matrices$"):
                core.process_fidelity(*args)


#: Every entry point that takes a process matrix, each given the matrix to check.
PROCESS_MATRIX_ENTRY_POINTS = {
    "process_fidelity": lambda chi: core.process_fidelity(chi, core.cz_choi()),
    "process_fidelity-reference": lambda chi: core.process_fidelity(core.cz_choi(), chi),
    "outcome_probabilities": simulate.outcome_probabilities,
    "ExperimentConfig": lambda chi: simulate.ExperimentConfig(pair_rate=1e3, choi=chi),
    "simulate_counts": lambda chi: simulate.simulate_counts(
        simulate.ExperimentConfig(pair_rate=1e3, choi=chi)
    ),
    "r_operator": lambda chi: tomography.r_operator(chi, np.ones((36, 36))),
    "expected_counts": simulate.expected_counts,
    "bootstrap_fidelity_uncertainty": lambda chi: tomography.bootstrap_fidelity_uncertainty(chi, 1e3),
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


@pytest.mark.parametrize("entry_point", PROCESS_MATRIX_ENTRY_POINTS)
def test_process_matrix_whose_trace_overflows_is_named(entry_point):
    # pyproject.toml makes a RuntimeWarning, such as numpy's overflow in the trace, an error
    message = "^16x16 (reference )?process matrix is too large: its trace is not a finite number$"
    with pytest.raises(ValueError, match=message):
        PROCESS_MATRIX_ENTRY_POINTS[entry_point](1e308 * np.eye(16))


#: Doors whose arithmetic leaves 2**53 or float range on checked inputs: a call past each bound and the
#: message that names it.
SCALE_BOUND_CASES = {
    "expected_counts-overflow": (lambda: simulate.expected_counts(1e300 * core.cz_choi(), 1e10),
                                 r"^pair_rate 10000000000.0 gives mean counts above 2\*\*53, the largest count$"),
    "expected_counts-above-2**53": (lambda: simulate.expected_counts(core.cz_choi(), 1e20),
                                    r"^pair_rate 1e\+20 gives mean counts above 2\*\*53, the largest count$"),
    "bootstrap-1e308": (lambda: tomography.bootstrap_fidelity_uncertainty(core.cz_choi(), 1e308, n_runs=2),
                        r"^c_tot 1e\+308 gives mean counts above 2\*\*53, the largest count$"),
    "bootstrap-above-2**53": (lambda: tomography.bootstrap_fidelity_uncertainty(core.cz_choi(), 1e20, n_runs=2),
                              r"^c_tot 1e\+20 gives mean counts above 2\*\*53, the largest count$"),
    "r_operator-subnormal-trace": (
        lambda: tomography.r_operator(1e-310 * np.eye(16), np.ones((36, 36))),
        r"^process matrix trace 1.599999999999995e-309 is below 1e-100, too small for a finite C/p$"),
    "r_operator-trace-1e-101": (
        lambda: tomography.r_operator(1e-101 * core.cz_choi() / 4.0, np.ones((36, 36))),
        r"^process matrix trace 1e-101 is below 1e-100, too small for a finite C/p$"),
}


@pytest.mark.parametrize("case", SCALE_BOUND_CASES)
def test_a_door_names_the_scale_bound_its_arithmetic_would_leave(monkeypatch, case):
    # pyproject.toml makes numpy's overflow RuntimeWarning an error; a bootstrap is refused before any draw
    def no_draw(*args):
        raise AssertionError("drew a resample")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    call, message = SCALE_BOUND_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_the_scale_bounds_admit_their_largest_inputs():
    assert simulate.expected_counts(core.cz_choi(), 2.0**53).max() == 2.0**53
    r = tomography.r_operator(1e-100 * np.eye(16) / 16.0, np.full((36, 36), 2.0**53))
    assert np.isfinite(r).all()


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
    s = pauli_coefficients(core.cz_choi())
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    expected = CZ_PAULI_TABLE.get((a, b, c, d), 0.0)
                    assert abs(s[a, b, c, d] - expected) < 1e-12, (a, b, c, d)


def test_cz_pauli_coefficient_examples():
    s = pauli_coefficients(core.cz_choi())
    assert abs(s[0, 0, 0, 0] - 0.25) < 1e-14
    assert abs(s[1, 0, 0, 0]) < 1e-14


def test_pauli_roundtrip_random_hermitian(rng):
    for _ in range(50):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (a + a.conj().T) / 2.0
        rebuilt = pauli_resum(pauli_coefficients(h))
        assert np.max(np.abs(rebuilt - h)) < 1e-10


def test_pauli_coefficients_rejects_non_hermitian():
    # the oracle's own guard: a non-Hermitian chi has complex coefficients, whose imaginary parts it would drop
    m = np.eye(16, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="^expected a Hermitian 16x16 matrix$"):
        pauli_coefficients(m)


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
    # the buffered forms, sharing their buffers as the loop does, every buffer filled with NaN before each call
    # so no stale entry can leak through, for a stack and for a lone matrix; a call maps the values its operand
    # holds then, and the adjoint also takes the weights as complex with a zero imaginary part, as the loop does
    for chi, w in ((chis, weights), (chis[0], weights[0])):
        x, px, pxp = core.map_buffers(chi.shape[:-2])
        r = np.empty_like(x)
        for weights_in in (w, w.astype(complex)):
            held_chi, held_w = np.zeros_like(chi), np.zeros_like(weights_in)
            forward, adjoint = core.buffered_map(held_chi, x, px, pxp), core.buffered_adjoint(held_w, x, px, r)
            for scale in (1, 3):
                held_chi[...], held_w[...] = scale * chi, scale * weights_in
                for call, expected in ((forward, core.measurement_map(scale * chi)),
                                       (adjoint, core.measurement_adjoint(scale * w))):
                    for buffer in (x, px, pxp, r):
                        buffer.fill(np.nan)
                    assert np.array_equal(call(), expected)
    # a float64 chi and float64 weights give the bits of the same values stored as complex: the map
    # copies a real chi into its complex buffer, and the adjoint's GEMM casts real weights
    for chi, w in ((chis.real, weights), (chis[0].real, weights[0])):
        assert chi.dtype == w.dtype == np.float64
        assert np.array_equal(core.measurement_map(chi), core.measurement_map(chi.astype(complex)))
        assert np.array_equal(core.measurement_adjoint(w), core.measurement_adjoint(w.astype(complex)))


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


def test_whole_number_takes_a_largest_value():
    assert core.whole_number(np.int64(7), 2, "n must be an integer of at least 2", 7) == 7
    for value in (8, 2**62):
        with pytest.raises(ValueError, match=f"^n must be an integer of at least 2 and at most 7, got {value}$"):
            core.whole_number(value, 2, "n must be an integer of at least 2", 7)


def test_real_number_admits_finite_real_scalars_only():
    for value in (3, 2.5, np.int64(3), np.float32(0.5)):
        number = core.real_number(value, "x must be a finite number")
        assert number == float(value) and type(number) is float
    for value in (True, "1", None, 1j, np.nan, np.inf, 10**400, np.array([1.0])):
        with pytest.raises(ValueError, match="^x must be a finite number, got "):
            core.real_number(value, "x must be a finite number")
    assert core.real_number(0.5, "x must be positive", lambda x: x > 0) == 0.5
    with pytest.raises(ValueError, match=r"^x must be positive, got -0\.5$"):
        core.real_number(-0.5, "x must be positive", lambda x: x > 0)
