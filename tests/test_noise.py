import numpy as np
import pytest

import bellbounce.noise
from bellbounce.bell import gisin_variant
from bellbounce.mapping import quantum_value_from_data
from bellbounce.noise import (
    P_MAX,
    PLACEMENT_AFTER_EACH_GATE,
    PLACEMENT_FINAL_ONLY,
    SINGLET_CIRCUIT,
    NoiseModel,
    prepare_noisy_singlets,
)
from bellbounce.pauli import SIGMA_X, SIGMA_Y, SIGMA_Z, check_state, correlator_vector
from bellbounce.presets import tetrahedron_axes_settings

_SIGMAS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# (|01> - |10>)(<01| - <10|)/2
_PSI = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
SINGLET = np.outer(_PSI, _PSI).astype(complex)

# The singlet circuit built here, independently of the simulator, with qubit 0
# as the first tensor factor: X(q1), H(q0), CNOT(q0 -> q1), Z(q0).
_I2 = np.eye(2)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_PROJ_0 = np.diag([1.0, 0.0])
_PROJ_1 = np.diag([0.0, 1.0])
_GATES = (
    (np.kron(_I2, SIGMA_X), (1,)),
    (np.kron(_HADAMARD, _I2), (0,)),
    (np.kron(_PROJ_0, _I2) + np.kron(_PROJ_1, SIGMA_X), (0, 1)),
    (np.kron(SIGMA_Z, _I2), (0,)),
)


def _super_op_gate(u):
    return np.kron(u, u.conj())


def _super_op_depol(qubit, p):
    # Independent route: channels as 16x16 matrices acting on vec(rho).
    def embed(s):
        return np.kron(s, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), s)

    s = (1 - 3 * p) * np.eye(16, dtype=complex)
    for sigma in _SIGMAS:
        e = embed(sigma)
        s += p * np.kron(e, e.conj())
    return s


def _oracle_prepare(p, placement):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    vec = rho.reshape(-1)
    for u, touched in _GATES:
        vec = _super_op_gate(u) @ vec
        if placement == PLACEMENT_AFTER_EACH_GATE:
            for q in touched:
                vec = _super_op_depol(q, p) @ vec
    if placement == PLACEMENT_FINAL_ONLY:
        for q in (0, 1):
            vec = _super_op_depol(q, p) @ vec
    return vec.reshape(4, 4)


def test_singlet_circuit_matches_independent_gates():
    assert len(SINGLET_CIRCUIT) == len(_GATES)
    for (u, touched), (ref, ref_touched) in zip(SINGLET_CIRCUIT, _GATES):
        assert touched == ref_touched
        assert np.allclose(u, ref, rtol=0, atol=1e-15)
        assert np.allclose(u @ u.conj().T, np.eye(4), rtol=0, atol=1e-15)
        assert not u.flags.writeable


def test_ideal_circuit_gives_singlet():
    rho = prepare_noisy_singlets([NoiseModel(0.0, PLACEMENT_AFTER_EACH_GATE)])[0]
    assert np.allclose(rho, SINGLET, atol=1e-14)
    c = correlator_vector(rho)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = -1.0
    assert np.allclose(c, expected, atol=1e-14)


def test_simulator_matches_superoperator_oracle():
    for p in (0.0, 0.007, 0.013, 0.3):
        for placement in (PLACEMENT_AFTER_EACH_GATE, PLACEMENT_FINAL_ONLY):
            rho = prepare_noisy_singlets([NoiseModel(p, placement)])[0]
            assert np.allclose(rho, _oracle_prepare(p, placement), atol=1e-13)


def test_noisy_correlator_closed_forms():
    # default placement: q0 sees three channels, q1 two, y picks up one more
    # contraction than x and z from the final Z gate's channel
    for p in (0.001, 0.005, 0.010, 0.014):
        f = 1 - 4 * p
        c = correlator_vector(prepare_noisy_singlets([NoiseModel(p, PLACEMENT_AFTER_EACH_GATE)])[0])
        assert abs(c[0] + f**4) < 1e-12
        assert abs(c[4] + f**5) < 1e-12
        assert abs(c[8] + f**4) < 1e-12
        off = np.delete(c, [0, 4, 8])
        assert np.all(np.abs(off) < 1e-12)
        c2 = correlator_vector(prepare_noisy_singlets([NoiseModel(p, PLACEMENT_FINAL_ONLY)])[0])
        assert np.allclose(c2[[0, 4, 8]], -(f**2), atol=1e-12)


def test_every_gate_and_channel_is_checked(monkeypatch):
    checked = []
    monkeypatch.setattr(bellbounce.noise, "check_state", lambda rho: checked.append(rho) or rho)
    # four gates, then five channels on touched qubits or two on the final state
    for placement, count in ((PLACEMENT_AFTER_EACH_GATE, 9), (PLACEMENT_FINAL_ONLY, 6)):
        checked.clear()
        rho = prepare_noisy_singlets([NoiseModel(0.01, placement)])[0]
        # one state runs as a stack of one, and rho is that stack's row 0
        assert len(checked) == count and checked[-1].shape == (1, 4, 4)
        assert rho.base is checked[-1]
        # a stacked run checks each gate's and channel's whole stack once
        for k in (1, 2, 15):
            checked.clear()
            rho = prepare_noisy_singlets([NoiseModel(0.001 * i, placement) for i in range(k)])
            assert len(checked) == count and checked[-1] is rho
            assert all(state.shape == (k, 4, 4) for state in checked)


def test_stacked_run_keeps_each_states_bits():
    # the benchmark grid, plus both ends of the valid range
    ps = [*(0.001 * np.arange(15)).tolist(), 0.0, P_MAX]
    for placement in (PLACEMENT_AFTER_EACH_GATE, PLACEMENT_FINAL_ONLY):
        rhos = prepare_noisy_singlets([NoiseModel(p, placement) for p in ps])
        cs = correlator_vector(rhos)
        assert rhos.shape == (len(ps), 4, 4) and cs.shape == (len(ps), 9)
        for p, rho, c in zip(ps, rhos, cs):
            alone = prepare_noisy_singlets([NoiseModel(p, placement)])[0]
            assert np.array_equal(rho, alone)
            assert np.array_equal(np.signbit(rho.view(float)), np.signbit(alone.view(float)))
            assert np.array_equal(c, correlator_vector(alone))


def test_stacked_run_needs_one_placement():
    for models in ([], [NoiseModel(0.01), NoiseModel(0.01, PLACEMENT_FINAL_ONLY)]):
        with pytest.raises(ValueError, match="one placement"):
            prepare_noisy_singlets(models)


def test_states_stay_physical():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = rng.uniform(0, P_MAX)
        placement = rng.choice([PLACEMENT_AFTER_EACH_GATE, PLACEMENT_FINAL_ONLY])
        rho = prepare_noisy_singlets([NoiseModel(float(p), str(placement))])[0]
        check_state(rho)
        assert np.all(np.abs(correlator_vector(rho)) <= 1 + 1e-12)


def test_full_depolarization_kills_correlations():
    rho = prepare_noisy_singlets([NoiseModel(0.25, PLACEMENT_FINAL_ONLY)])[0]  # 1 - 4p = 0
    assert np.allclose(correlator_vector(rho), 0, atol=1e-14)


def test_circuit_gate_is_unitary_evolution():
    rho = SINGLET
    u, touched = SINGLET_CIRCUIT[0]
    assert touched == (1,)
    out = check_state(u @ rho @ u.conj().T)
    assert abs(np.trace(out).real - 1) < 1e-14
    assert np.allclose(out, out.conj().T)
    # X on either qubit flips the singlet to a triplet, orthogonal state
    assert abs(np.trace(out @ rho).real) < 1e-14


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.01, PLACEMENT_AFTER_EACH_GATE)
    with pytest.raises(ValueError):
        NoiseModel(P_MAX + 1e-6, PLACEMENT_AFTER_EACH_GATE)
    with pytest.raises(ValueError):
        NoiseModel(0.01, "everywhere")
    NoiseModel(P_MAX, PLACEMENT_FINAL_ONLY)  # boundary is allowed


def test_noise_sweep_order_and_monotonicity():
    # the `original` column of ineq2ham: c(p) . T(ms) . alpha per noise strength
    ms = tetrahedron_axes_settings()
    bc = gisin_variant(2.0)
    ps = [0.0, 0.004, 0.008, 0.012]
    cs = [correlator_vector(prepare_noisy_singlets([NoiseModel(p)])[0]) for p in ps]
    rows = [(p, quantum_value_from_data(c, ms, bc)) for p, c in zip(ps, cs)]
    assert [r[0] for r in rows] == ps
    values = [r[1] for r in rows]
    assert abs(values[0] - (-16 / np.sqrt(3))) < 1e-12
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
