import numpy as np
import pytest

from bellbounce.bell import gisin_variant
from bellbounce.mapping import build_transfer_matrix, quantum_value_from_data
from bellbounce.noise import (
    P_MAX,
    PLACEMENT_AFTER_EACH_GATE,
    PLACEMENT_FINAL_ONLY,
    SINGLET_CIRCUIT,
    GateStep,
    NoiseModel,
    apply_depolarizing,
    apply_gate,
    prepare_noisy_singlet,
)
from bellbounce.pauli import SIGMA_X, SIGMA_Y, SIGMA_Z, check_state, correlator_vector
from bellbounce.presets import tetrahedron_axes_settings

_SIGMAS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# (|01> - |10>)(<01| - <10|)/2
_PSI = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
SINGLET = np.outer(_PSI, _PSI).astype(complex)


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
    from bellbounce.noise import _gate_unitary

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    vec = rho.reshape(-1)
    for gate in SINGLET_CIRCUIT:
        vec = _super_op_gate(_gate_unitary(gate)) @ vec
        if placement == PLACEMENT_AFTER_EACH_GATE:
            for q in gate.targets:
                vec = _super_op_depol(q, p) @ vec
    if placement == PLACEMENT_FINAL_ONLY:
        for q in (0, 1):
            vec = _super_op_depol(q, p) @ vec
    return vec.reshape(4, 4)


def test_ideal_circuit_gives_singlet():
    rho = prepare_noisy_singlet(NoiseModel(0.0, PLACEMENT_AFTER_EACH_GATE))
    assert np.allclose(rho, SINGLET, atol=1e-14)
    c = correlator_vector(rho)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = -1.0
    assert np.allclose(c, expected, atol=1e-14)


def test_simulator_matches_superoperator_oracle():
    for p in (0.0, 0.007, 0.013, 0.3):
        for placement in (PLACEMENT_AFTER_EACH_GATE, PLACEMENT_FINAL_ONLY):
            rho = prepare_noisy_singlet(NoiseModel(p, placement))
            assert np.allclose(rho, _oracle_prepare(p, placement), atol=1e-13)


def test_noisy_correlator_closed_forms():
    # default placement: q0 sees three channels, q1 two, y picks up one more
    # contraction than x and z from the final Z gate's channel
    for p in (0.001, 0.005, 0.010, 0.014):
        f = 1 - 4 * p
        c = correlator_vector(prepare_noisy_singlet(NoiseModel(p, PLACEMENT_AFTER_EACH_GATE)))
        assert abs(c[0] + f**4) < 1e-12
        assert abs(c[4] + f**5) < 1e-12
        assert abs(c[8] + f**4) < 1e-12
        off = np.delete(c, [0, 4, 8])
        assert np.all(np.abs(off) < 1e-12)
        c2 = correlator_vector(prepare_noisy_singlet(NoiseModel(p, PLACEMENT_FINAL_ONLY)))
        assert np.allclose(c2[[0, 4, 8]], -(f**2), atol=1e-12)


def test_states_stay_physical():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = rng.uniform(0, P_MAX)
        placement = rng.choice([PLACEMENT_AFTER_EACH_GATE, PLACEMENT_FINAL_ONLY])
        rho = prepare_noisy_singlet(NoiseModel(float(p), str(placement)))
        check_state(rho)
        assert np.all(np.abs(correlator_vector(rho)) <= 1 + 1e-12)


def test_full_depolarization_kills_correlations():
    rho = apply_depolarizing(SINGLET, 0, 0.25)  # Bloch contraction 1 - 4p = 0
    assert np.allclose(correlator_vector(rho), 0, atol=1e-14)


def test_apply_gate_is_unitary_evolution():
    rho = SINGLET
    out = apply_gate(rho, GateStep("X", (0,)))
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


def test_gate_step_validation():
    with pytest.raises(ValueError):
        GateStep("CNOT", (1, 1))
    with pytest.raises(ValueError):
        GateStep("T", (0,))
    with pytest.raises(ValueError):
        GateStep("X", (2,))


def test_noise_sweep_order_and_monotonicity():
    # the `original` column of ineq2ham: c(p) . T(ms) . alpha per noise strength
    t = build_transfer_matrix(tetrahedron_axes_settings())
    bc = gisin_variant(2.0)
    ps = [0.0, 0.004, 0.008, 0.012]
    rows = [
        (p, quantum_value_from_data(correlator_vector(prepare_noisy_singlet(NoiseModel(p))), t, bc))
        for p in ps
    ]
    assert [r[0] for r in rows] == ps
    values = [r[1] for r in rows]
    assert abs(values[0] - (-16 / np.sqrt(3))) < 1e-12
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
