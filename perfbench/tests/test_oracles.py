"""Each oracle against a closed form or a second independent path."""

import numpy as np
import pytest

from perfbench import oracles


@pytest.mark.parametrize("delta", np.arange(-30, 31) / 10.0)
def test_bound_matches_closed_form(delta):
    want = oracles.gisin_closed_form(delta)
    assert abs(oracles.classical_bound_bruteforce(oracles.gisin(delta)) - want) <= 1e-12
    assert abs(oracles.classical_bound(oracles.gisin(delta)) - want) <= 1e-12


def test_blocked_enumeration_matches_bruteforce():
    rng = np.random.default_rng(7)
    for m1, m2 in ((3, 4), (4, 3), (6, 13), (13, 6)):  # 2^13 spans two blocks
        alpha = rng.normal(size=(m1, m2))
        assert abs(oracles.classical_bound(alpha) - oracles.classical_bound_bruteforce(alpha)) <= 1e-12


def test_lexicographic_witness_attains_bound():
    for delta in (0.0, 1.0, 2.0, 3.0):
        alpha = oracles.gisin(delta)
        a, b = oracles.lexicographic_witness(alpha)
        assert oracles.strategy_value(alpha, a, b) == oracles.classical_bound(alpha)
    assert oracles.lexicographic_witness(oracles.gisin(2.0)) == ([1, -1, -1, -1], [-1, -1, -1])


def test_noiseless_singlet_correlators():
    c = oracles.correlators(oracles.noisy_singlet(0.0))
    want = np.zeros(9)
    want[[0, 4, 8]] = -1.0
    assert np.max(np.abs(c - want)) <= 1e-15


@pytest.mark.parametrize("p", [0.0, 0.007, 0.014, 1.0 / 3.0])
def test_noisy_singlet_is_a_state(p):
    rho = oracles.noisy_singlet(p)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_ground_energies():
    assert abs(oracles.min_eigenvalue(oracles.pauli_operator(oracles.H_G)) + 16 / np.sqrt(3)) <= 1e-12
    assert abs(oracles.min_eigenvalue(oracles.pauli_operator(oracles.H_ELEGANT)) + 12 / np.sqrt(3)) <= 1e-12


def test_transfer_matrix_matches_operator():
    # T alpha are the Pauli coefficients of the Bell operator the settings build.
    rng = np.random.default_rng(3)
    na, nb = oracles.split_settings(rng.uniform(0, 2 * np.pi, size=14), 4, 3)
    alpha = rng.normal(size=(4, 3))
    op = oracles.bell_operator(na, nb, alpha)
    coeffs = [
        np.trace(np.kron(oracles.PAULIS[i], oracles.PAULIS[j]) @ op).real / 4
        for i in range(3) for j in range(3)
    ]
    assert np.max(np.abs(oracles.transfer_matrix(na, nb) @ alpha.ravel() - coeffs)) <= 1e-12


def test_tetrahedron_settings_give_h_g():
    t = oracles.transfer_matrix(oracles.TETRA_A, oracles.AXES_B)
    assert np.max(np.abs(t @ oracles.gisin(2.0).ravel() - oracles.H_G)) <= 1e-12


def test_two_coloring_and_certificate():
    edges = [(0, 1, 1.0), (1, 2, 0.5), (3, 2, 2.0)]
    side = oracles.two_coloring(4, edges)
    assert side == [0, 1, 0, 1]
    alpha = oracles.gisin(2.0)
    a, b = oracles.lexicographic_witness(alpha)
    assert oracles.certificate_value(edges, side, alpha, a, b) == pytest.approx(3.5 * -8.0, abs=1e-12)
    with pytest.raises(ValueError):
        oracles.two_coloring(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
