import numpy as np
import pytest

from bellbounce.pauli import (
    EMBEDDED_PAULIS,
    IDENTITY_2,
    PAULI_PAIR_LABELS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _bloch_batch,
    check_state,
    correlator_vector,
    min_eigenvalue,
    observable_from_bloch,
    operator_from_pauli_coeffs,
    pauli_coeffs_from_operator,
)
from bellbounce.presets import ELEGANT_COEFFS, H_G_COEFFS


def test_pauli_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, IDENTITY_2)
        assert np.allclose(s, s.conj().T)
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert PAULI_PAIR_LABELS[0] == "xx" and PAULI_PAIR_LABELS[8] == "zz"


def test_embedded_paulis_put_qubit_0_first():
    for i, s in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)):
        assert np.array_equal(EMBEDDED_PAULIS[0, i], np.kron(s, IDENTITY_2))
        assert np.array_equal(EMBEDDED_PAULIS[1, i], np.kron(IDENTITY_2, s))
    # basis index 2*q0 + q1: X on qubit 0 takes |00> to |10>, on qubit 1 to |01>
    assert EMBEDDED_PAULIS[0, 0][2, 0] == 1 and EMBEDDED_PAULIS[1, 0][1, 0] == 1
    assert not EMBEDDED_PAULIS.flags.writeable


def test_bloch_convention():
    # theta measured from the x axis, phi rotating y toward z
    assert np.allclose(_bloch_batch(np.array([0.0, 0.0])), [1, 0, 0])
    assert np.allclose(_bloch_batch(np.array([np.pi / 2, 0.0])), [0, 1, 0], atol=1e-15)
    assert np.allclose(_bloch_batch(np.array([np.pi / 2, np.pi / 2])), [0, 0, 1], atol=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = _bloch_batch(np.array([rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)]))
        assert abs(np.linalg.norm(n) - 1) < 1e-14


def _textbook_bloch(angles, derivatives=False):
    # n = (cos t, sin t cos p, sin t sin p) and its rows dn/dt, dn/dp, one trig call per angle
    t, p = angles[..., 0], angles[..., 1]
    ct, st, cp, sp = np.cos(t), np.sin(t), np.cos(p), np.sin(p)
    n = np.stack([ct, st * cp, st * sp], axis=-1)
    if not derivatives:
        return n
    dn = np.zeros(n.shape[:-1] + (2, 3))
    dn[..., 0, 0] = -st
    dn[..., 0, 1] = ct * cp
    dn[..., 0, 2] = ct * sp
    dn[..., 1, 1] = -n[..., 2]
    dn[..., 1, 2] = n[..., 1]
    return n, dn


def test_bloch_batch_keeps_the_textbook_bits():
    rng = np.random.default_rng(7)
    batch = rng.uniform(-7, 7, size=(5, 7, 2))
    wide = rng.uniform(-7, 7, size=(5, 7, 5))
    for angles in (rng.uniform(-7, 7, size=2), batch, wide[:, ::2, 1:4:2], batch[::-1, 1:]):
        assert np.array_equal(_bloch_batch(angles), _textbook_bloch(angles))
        n, dn = _bloch_batch(angles, derivatives=True)
        want_n, want_dn = _textbook_bloch(angles, derivatives=True)
        assert n.shape == want_n.shape and dn.shape == want_dn.shape
        assert np.array_equal(n, want_n) and np.array_equal(dn, want_dn)
        # the zeros too, sign included
        assert np.array_equal(np.signbit(dn), np.signbit(want_dn))


def test_observable_from_bloch():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = _bloch_batch(np.array([rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)]))
        a = observable_from_bloch(n)
        assert np.allclose(a, a.conj().T)
        assert np.allclose(a @ a, IDENTITY_2, atol=1e-14)  # eigenvalues +-1
    assert np.allclose(observable_from_bloch([1, 0, 0]), SIGMA_X)
    with pytest.raises(ValueError):
        observable_from_bloch([1, 1, 0])
    with pytest.raises(ValueError):
        observable_from_bloch([0, 0, 0])


def test_coeff_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(300):
        h = rng.normal(size=9)
        op = operator_from_pauli_coeffs(h)
        assert np.allclose(op, op.conj().T, atol=1e-14)
        assert np.allclose(pauli_coeffs_from_operator(op), h, atol=1e-13)


def test_non_correlator_rejected():
    with pytest.raises(ValueError, match="not a correlator"):
        pauli_coeffs_from_operator(np.eye(4))  # identity component
    for k in EMBEDDED_PAULIS.reshape(6, 4, 4):  # every single-body term, on either qubit
        with pytest.raises(ValueError, match="single-body"):
            pauli_coeffs_from_operator(k)
        with pytest.raises(ValueError, match="single-body"):
            pauli_coeffs_from_operator(1e-9 * k + operator_from_pauli_coeffs(H_G_COEFFS))
    with pytest.raises(ValueError):
        pauli_coeffs_from_operator(np.diag([1.0, 2.0, 3.0]))  # wrong shape
    nonherm = np.kron(SIGMA_X, SIGMA_X).astype(complex)
    nonherm[0, 3] += 1e-6
    with pytest.raises(ValueError):
        pauli_coeffs_from_operator(nonherm)


def test_min_eigenvalue_against_lapack():
    rng = np.random.default_rng(8)
    for _ in range(300):
        op = operator_from_pauli_coeffs(rng.normal(size=9))
        ref = float(np.linalg.eigvalsh(op)[0])
        assert abs(min_eigenvalue(op) - ref) < 1e-12 * max(1.0, abs(ref))


def test_known_ground_energies():
    assert abs(min_eigenvalue(operator_from_pauli_coeffs(H_G_COEFFS)) - (-16 / np.sqrt(3))) < 1e-9
    assert abs(min_eigenvalue(operator_from_pauli_coeffs(ELEGANT_COEFFS)) - (-4 * np.sqrt(3))) < 1e-9


def test_min_eigenvalue_diagonal_exact():
    op = np.diag([3.0, -2.0, 5.0, 1.0]).astype(complex)
    assert min_eigenvalue(op) == -2.0


def test_check_state():
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    check_state(singlet)
    with pytest.raises(ValueError, match="trace"):
        check_state(2 * singlet)
    with pytest.raises(ValueError):
        check_state(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))  # negative eigenvalue
    bad = singlet.copy()
    bad[0, 1] = 1j
    with pytest.raises(ValueError):
        check_state(bad)


def test_correlator_vector_singlet():
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    c = correlator_vector(singlet)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = -1.0
    assert np.allclose(c, expected, atol=1e-14)


def test_correlator_vector_bounded():
    rng = np.random.default_rng(9)
    for _ in range(100):
        # random density matrix via a Ginibre draw
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        c = correlator_vector(rho)
        assert np.all(np.abs(c) <= 1 + 1e-12)
