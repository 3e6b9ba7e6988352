import numpy as np
import pytest

from bellbounce import pauli
from bellbounce.pauli import (
    EMBEDDED_PAULIS,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _bloch_batch,
    _bloch_chain,
    _check_hermitian,
    check_state,
    correlator_vector,
    min_eigenvalue,
    observable_from_bloch,
)
from bellbounce.presets import ELEGANT_COEFFS, H_G_COEFFS, OPERATOR_PRESETS, operator_preset
from reference_ops import operator_from_pauli_coeffs


def test_pauli_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, IDENTITY_2)
        assert np.allclose(s, s.conj().T)
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)


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
    # n keeps the textbook bits; the closed-form chain rounds differently from the
    # textbook's dn @ g, so it is held to 4 ulps of the summed term magnitudes
    rng = np.random.default_rng(7)
    batch = rng.uniform(-7, 7, size=(5, 7, 2))
    wide = rng.uniform(-7, 7, size=(5, 7, 5))
    eps = np.finfo(float).eps
    for angles in (rng.uniform(-7, 7, size=2), batch, wide[:, ::2, 1:4:2], batch[::-1, 1:]):
        assert np.array_equal(_bloch_batch(angles), _textbook_bloch(angles))
        n, trig = _bloch_batch(angles, trig=True)
        want_n, dn = _textbook_bloch(angles, derivatives=True)
        assert n.shape == want_n.shape and np.array_equal(n, want_n)
        g = rng.normal(size=n.shape)
        got = _bloch_chain(trig, g).reshape(angles.shape)
        want = (dn @ g[..., None])[..., 0]
        assert np.all(np.abs(got - want) <= 4 * eps * np.abs(dn * g[..., None, :]).sum(axis=-1))


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
    with pytest.raises(ValueError, match=r"shape \(3,\), got \(2,\)"):
        observable_from_bloch([1, 0])


def test_min_eigenvalue_against_lapack():
    rng = np.random.default_rng(8)
    for _ in range(300):
        op = operator_from_pauli_coeffs(rng.normal(size=9))
        ref = float(np.linalg.eigvalsh(op)[0])
        assert abs(min_eigenvalue(op) - ref) < 1e-12 * max(1.0, abs(ref))


def test_known_ground_energies():
    assert abs(min_eigenvalue(operator_from_pauli_coeffs(H_G_COEFFS)) - (-16 / np.sqrt(3))) < 1e-9
    assert abs(min_eigenvalue(operator_from_pauli_coeffs(ELEGANT_COEFFS)) - (-4 * np.sqrt(3))) < 1e-9


def test_operator_presets_are_fresh_copies():
    assert OPERATOR_PRESETS == ("H_G", "gisin_elegant")
    for name, coeffs in zip(OPERATOR_PRESETS, (H_G_COEFFS, ELEGANT_COEFFS)):
        h = operator_preset(name)
        assert np.array_equal(h, coeffs) and h.flags.writeable
        h[0] = 7.0
        assert np.array_equal(operator_preset(name), coeffs)
    with pytest.raises(ValueError, match="unknown operator preset 'nope'; choose from"):
        operator_preset("nope")


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


def test_non_finite_entries_are_refused():
    # every comparison with nan is False, so only an explicit rule catches them
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    bad = singlet.copy()
    bad[0, 3] = bad[3, 0] = np.nan
    for rho in (bad, np.stack([singlet, bad]), np.stack([[singlet], [singlet + np.inf]])):
        with pytest.raises(ValueError, match="^state has a non-finite entry$"):
            check_state(rho)
        with pytest.raises(ValueError, match="^state has a non-finite entry$"):
            correlator_vector(rho)
    for op in (np.full((4, 4), np.nan), np.stack([np.eye(4), np.diag([1.0, np.inf, 0.0, 0.0])])):
        with pytest.raises(ValueError, match="^operator has a non-finite entry$"):
            min_eigenvalue(op)


def test_stacks_are_checked_state_by_state():
    rng = np.random.default_rng(10)
    g = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    rhos = g @ g.conj().swapaxes(-1, -2)
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[..., None, None]
    assert check_state(rhos).shape == (2, 3, 4, 4)
    lam = min_eigenvalue(rhos)
    c = correlator_vector(rhos)
    assert lam.shape == (2, 3) and c.shape == (2, 3, 9)
    for i in np.ndindex(2, 3):
        assert lam[i] == min_eigenvalue(rhos[i])
        assert np.array_equal(c[i], correlator_vector(rhos[i]))
    # one failing state fails the stack, with that state's figure
    bad = rhos.copy()
    bad[1, 2] *= 2.0
    with pytest.raises(ValueError, match="^state trace is 2.0, expected 1$"):
        check_state(bad)
    bad = rhos.copy()
    bad[0, 1] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="^state has negative eigenvalue -0.5$"):
        check_state(bad)
    bad = rhos.copy()
    bad[1, 0, 0, 1] += 1j
    with pytest.raises(ValueError, match="not Hermitian"):
        check_state(bad)
    with pytest.raises(ValueError, match="must be 4x4"):
        check_state(rhos[..., :3])


def test_check_state_checks_each_state_once(monkeypatch):
    # one Hermiticity check per call, single state or stack, and the same bits
    rng = np.random.default_rng(11)
    g = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    rhos = g @ g.conj().swapaxes(-1, -2)
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[..., None, None]
    want = [check_state(rhos), check_state(rhos[0])]
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _check_hermitian(*args)

    monkeypatch.setattr(pauli, "_check_hermitian", counted)
    for rho, ref in zip((rhos, rhos[0]), want):
        calls.clear()
        assert np.array_equal(check_state(rho), ref)
        assert calls == ["state"]


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
