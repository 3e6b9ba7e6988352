import numpy as np
import pytest

from bellbounce.pauli import EMBEDDED_PAULIS, SIGMA_X
from bellbounce.presets import H_G_COEFFS
from reference_ops import PAULI_PAIR_LABELS, operator_from_pauli_coeffs, pauli_coeffs_from_operator


def test_pair_labels():
    assert PAULI_PAIR_LABELS[0] == "xx" and PAULI_PAIR_LABELS[8] == "zz"


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
