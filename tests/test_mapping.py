import numpy as np
import pytest

from bellbounce.bell import BellCoeffs, Scenario
from bellbounce.mapping import (
    LinearSolveError,
    MeasurementSettings,
    bell_operator,
    build_transfer_matrix,
    quantum_value_from_data,
    residual_norm,
    solve_alpha,
)
from bellbounce.pauli import bloch_from_angles, pauli_coeffs_from_operator


def _random_settings(rng, m1, m2):
    a = np.column_stack([rng.uniform(0, np.pi, m1), rng.uniform(0, 2 * np.pi, m1)])
    b = np.column_stack([rng.uniform(0, np.pi, m2), rng.uniform(0, 2 * np.pi, m2)])
    return MeasurementSettings(party_a=a, party_b=b)


def test_settings_roundtrip_and_validation():
    rng = np.random.default_rng(21)
    ms = _random_settings(rng, 4, 3)
    again = MeasurementSettings.from_vector(4, 3, ms.to_vector())
    assert np.allclose(again.party_a, ms.party_a)
    assert np.allclose(again.party_b, ms.party_b)
    with pytest.raises(ValueError):
        MeasurementSettings(party_a=np.zeros((3, 3)), party_b=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        MeasurementSettings(party_a=np.full((2, 2), np.nan), party_b=np.zeros((2, 2)))


def test_transfer_matrix_entries():
    rng = np.random.default_rng(22)
    ms = _random_settings(rng, 3, 3)
    t = build_transfer_matrix(ms).matrix
    na = [bloch_from_angles(*row) for row in ms.party_a]
    nb = [bloch_from_angles(*row) for row in ms.party_b]
    for i in range(3):
        for j in range(3):
            for x1 in range(3):
                for x2 in range(3):
                    assert abs(t[3 * i + j, 3 * x1 + x2] - na[x1][i] * nb[x2][j]) < 1e-14


def test_solve_unique_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(200):
        ms = _random_settings(rng, 3, 3)
        t = build_transfer_matrix(ms)
        h = t.matrix @ rng.normal(size=9)
        bc = solve_alpha(t, h)  # 3x3: both factors inverted
        assert residual_norm(t, bc.alpha.ravel(), h) <= 1e-9


def test_solve_min_norm_properties():
    rng = np.random.default_rng(24)
    for _ in range(100):
        ms = _random_settings(rng, 4, 3)
        t = build_transfer_matrix(ms)
        h = t.matrix @ rng.normal(size=12)
        bc = solve_alpha(t, h)  # 4x3: minimum norm, NA through its Gram matrix
        assert residual_norm(t, bc.alpha.ravel(), h) <= 1e-9
        # minimal norm: orthogonal to the null space and no longer than lstsq
        basis = np.linalg.svd(t.matrix)[2][9:]  # generic 4x3 settings: T has rank 9
        assert np.allclose(basis @ bc.alpha.ravel(), 0, atol=1e-9)
        ref = np.linalg.lstsq(t.matrix, h, rcond=None)[0]
        assert np.linalg.norm(bc.alpha.ravel()) <= np.linalg.norm(ref) + 1e-9


def test_two_path_agreement():
    rng = np.random.default_rng(25)
    for m1, m2 in [(3, 3), (4, 3), (2, 2)]:
        for _ in range(50):
            ms = _random_settings(rng, m1, m2)
            bc = BellCoeffs(Scenario(m1, m2), rng.normal(size=(m1, m2)))
            t = build_transfer_matrix(ms)
            direct = pauli_coeffs_from_operator(bell_operator(ms, bc))
            assert np.allclose(direct, t.matrix @ bc.alpha.ravel(), atol=1e-12)


def test_inconsistent_system_rejected():
    # identical settings for every measurement collapse the column space; one
    # system at 3x3, refused as rank-deficient, and one at 4x3, whose singular
    # factors go to the SVD fallback and leave a residual
    h = np.zeros(9)
    h[0] = 1.0
    h[4] = -1.0  # not proportional to the single reachable direction
    for m1 in (3, 4):
        a = np.tile([[0.3, 0.4]], (m1, 1))
        b = np.tile([[1.0, 2.0]], (3, 1))
        t = build_transfer_matrix(MeasurementSettings(party_a=a, party_b=b))
        with pytest.raises(LinearSolveError):
            solve_alpha(t, h)


def test_solve_mode_validation():
    rng = np.random.default_rng(26)
    t43 = build_transfer_matrix(_random_settings(rng, 4, 3))
    with pytest.raises(ValueError):
        solve_alpha(t43, np.zeros(5))


def test_quantum_value_from_data():
    rng = np.random.default_rng(28)
    ms = _random_settings(rng, 3, 3)
    bc = BellCoeffs(Scenario(3, 3), rng.normal(size=(3, 3)))
    t = build_transfer_matrix(ms)
    c = rng.uniform(-1, 1, size=9)
    v = quantum_value_from_data(c, t, bc)
    assert abs(v - c @ (t.matrix @ bc.alpha.ravel())) < 1e-12
    with pytest.raises(ValueError):
        quantum_value_from_data(np.full(9, 1.5), t, bc)
    with pytest.raises(ValueError):
        quantum_value_from_data(c[:5], t, bc)
    bc42 = BellCoeffs(Scenario(4, 2), rng.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        quantum_value_from_data(c, t, bc42)
