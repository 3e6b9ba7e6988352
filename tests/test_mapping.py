import numpy as np
import pytest

from bellbounce.bell import BellCoeffs
from bellbounce.mapping import (
    LinearSolveError,
    MeasurementSettings,
    _quantum_values,
    _residual_batch,
    _solve_min_norm_batch,
    _solve_unique_batch,
    bell_operator,
    build_transfer_matrix,
    quantum_value_from_data,
    residual_norm,
    solve_alpha,
)
from reference_ops import pauli_coeffs_from_operator


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
    with pytest.raises(ValueError, match=r"expected 14 angles for \(4, 3\), got \(12,\)"):
        MeasurementSettings.from_vector(4, 3, ms.to_vector()[:12])


def test_transfer_matrix_entries():
    rng = np.random.default_rng(22)
    ms = _random_settings(rng, 3, 3)
    t = build_transfer_matrix(ms)
    na, nb = ms.bloch_a(), ms.bloch_b()
    for i in range(3):
        for j in range(3):
            for x1 in range(3):
                for x2 in range(3):
                    assert abs(t[3 * i + j, 3 * x1 + x2] - na[x1][i] * nb[x2][j]) < 1e-14


def test_solve_unique_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(200):
        ms = _random_settings(rng, 3, 3)
        h = build_transfer_matrix(ms) @ rng.normal(size=9)
        bc = solve_alpha(ms, h)  # 3x3: both factors inverted
        assert residual_norm(ms, bc.alpha.ravel(), h) <= 1e-9


def test_solve_min_norm_properties():
    rng = np.random.default_rng(24)
    for _ in range(100):
        ms = _random_settings(rng, 4, 3)
        t = build_transfer_matrix(ms)
        h = t @ rng.normal(size=12)
        bc = solve_alpha(ms, h)  # 4x3: minimum norm, NA through its Gram matrix
        assert residual_norm(ms, bc.alpha.ravel(), h) <= 1e-9
        # minimal norm: orthogonal to the null space and no longer than lstsq
        basis = np.linalg.svd(t)[2][9:]  # generic 4x3 settings: T has rank 9
        assert np.allclose(basis @ bc.alpha.ravel(), 0, atol=1e-9)
        ref = np.linalg.lstsq(t, h, rcond=None)[0]
        assert np.linalg.norm(bc.alpha.ravel()) <= np.linalg.norm(ref) + 1e-9


def test_two_path_agreement():
    rng = np.random.default_rng(25)
    for m1, m2 in [(3, 3), (4, 3), (2, 2)]:
        for _ in range(50):
            ms = _random_settings(rng, m1, m2)
            bc = BellCoeffs(rng.normal(size=(m1, m2)))
            direct = pauli_coeffs_from_operator(bell_operator(ms, bc))
            assert np.allclose(direct, build_transfer_matrix(ms) @ bc.alpha.ravel(), atol=1e-12)
    with pytest.raises(ValueError, match=r"settings \(2, 2\) do not match alpha \(3, 2\)"):
        bell_operator(_random_settings(rng, 2, 2), BellCoeffs(np.ones((3, 2))))


def _factor_pinv_reference(f):
    # pinv(F) of factors F (n, m, 3), m >= 3, one factor at a time: F^-1 at m = 3
    # and (F^T F)^-1 F^T at m > 3
    if f.shape[-2] == 3:
        return np.linalg.inv(f)
    ft = f.swapaxes(-1, -2)
    return np.linalg.inv(ft @ f) @ ft


def _solve_unique_reference(na, nb, hmat):
    # the kernel's arithmetic with one inversion per factor, for well-conditioned rows
    pa, pbt = _factor_pinv_reference(na).swapaxes(-1, -2), _factor_pinv_reference(nb)
    alpha = pa @ hmat @ pbt
    alpha = alpha + pa @ (hmat - na.swapaxes(-1, -2) @ alpha @ nb) @ pbt
    return alpha, pa, pbt


@pytest.mark.parametrize("m1, m2", [(3, 3), (4, 3), (3, 4), (2, 3), (4, 2)])
def test_solve_kernel_keeps_the_per_factor_bits(m1, m2):
    # Both factors' 3x3 matrices are inverted in one call, and every row keeps the
    # bits of inverting each factor on its own. A party with fewer than 3 settings
    # has no 3x3 matrix to invert: the batch takes the SVD solve, bit for bit.
    rng = np.random.default_rng(25)
    settings = [_random_settings(rng, m1, m2) for _ in range(6)]
    na = np.stack([ms.bloch_a() for ms in settings])
    nb = np.stack([ms.bloch_b() for ms in settings])
    for hmat in (rng.normal(size=(3, 3)), rng.normal(size=(6, 3, 3))):
        got = _solve_unique_batch(na, nb, hmat)
        if min(m1, m2) < 3:
            want = _solve_min_norm_batch(na, nb, hmat)
        else:
            want = _solve_unique_reference(na, nb, hmat)
        for part, ref in zip(got, want):
            assert np.array_equal(part, ref)


def test_solve_kernel_singular_row_keeps_its_neighbours_bits():
    # an exactly singular 3x3 row sends the batch row by row: its neighbours keep
    # the per-factor bits, and it gets the SVD solve, alpha included, as at any shape
    rng = np.random.default_rng(26)
    settings = [_random_settings(rng, 3, 3) for _ in range(3)]
    a = settings[1].party_a.copy()
    a[2] = a[0]
    settings[1] = MeasurementSettings(a, settings[1].party_b)
    na = np.stack([ms.bloch_a() for ms in settings])
    nb = np.stack([ms.bloch_b() for ms in settings])
    hmat = rng.normal(size=(3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(na)
    with np.errstate(all="ignore"):
        got = _solve_unique_batch(na, nb, hmat)
        svd = _solve_min_norm_batch(na[1:2], nb[1:2], hmat)
    for i in (0, 2):
        want = _solve_unique_reference(na[i : i + 1], nb[i : i + 1], hmat)
        for part, ref in zip(got, want):
            assert np.array_equal(part[i : i + 1], ref)
    for part, ref in zip(got, svd):
        assert np.array_equal(part[1:2], ref)


def test_residual_batch_is_the_frobenius_norm():
    rng = np.random.default_rng(27)
    for m1, m2 in ((3, 3), (4, 3), (2, 5)):
        na, nb = rng.normal(size=(8, m1, 3)), rng.normal(size=(8, m2, 3))
        alpha, hmat = rng.normal(size=(8, m1, m2)), rng.normal(size=(3, 3))
        want = np.linalg.norm(na.swapaxes(-1, -2) @ alpha @ nb - hmat, axis=(-2, -1))
        assert np.array_equal(_residual_batch(na, nb, alpha, hmat), want)


def test_inconsistent_system_rejected():
    # identical settings for every measurement collapse the column space; at 3x3
    # and at 4x3 the singular factors go to the SVD fallback, and the residual
    # that solve leaves is refused
    h = np.zeros(9)
    h[0] = 1.0
    h[4] = -1.0  # not proportional to the single reachable direction
    for m1 in (3, 4):
        a = np.tile([[0.3, 0.4]], (m1, 1))
        b = np.tile([[1.0, 2.0]], (3, 1))
        with pytest.raises(LinearSolveError):
            solve_alpha(MeasurementSettings(party_a=a, party_b=b), h)


def test_solve_mode_validation():
    rng = np.random.default_rng(26)
    with pytest.raises(ValueError):
        solve_alpha(_random_settings(rng, 4, 3), np.zeros(5))


def _four_index_sum(na, nb, cmats, alpha):
    # the contraction the kernel replaced, kept as its oracle
    return np.einsum("nai,nij,nbj,ab->n", na, cmats, nb, alpha)


@pytest.mark.parametrize("m1, m2", [(2, 2), (2, 5), (3, 4), (4, 3), (5, 2)])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("shared", [True, False])
def test_quantum_values_match_the_four_index_sum(m1, m2, n, shared):
    rng = np.random.default_rng(29)
    na = rng.normal(size=(n, m1, 3))
    nb = rng.normal(size=(n, m2, 3))
    cmats = rng.uniform(-1, 1, size=(1 if shared else n, 3, 3))
    alpha = rng.normal(size=(m1, m2))
    values, ga = _quantum_values(na, nb, cmats, alpha)
    scale = _four_index_sum(abs(na), abs(nb), abs(cmats), abs(alpha))
    assert values.shape == (n,)
    assert np.all(abs(values - _four_index_sum(na, nb, cmats, alpha)) <= 1e-12 * scale)
    # ga is the party-A half-gradient C sum_b alpha_ab nB_b
    want = np.einsum("ab,nbj,nij->nai", alpha, nb, cmats)
    assert np.allclose(ga, want, rtol=0, atol=1e-12 * np.abs(want).max())
    # a row gets the same bits alone as in the batch
    for i in range(n):
        alone = _quantum_values(na[i : i + 1], nb[i : i + 1], cmats[0 if shared else i][None], alpha)
        assert alone[0][0] == values[i]


def test_quantum_value_from_data():
    rng = np.random.default_rng(28)
    ms = _random_settings(rng, 3, 3)
    bc = BellCoeffs(rng.normal(size=(3, 3)))
    c = rng.uniform(-1, 1, size=9)
    v = quantum_value_from_data(c, ms, bc)
    assert abs(v - c @ (build_transfer_matrix(ms) @ bc.alpha.ravel())) < 1e-12
    with pytest.raises(ValueError):
        quantum_value_from_data(np.full(9, 1.5), ms, bc)
    for bad in (np.nan, np.inf, -np.inf):  # a nan is not above 1 either
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            quantum_value_from_data(np.where(np.arange(9) == 4, bad, c), ms, bc)
    with pytest.raises(ValueError):
        quantum_value_from_data(c[:5], ms, bc)
    bc42 = BellCoeffs(rng.normal(size=(4, 2)))
    with pytest.raises(ValueError, match="does not match"):
        quantum_value_from_data(c, ms, bc42)
