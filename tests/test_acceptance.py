"""End-to-end checks, one test per numbered shipping criterion.

Run with -v to get one pass/fail line per criterion; each test also prints
a [criterion NN] PASS line with the measured numbers (visible under -rP/-s).
The four best-of-32 searches dominate the runtime; they are
module-scoped fixtures so the suite pays for each exactly once.
"""

import itertools
import time

import numpy as np
import pytest

from bellbounce.bell import (
    BellCoeffs,
    Scenario,
    bell_value,
    classical_bound,
    classical_bound_bruteforce,
    gisin_bound_closed_form,
    gisin_variant,
)
from bellbounce.lattice import (
    bundled_lattice_path,
    check_bipartite,
    improved_bound_scaling,
    lattice_certificate_value,
    lattice_classical_bound,
    lattice_quantum_floor,
    load_lattice,
)
from bellbounce.mapping import (
    MeasurementSettings,
    bell_operator,
    build_transfer_matrix,
    quantum_value_from_data,
    residual_norm,
    solve_alpha,
)
from bellbounce.noise import (
    P_MAX,
    PLACEMENT_AFTER_EACH_GATE,
    PLACEMENT_FINAL_ONLY,
    PLACEMENTS,
    SINGLET_CIRCUIT,
    prepare_noisy_singlets,
)
from bellbounce.optimize import (
    bounce_loop,
    bound_objective,
    random_starts,
    run_search,
    sweep_minima,
)
from bellbounce.pauli import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_state,
    correlator_vector,
    min_eigenvalue,
)
from bellbounce.presets import ELEGANT_COEFFS, H_G_COEFFS, tetrahedron_axes_settings
from finite_diff import finite_diff_gradient
from lattice_edges import rows, spec
from reference_ops import (
    operator_from_pauli_coeffs,
    pauli_coeffs_from_operator,
    two_chsh_coeffs,
    two_chsh_settings,
)

RESTARTS = 32
SEED = 0


def _report(num, detail):
    print(f"[criterion {num:02d}] PASS  {detail}")


def _best_of_32(h, scenario):
    start = time.perf_counter()
    objective = bound_objective(h, scenario)
    out = run_search(objective, random_starts(objective.dim, RESTARTS, SEED))
    return out.value, time.perf_counter() - start


@pytest.fixture(scope="module")
def hg_3x3():
    return _best_of_32(H_G_COEFFS, Scenario(3, 3))


@pytest.fixture(scope="module")
def hg_4x3():
    return _best_of_32(H_G_COEFFS, Scenario(4, 3))


@pytest.fixture(scope="module")
def elegant_3x3():
    return _best_of_32(ELEGANT_COEFFS, Scenario(3, 3))


@pytest.fixture(scope="module")
def elegant_4x3():
    return _best_of_32(ELEGANT_COEFFS, Scenario(4, 3))


def test_criterion_01_closed_form_bound_on_delta_grid():
    start = time.perf_counter()
    worst = 0.0
    for delta in np.arange(-30, 31) / 10.0:
        beta, witness = classical_bound(gisin_variant(delta))
        worst = max(worst, abs(beta - gisin_bound_closed_form(delta)))
        assert bell_value(gisin_variant(delta), witness.correlators()) == beta
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(1, f"61 deltas, max deviation {worst:.3g}, {elapsed * 1000:.0f} ms")


def test_criterion_02_ground_energy():
    value = min_eigenvalue(operator_from_pauli_coeffs(H_G_COEFFS))
    target = -16.0 / np.sqrt(3.0)
    assert abs(value - target) <= 1e-9
    _report(2, f"min eigenvalue {value:.12f} vs {target:.12f}")


def test_criterion_03_mapping_roundtrip():
    rng = np.random.default_rng(3)
    worst_resid = 0.0
    worst_twopath = 0.0
    for i in range(1000):
        m1, m2 = (3, 3) if i < 500 else (4, 3)
        ms = MeasurementSettings.from_vector(
            m1, m2, rng.uniform(0.0, 2.0 * np.pi, size=2 * (m1 + m2))
        )
        h = build_transfer_matrix(ms) @ rng.normal(size=m1 * m2)
        bc = solve_alpha(ms, h)
        worst_resid = max(worst_resid, residual_norm(ms, bc.alpha.ravel(), h))
        if i % 10 == 0:
            h_two = pauli_coeffs_from_operator(bell_operator(ms, bc))
            worst_twopath = max(worst_twopath, float(np.max(np.abs(h_two - h))))
    assert worst_resid <= 1e-9
    assert worst_twopath <= 1e-12
    _report(3, f"worst residual {worst_resid:.3g}, two-path gap {worst_twopath:.3g}")


def test_criterion_04_best_of_32_three_settings(hg_3x3):
    value, elapsed = hg_3x3
    assert -7.45 <= value <= -7.30
    assert elapsed <= 600.0
    _report(4, f"3x3 best bound {value:.6f} in [-7.45, -7.30], {elapsed:.0f} s")


def test_criterion_05_best_of_32_four_settings(hg_4x3):
    value, _ = hg_4x3
    assert -6.60 <= value <= -6.45
    _report(5, f"4x3 best bound {value:.6f} in [-6.60, -6.45]")


def test_criterion_06_two_chsh_matrix():
    beta, _ = classical_bound(two_chsh_coeffs())
    assert beta == -4.0
    h = pauli_coeffs_from_operator(bell_operator(two_chsh_settings(), two_chsh_coeffs()))
    expected = np.sqrt(2.0) * np.array([1.0, 1.0, -2.0])
    assert np.max(np.abs(h[[0, 4, 8]] - expected)) <= 1e-12
    _report(6, f"bound {beta}, diagonal coefficients {h[[0, 4, 8]].round(12).tolist()}")


def test_criterion_07_elegant_windows(elegant_3x3, elegant_4x3):
    v33, _ = elegant_3x3
    v43, _ = elegant_4x3
    assert -5.65 <= v33 <= -5.50
    assert -5.25 <= v43 <= -5.08
    _report(7, f"elegant best bounds {v33:.6f} (3x3), {v43:.6f} (4x3)")


def test_criterion_08_honeycomb_scaling():
    ls = load_lattice(bundled_lattice_path())
    local = gisin_variant(2.0)
    beta, cert = lattice_classical_bound(ls, local)
    assert abs(beta - (-526.0)) <= 1e-9
    assert abs(lattice_certificate_value(ls, local, cert) - beta) <= 1e-12
    scaled_33 = improved_bound_scaling(beta, -8.0, -7.39)
    scaled_43 = improved_bound_scaling(beta, -8.0, -6.56)
    assert abs(scaled_33 - (-485.9)) <= 0.5
    assert abs(scaled_43 - (-431.3)) <= 0.5
    floor = lattice_quantum_floor(ls, operator_from_pauli_coeffs(H_G_COEFFS))
    assert abs(floor - 65.75 * (-16.0 / np.sqrt(3.0))) <= 1e-6
    # hardware-scale energies are only required to respect the floor
    assert -514.0 > floor
    assert -533.0 > floor
    _report(8, f"bound {beta:.1f}, scaled {scaled_33:.4f}/{scaled_43:.4f}, floor {floor:.4f}")


def test_criterion_09_noise_sweep():
    grid = np.arange(15) / 1000.0
    ms0 = tetrahedron_axes_settings()
    bc = gisin_variant(2.0)
    cs = correlator_vector(prepare_noisy_singlets(grid))
    original = np.array([quantum_value_from_data(c, ms0, bc) for c in cs])
    theta0 = ms0.to_vector()
    starts = np.vstack([theta0, random_starts(theta0.size, 4, 1)])
    optimized = sweep_minima(bc, cs, starts, 2000)
    assert np.all(np.diff(original) >= 0.0)
    assert np.all(np.diff(optimized) >= -1e-9)
    assert np.all(optimized <= original + 1e-9)
    # monotone series pin each -8 crossing inside its stated window
    assert original[6] < -8.0 < original[10]
    assert optimized[10] < -8.0 < optimized[14]
    _report(9, f"original crosses in (0.006, 0.010), optimized in (0.010, 0.014)")


def test_criterion_10_bounce_loop():
    c = correlator_vector(prepare_noisy_singlets([0.010])[0])
    res = bounce_loop(gisin_variant(2.0), tetrahedron_axes_settings(), c)
    assert res.final_gap < 0.0
    assert res.converged
    assert res.loops <= 4
    recs = res.records
    assert recs[0].kind == "init"
    for prev, cur in zip(recs, recs[1:]):
        if cur.kind == "minimize-quantum-value":
            assert cur.beta_q <= prev.beta_q
            assert cur.beta_c == prev.beta_c
        else:
            assert cur.kind == "maximize-classical-bound"
            assert cur.beta_c >= prev.beta_c
    for rec in recs:
        assert rec.gap == rec.beta_q - rec.beta_c
    _report(10, f"gap {res.final_gap:.6f} after {res.loops} loops, contracts exact")


def test_criterion_11a_bound_oracle_equivalence():
    rng = np.random.default_rng(200)
    for _ in range(200):
        m1 = int(rng.integers(2, 5))
        m2 = int(rng.integers(2, 5))
        bc = BellCoeffs(rng.normal(size=(m1, m2)))
        beta, witness = classical_bound(bc)
        assert abs(beta - classical_bound_bruteforce(bc)) <= 1e-12
        assert bell_value(bc, witness.correlators()) == beta
    _report(11, "200 random instances match the brute-force oracle")


def _depolarized(rho, qubit, p):
    # (1 - 3p) rho + p sum_k s_k rho s_k, with s_k the Pauli k on the qubit, qubit 0 first
    out = (1.0 - 3.0 * p) * rho
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        s = np.kron(sigma, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), sigma)
        out = out + p * (s @ rho @ s)
    return out


def test_criterion_11b_cptp_every_step():
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    for p in (0.0, 0.007, 0.05, P_MAX):
        for placement in PLACEMENTS:
            rho = rho0
            for u, touched in SINGLET_CIRCUIT:
                rho = u @ rho @ u.conj().T
                check_state(rho)
                if placement == PLACEMENT_AFTER_EACH_GATE:
                    for qubit in touched:
                        rho = _depolarized(rho, qubit, p)
                        check_state(rho)
            if placement == PLACEMENT_FINAL_ONLY:
                for qubit in (0, 1):
                    rho = _depolarized(rho, qubit, p)
                    check_state(rho)
            ref = prepare_noisy_singlets([p], placement)[0]
            assert np.max(np.abs(rho - ref)) < 1e-13
    _report(11, "state stays physical after every gate and channel")


def test_criterion_11c_finite_difference_on_quadratics():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        mat = rng.normal(size=(dim, dim))
        mat = (mat + mat.T) / 2.0
        point = rng.normal(size=dim)
        grad = finite_diff_gradient(lambda v: float(v @ mat @ v), point)
        worst = max(worst, float(np.max(np.abs(grad - 2.0 * mat @ point))))
    assert worst <= 1e-5
    _report(11, f"finite differences track 2Ax, worst gap {worst:.3g}")


def test_criterion_11d_lattice_bound_vs_enumeration():
    chsh = BellCoeffs(np.array([[1.0, 1.0], [1.0, -1.0]]))
    pats = np.array(list(itertools.product((-1.0, 1.0), repeat=2)))
    table = pats @ chsh.alpha @ pats.T
    rng = np.random.default_rng(5)
    checked = 0
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        combos = np.array(list(itertools.product(range(4), repeat=n)))
        for mask in range(2 ** len(pairs)):
            edges = tuple(
                (u, v, float(rng.uniform(0.0, 2.0)), "other")
                for k, (u, v) in enumerate(pairs)
                if mask >> k & 1
            )
            ls = spec(n, edges)
            try:
                in_a = set(np.flatnonzero(~check_bipartite(ls)))
            except ValueError:
                continue
            beta, cert = lattice_classical_bound(ls, chsh)
            total = np.zeros(len(combos))
            for u, v, coupling, _ in rows(ls):
                au, bv = (u, v) if u in in_a else (v, u)
                total += coupling * table[combos[:, au], combos[:, bv]]
            assert abs(beta - float(total.min())) <= 1e-9
            assert abs(lattice_certificate_value(ls, chsh, cert) - beta) <= 1e-12
            checked += 1
    assert checked > 400  # every bipartite graph on up to 5 vertices
    _report(11, f"closed form matches enumeration on {checked} bipartite graphs")
