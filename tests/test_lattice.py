import hashlib
import itertools
import json

import numpy as np
import pytest

from bellbounce.bell import BellCoeffs, classical_bound, gisin_variant
from bellbounce.lattice import (
    DIGEST_CHUNK_VERTICES,
    MAX_LATTICE_VERTICES,
    HoneycombParams,
    LatticeSpec,
    bundled_lattice_path,
    check_bipartite,
    honeycomb_coupling,
    improved_bound_scaling,
    lattice_certificate_value,
    lattice_classical_bound,
    lattice_quantum_floor,
    load_lattice,
    parse_lattice,
)
from bellbounce.pauli import operator_from_pauli_coeffs
from bellbounce.presets import H_G_COEFFS

CHSH = BellCoeffs.from_matrix([[1.0, 1.0], [1.0, -1.0]])


def _enumerate_bound(ls, local):
    # Oracle: every vertex independently picks any deterministic assignment.
    in_a = set(np.flatnonzero(~check_bipartite(ls)))
    m1, m2 = local.alpha.shape
    pats_a = np.array(list(itertools.product((-1, 1), repeat=m1)))
    pats_b = np.array(list(itertools.product((-1, 1), repeat=m2)))
    table = pats_a @ local.alpha @ pats_b.T  # local value per pattern pair
    best = np.inf
    n = ls.vertices
    for combo in itertools.product(range(max(len(pats_a), len(pats_b))), repeat=n):
        total = 0.0
        ok = True
        for u, v, j, _ in ls.edges:
            au, bv = (u, v) if u in in_a else (v, u)
            if combo[au] >= len(pats_a) or combo[bv] >= len(pats_b):
                ok = False
                break
            total += j * table[combo[au], combo[bv]]
        if ok and total < best:
            best = total
    return best


def test_parse_lattice():
    text = """# a triangle-free example
vertices 3
0 1 2.0 red
1 2 0.5 green  # trailing note
"""
    ls = parse_lattice(text)
    assert ls.vertices == 3
    assert ls.edges == ((0, 1, 2.0, "red"), (1, 2, 0.5, "green"))
    assert ls.total_coupling() == 2.5


def test_parse_lattice_errors():
    with pytest.raises(ValueError):
        parse_lattice("0 1 1.0 red\n")  # missing header
    with pytest.raises(ValueError):
        parse_lattice("vertices 2\n0 5 1.0 red\n")  # vertex out of range
    with pytest.raises(ValueError):
        parse_lattice("vertices 2\n0 1 1.0 purple\n")
    with pytest.raises(ValueError):
        parse_lattice("vertices 2\n1 1 1.0 red\n")  # self-loop
    # a short header may declare more vertices than the bipartite check can hold
    assert LatticeSpec(MAX_LATTICE_VERTICES, ()).vertices == 2**20
    for count in (MAX_LATTICE_VERTICES + 1, 10**9):
        with pytest.raises(ValueError, match=rf"count {count} outside \[1, 1048576\]"):
            parse_lattice(f"vertices {count}\n0 1 1.0 red\n")


def test_total_coupling_adds_left_to_right():
    # sum() of floats is compensated from Python 3.12 on and would give 1.0 here
    ls = LatticeSpec(4, ((0, 1, 1e16, "other"), (1, 2, 1.0, "other"), (2, 3, -1e16, "other")))
    assert ls.total_coupling() == 0.0


def test_bipartite_check():
    path = LatticeSpec(3, ((0, 1, 1.0, "other"), (1, 2, 1.0, "other")))
    on_b = check_bipartite(path)
    assert on_b.dtype == bool and on_b.shape == (3,)
    side_a, side_b = np.flatnonzero(~on_b), np.flatnonzero(on_b)
    assert set(side_a) == {0, 2} and set(side_b) == {1}
    triangle = LatticeSpec(
        3, ((0, 1, 1.0, "other"), (1, 2, 1.0, "other"), (0, 2, 1.0, "other"))
    )
    with pytest.raises(ValueError, match="odd cycle|bipartite"):
        check_bipartite(triangle)


def test_honeycomb_coupling():
    params = HoneycombParams(0.94)
    assert abs(honeycomb_coupling(params, "red") - 1.94) < 1e-15
    assert abs(honeycomb_coupling(params, "green") - 0.03) < 1e-15
    assert abs(honeycomb_coupling(params, "blue") - 0.03) < 1e-15
    with pytest.raises(ValueError):
        honeycomb_coupling(params, "other")
    with pytest.raises(ValueError):
        HoneycombParams(1.5)


def test_two_edge_path_closed_form():
    local = gisin_variant(2.0)
    ls = LatticeSpec(3, ((0, 1, 2.0, "other"), (1, 2, 1.0, "other")))
    beta, cert = lattice_classical_bound(ls, local)
    assert beta == 3.0 * -8.0
    assert lattice_certificate_value(ls, local, cert) == beta


def test_closed_form_matches_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        edges = []
        # random bipartite graph: split vertices by parity of a random label
        side = rng.integers(0, 2, size=n)
        if side.min() == side.max():
            side[0] = 1 - side[0]
        for u in range(n):
            for v in range(u + 1, n):
                if side[u] != side[v] and rng.random() < 0.6:
                    edges.append((u, v, float(rng.uniform(0, 3)), "other"))
        if not edges:
            continue
        ls = LatticeSpec(n, tuple(edges))
        beta, cert = lattice_classical_bound(ls, CHSH)
        assert abs(beta - _enumerate_bound(ls, CHSH)) < 1e-9
        assert lattice_certificate_value(ls, CHSH, cert) == beta


def test_negative_coupling_rejected():
    ls = LatticeSpec(2, ((0, 1, -1.0, "other"),))
    with pytest.raises(ValueError):
        lattice_classical_bound(ls, CHSH)
    with pytest.raises(ValueError):
        lattice_quantum_floor(ls, operator_from_pauli_coeffs(H_G_COEFFS))


def test_improved_bound_scaling():
    assert abs(improved_bound_scaling(-526.0, -8.0, -7.39) - (-485.8925)) < 1e-9
    assert abs(improved_bound_scaling(-526.0, -8.0, -6.56) - (-431.32)) < 1e-9
    with pytest.raises(ValueError):
        improved_bound_scaling(-526.0, 0.0, -7.39)


def test_bundled_lattice():
    ls = load_lattice(bundled_lattice_path())
    assert ls.vertices == 73
    assert len(ls.edges) == 91
    assert abs(ls.total_coupling() - 65.75) < 1e-9
    on_b = check_bipartite(ls)
    side_a, side_b = np.flatnonzero(~on_b), np.flatnonzero(on_b)
    assert {len(side_a), len(side_b)} == {37, 36}
    local = gisin_variant(2.0)
    beta, cert = lattice_classical_bound(ls, local)
    assert abs(beta - (-526.0)) < 1e-9
    assert lattice_certificate_value(ls, local, cert) == beta
    floor = lattice_quantum_floor(ls, operator_from_pauli_coeffs(H_G_COEFFS))
    assert abs(floor - 65.75 * (-16 / np.sqrt(3))) < 1e-9


def test_streamed_digest_matches_one_json_list():
    c = DIGEST_CHUNK_VERTICES
    n = 2 * c + 5
    # a component across the first chunk boundary whose lowest vertex is c - 2,
    # one edge at the end of the last chunk, and every other vertex isolated
    edges = ((c - 2, c - 1, 1.0, "red"), (c, c - 1, 0.5, "green"),
             (c + 7, c, 0.25, "blue"), (n - 1, n - 3, 2.0, "other"))
    ls = LatticeSpec(n, edges)
    side_b = {c - 1, c + 7, n - 1}
    assert set(np.flatnonzero(check_bipartite(ls)).tolist()) == side_b
    local = gisin_variant(2.0)
    witness = classical_bound(local)[1]
    canon = json.dumps([[v, (witness.b if v in side_b else witness.a).tolist()] for v in range(n)])
    beta, cert = lattice_classical_bound(ls, local)
    assert cert.sha256() == hashlib.sha256(canon.encode()).hexdigest()
    assert lattice_certificate_value(ls, local, cert) == beta
