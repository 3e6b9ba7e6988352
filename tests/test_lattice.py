import hashlib
import itertools
import json

import numpy as np
import pytest

from bellbounce.bell import BellCoeffs, classical_bound, gisin_variant
from bellbounce.lattice import (
    DIGEST_CHUNK_VERTICES,
    MAX_LATTICE_VERTICES,
    LatticeSpec,
    _adjacency,
    bundled_lattice_path,
    check_bipartite,
    improved_bound_scaling,
    lattice_certificate_value,
    lattice_classical_bound,
    lattice_quantum_floor,
    load_lattice,
    parse_lattice,
    recouple_honeycomb,
)
from bellbounce.presets import H_G_COEFFS
from lattice_edges import rows, spec
from reference_ops import operator_from_pauli_coeffs

CHSH = BellCoeffs([[1.0, 1.0], [1.0, -1.0]])


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
        for u, v, j, _ in rows(ls):
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
    assert rows(ls) == ((0, 1, 2.0, "red"), (1, 2, 0.5, "green"))
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
    assert spec(MAX_LATTICE_VERTICES, ()).vertices == 2**20
    for count in (MAX_LATTICE_VERTICES + 1, 10**9):
        with pytest.raises(ValueError, match=rf"count {count} outside \[1, 1048576\]"):
            parse_lattice(f"vertices {count}\n0 1 1.0 red\n")


def test_total_coupling_adds_left_to_right():
    # sum() of floats is compensated from Python 3.12 on and would give 1.0 here
    ls = spec(4, ((0, 1, 1e16, "other"), (1, 2, 1.0, "other"), (2, 3, -1e16, "other")))
    assert ls.total_coupling() == 0.0
    # the sum starts from +0.0, so a lone -0.0 coupling totals +0.0
    assert np.copysign(1.0, spec(2, ((0, 1, -0.0, "other"),)).total_coupling()) == 1.0


def test_bipartite_check():
    path = spec(3, ((0, 1, 1.0, "other"), (1, 2, 1.0, "other")))
    on_b = check_bipartite(path)
    assert on_b.dtype == bool and on_b.shape == (3,)
    side_a, side_b = np.flatnonzero(~on_b), np.flatnonzero(on_b)
    assert set(side_a) == {0, 2} and set(side_b) == {1}
    triangle = spec(
        3, ((0, 1, 1.0, "other"), (1, 2, 1.0, "other"), (0, 2, 1.0, "other"))
    )
    with pytest.raises(ValueError, match="odd cycle|bipartite"):
        check_bipartite(triangle)


def _two_coloring_reference(n, edges):
    # Oracle: breadth-first search over one adjacency list per vertex, in edge order.
    adjacency = [[] for _ in range(n)]
    for u, v, _, _ in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    side = [0] * n
    for root in range(n):
        if side[root]:
            continue
        side[root] = 1
        queue = [root]
        for u in queue:
            for v in adjacency[u]:
                if not side[v]:
                    side[v] = 3 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return f"lattice is not bipartite: odd cycle through edge ({u}, {v})"
    return [s == 2 for s in side]


def test_bipartite_check_matches_adjacency_list_reference():
    # the side mask, or the edge an odd cycle is reported at, depends on visiting
    # each vertex's neighbors in edge order
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(1, 30))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()
        edges = [(u, v, 1.0, "other") for u, v in pairs if u != v]
        want = _two_coloring_reference(n, edges)
        try:
            got = check_bipartite(spec(n, edges)).tolist()
        except ValueError as exc:
            got = str(exc)
        assert got == want
        outcomes.add(type(want))
    assert outcomes == {list, str}


def test_adjacency_keeps_the_stable_sorts_order():
    # each vertex's neighbors in edge order, as a stable sort of the half-edges gives
    ls = load_lattice(bundled_lattice_path())
    rng = np.random.default_rng(8)
    label, order = rng.permutation(ls.vertices), rng.permutation(len(ls.u))
    shuffled = LatticeSpec(
        ls.vertices, label[ls.u][order], label[ls.v][order], ls.coupling[order], ls.color[order]
    )
    first, neighbors = _adjacency(shuffled)
    ends = np.stack([shuffled.u, shuffled.v], axis=1).ravel()
    stable = np.argsort(ends, kind="stable")
    assert np.array_equal(first, np.searchsorted(ends[stable], np.arange(ls.vertices + 1)))
    assert np.array_equal(neighbors, ends[stable ^ 1])


def test_honeycomb_coupling():
    ls = spec(5, ((0, 1, 2.0, "red"), (1, 2, 0.5, "green"), (2, 3, 0.75, "blue"),
                  (3, 4, 0.25, "other")))
    eps = 0.94
    recoupled = recouple_honeycomb(ls, eps)
    assert recoupled.coupling.tolist() == [1.0 + eps, (1.0 - eps) / 2.0, (1.0 - eps) / 2.0, 0.25]
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\], got"):
            recouple_honeycomb(ls, bad)


def test_spec_holds_read_only_edge_arrays():
    names = spec(4, ((0, 1, 2.0, "red"), (1, 2, 0.5, "green"), (2, 3, 0.25, "other")))
    codes = LatticeSpec(4, [0, 1, 2], [1, 2, 3], [2.0, 0.5, 0.25], [0, 1, 3])
    for ls in (names, codes):
        assert ls.u.dtype == ls.v.dtype == np.int64 and ls.coupling.dtype == float
        assert ls.color.tolist() == [0, 1, 3]
        for values in (ls.u, ls.v, ls.coupling, ls.color):
            assert not values.flags.writeable
    with pytest.raises(ValueError, match="unknown edge color 4"):
        LatticeSpec(2, [0], [1], [1.0], [4])
    with pytest.raises(ValueError, match="1-d and of one length"):
        LatticeSpec(3, [0], [1, 2], [1.0], ["red"])
    # each colored edge takes its color's coupling, bit for bit; "other" keeps its own
    recoupled = recouple_honeycomb(names, 0.3)
    assert recoupled.coupling.tolist() == [1.0 + 0.3, (1.0 - 0.3) / 2.0, 0.25]
    assert recoupled.color.tolist() == [0, 1, 3] and names.coupling.tolist() == [2.0, 0.5, 0.25]


def test_two_edge_path_closed_form():
    local = gisin_variant(2.0)
    ls = spec(3, ((0, 1, 2.0, "other"), (1, 2, 1.0, "other")))
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
        ls = spec(n, tuple(edges))
        beta, cert = lattice_classical_bound(ls, CHSH)
        assert abs(beta - _enumerate_bound(ls, CHSH)) < 1e-9
        assert lattice_certificate_value(ls, CHSH, cert) == beta


def test_negative_coupling_rejected():
    ls = spec(2, ((0, 1, -1.0, "other"),))
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
    assert len(rows(ls)) == 91
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
    ls = spec(n, edges)
    side_b = {c - 1, c + 7, n - 1}
    assert set(np.flatnonzero(check_bipartite(ls)).tolist()) == side_b
    local = gisin_variant(2.0)
    witness = classical_bound(local)[1]
    canon = json.dumps([[v, (witness.b if v in side_b else witness.a).tolist()] for v in range(n)])
    beta, cert = lattice_classical_bound(ls, local)
    assert cert.sha256() == hashlib.sha256(canon.encode()).hexdigest()
    assert lattice_certificate_value(ls, local, cert) == beta
