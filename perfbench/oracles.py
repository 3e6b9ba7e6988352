"""Independent reference computations for checking bellbounce outputs.

Nothing here imports bellbounce: every quantity the checks compare against
is recomputed from the documented conventions alone.

- Angles (theta, phi) map to the Bloch vector (cos t, sin t cos p, sin t sin p).
- Pauli pairs are ordered xx, xy, xz, yx, yy, yz, zx, zy, zz (index 3i + j),
  and transfer-matrix columns are ordered x1 * m2 + x2.
- The classical bound is beta_C = min over +-1 strategies of a^T alpha b.
- The depolarizing channel on one qubit is (1-3p) rho + p sum_s s rho s.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque

import numpy as np

SQRT3 = np.sqrt(3.0)
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)

# Tetrahedral A directions (+-1, +-1, +-1)/sqrt3 and coordinate-axis B
# directions: the canonical settings every (4, 3) pipeline starts from.
TETRA_A = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / SQRT3
AXES_B = np.eye(3)

H_G = (4.0 / SQRT3) * np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0, 2.0])
H_ELEGANT = (4.0 / SQRT3) * np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0])

# Strategies enumerated per block, which keeps the oracle's memory flat.
_CHUNK = 4096


def gisin(delta: float) -> np.ndarray:
    d = float(delta)
    return np.array([[1.0, 1.0, d], [1.0, -1.0, -d], [-1.0, 1.0, -d], [-1.0, -1.0, d]])


def gisin_closed_form(delta: float) -> float:
    d = float(delta)
    return -2.0 * abs(d) - abs(d + 2.0) - abs(d - 2.0)


def bloch(angles) -> np.ndarray:
    """(m, 2) angle rows to (m, 3) unit Bloch vectors."""
    angles = np.asarray(angles, dtype=float).reshape(-1, 2)
    t, p = angles[:, 0], angles[:, 1]
    return np.column_stack([np.cos(t), np.sin(t) * np.cos(p), np.sin(t) * np.sin(p)])


def split_settings(vec, m1: int, m2: int) -> tuple[np.ndarray, np.ndarray]:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (2 * (m1 + m2),):
        raise ValueError(f"expected {2 * (m1 + m2)} angles, got shape {vec.shape}")
    return bloch(vec[: 2 * m1]), bloch(vec[2 * m1 :])


def transfer_matrix(na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """9 x (m1 m2) matrix whose column (x1, x2) is nA[x1] (x) nB[x2]."""
    cols = [np.kron(na[x1], nb[x2]) for x1 in range(len(na)) for x2 in range(len(nb))]
    return np.column_stack(cols)


def quantum_value(c, na: np.ndarray, nb: np.ndarray, alpha: np.ndarray) -> float:
    """sum_ab alpha[a, b] nA[a]^T C nB[b] with C the 3x3 correlator matrix."""
    cmat = np.asarray(c, dtype=float).reshape(3, 3)
    return float(sum(
        alpha[a, b] * (na[a] @ cmat @ nb[b])
        for a in range(alpha.shape[0])
        for b in range(alpha.shape[1])
    ))


def _patterns(start: int, stop: int, m: int) -> np.ndarray:
    # +-1 tuples for the integers [start, stop), lexicographic with -1 < +1.
    k = np.arange(start, stop)
    return 2.0 * ((k[:, None] >> np.arange(m - 1, -1, -1)) & 1) - 1.0


def classical_bound(alpha) -> float:
    """min_b -sum_x1 |(alpha b)_x1|, enumerating B's outcomes block by block."""
    alpha = np.asarray(alpha, dtype=float)
    m2 = alpha.shape[1]
    best = np.inf
    for start in range(0, 2**m2, _CHUNK):
        pats = _patterns(start, min(2**m2, start + _CHUNK), m2)
        best = min(best, float((-np.abs(pats @ alpha.T).sum(axis=1)).min()))
    return best


def classical_bound_bruteforce(alpha) -> float:
    """min over all 2^(m1+m2) pairs of a^T alpha b; small scenarios only."""
    alpha = np.asarray(alpha, dtype=float)
    m1, m2 = alpha.shape
    if m1 + m2 > 20:
        raise ValueError("brute force is limited to m1 + m2 <= 20")
    return float((_patterns(0, 2**m1, m1) @ alpha @ _patterns(0, 2**m2, m2).T).min())


def strategy_value(alpha, a, b) -> float:
    return float(np.asarray(a, dtype=float) @ np.asarray(alpha, dtype=float) @ np.asarray(b, dtype=float))


def lexicographic_witness(alpha) -> tuple[list[int], list[int]]:
    """Optimal (a, b) with the smallest b, then a, in -1 < +1 order.

    For each b the best a sets a[x1] = -sign((alpha b)[x1]), and -1 where
    that row sum is zero. Intended for small matrices with exact entries.
    """
    alpha = np.asarray(alpha, dtype=float)
    m2 = alpha.shape[1]
    pats = _patterns(0, 2**m2, m2)
    rows = pats @ alpha.T
    k = int(np.argmin(-np.abs(rows).sum(axis=1)))
    a = np.where(rows[k] < 0, 1, -1)
    return [int(x) for x in a], [int(x) for x in pats[k]]


def pauli_operator(h) -> np.ndarray:
    """sum_ij h[3i+j] sigma_i (x) sigma_j as a 4x4 matrix."""
    h = np.asarray(h, dtype=float)
    return sum(h[3 * i + j] * np.kron(PAULIS[i], PAULIS[j]) for i in range(3) for j in range(3))


def bell_operator(na: np.ndarray, nb: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    def obs(n):
        return n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]

    return sum(
        alpha[a, b] * np.kron(obs(na[a]), obs(nb[b]))
        for a in range(alpha.shape[0])
        for b in range(alpha.shape[1])
    )


def min_eigenvalue(op) -> float:
    return float(np.linalg.eigvalsh(np.asarray(op))[0])


# ---------------------------------------------------------------------------
# noisy singlet: X(q1), H(q0), CNOT(q0 -> q1), Z(q0) on |00>, with the
# channel applied to each qubit a gate touches, right after that gate.


def _on(u: np.ndarray, qubit: int) -> np.ndarray:
    return np.kron(u, _I2) if qubit == 0 else np.kron(_I2, u)


def _depolarize(rho: np.ndarray, qubit: int, p: float) -> np.ndarray:
    out = (1.0 - 3.0 * p) * rho
    for s in PAULIS:
        k = _on(s, qubit)
        out = out + p * (k @ rho @ k)
    return out


def noisy_singlet(p: float) -> np.ndarray:
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    circuit = (
        (_on(PAULIS[0], 1), (1,)),
        (_on(hadamard, 0), (0,)),
        (cnot, (0, 1)),
        (_on(PAULIS[2], 0), (0,)),
    )
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    for u, touched in circuit:
        rho = u @ rho @ u.conj().T
        for q in touched:
            rho = _depolarize(rho, q, p)
    return rho


def correlators(rho: np.ndarray) -> np.ndarray:
    """c[3i+j] = Tr(rho sigma_i (x) sigma_j)."""
    return np.array(
        [np.trace(rho @ np.kron(PAULIS[i], PAULIS[j])).real for i in range(3) for j in range(3)]
    )


# ---------------------------------------------------------------------------
# lattices: 'vertices N' header, then 'u v J color' per edge, '#' comments


def parse_lattice(text: str) -> tuple[int, list[tuple[int, int, float]]]:
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if lines[0][0] != "vertices":
        raise ValueError("lattice text must start with 'vertices N'")
    return int(lines[0][1]), [(int(u), int(v), float(j)) for u, v, j, _ in lines[1:]]


def two_coloring(n: int, edges) -> list[int]:
    """0/1 side per vertex; each component's lowest vertex gets side 0."""
    nbrs = [[] for _ in range(n)]
    for u, v, _ in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [-1] * n
    for root in range(n):
        if side[root] >= 0:
            continue
        side[root] = 0
        todo = deque([root])
        while todo:
            u = todo.popleft()
            for v in nbrs[u]:
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    todo.append(v)
                elif side[v] == side[u]:
                    raise ValueError(f"odd cycle through edge ({u}, {v})")
    return side


def certificate_digest(side: list[int], a: list[int], b: list[int]) -> str:
    """sha256 of the canonical [[vertex, assignment], ...] list."""
    canon = json.dumps([[v, a if s == 0 else b] for v, s in enumerate(side)])
    return hashlib.sha256(canon.encode()).hexdigest()


def certificate_value(edges, side: list[int], alpha, a, b) -> float:
    """Edge-by-edge score of assigning a to side 0 and b to side 1."""
    assign = (np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    total = 0.0
    for u, v, coupling in edges:
        ua, vb = (u, v) if side[u] == 0 else (v, u)
        total += coupling * (assign[side[ua]] @ alpha @ assign[side[vb]])
    return total
