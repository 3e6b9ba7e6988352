"""Edge-summed Bell bounds on bipartite lattices.

On a bipartite graph with nonnegative couplings, one shared pair of optimal
local strategies attains every edge's classical optimum simultaneously, so
the lattice bound is (sum of couplings) times the single-edge bound. The
closed form is restricted to exactly that regime; anything else is rejected
rather than approximated.

Lattice file format: a header line ``vertices N`` followed by one line per
edge ``u v J color`` (whitespace-separated); ``#`` starts a comment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bell import BellCoeffs, DeterministicStrategy, bell_value, classical_bound
from .pauli import min_eigenvalue

__all__ = [
    "EDGE_COLORS",
    "LatticeSpec",
    "HoneycombParams",
    "honeycomb_coupling",
    "check_bipartite",
    "lattice_classical_bound",
    "lattice_certificate_value",
    "lattice_quantum_floor",
    "improved_bound_scaling",
    "parse_lattice",
    "load_lattice",
    "bundled_lattice_path",
]

EDGE_COLORS = ("red", "green", "blue", "other")
# A lattice run holds about 320 B of Python lists per vertex (2^20 peaked at 348 MB); a
# short header may declare any count, so it is capped at 228x the largest benchmark patch.
MAX_LATTICE_VERTICES = 2**20


@dataclass(frozen=True)
class LatticeSpec:
    """A vertex count plus weighted, color-tagged edges."""

    vertices: int
    edges: tuple[tuple[int, int, float, str], ...]

    def __post_init__(self):
        if not 1 <= self.vertices <= MAX_LATTICE_VERTICES:
            raise ValueError(f"vertex count {self.vertices} outside [1, {MAX_LATTICE_VERTICES}]")
        edges = []
        for e in self.edges:
            u, v, coupling, color = int(e[0]), int(e[1]), float(e[2]), str(e[3])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertices and 0 <= v < self.vertices):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            if not np.isfinite(coupling):
                raise ValueError(f"edge ({u}, {v}) has non-finite coupling")
            if color not in EDGE_COLORS:
                raise ValueError(f"unknown edge color {color!r}")
            edges.append((u, v, coupling, color))
        object.__setattr__(self, "edges", tuple(edges))

    def total_coupling(self) -> float:
        return float(sum(e[2] for e in self.edges))


@dataclass(frozen=True)
class HoneycombParams:
    """Coupling anisotropy of the three-colored honeycomb model."""

    epsilon: float

    def __post_init__(self):
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")


def honeycomb_coupling(params: HoneycombParams, color: str) -> float:
    """Edge coupling by color: 1+epsilon on red links, (1-epsilon)/2 on green/blue."""
    if color == "red":
        return 1.0 + params.epsilon
    if color in ("green", "blue"):
        return (1.0 - params.epsilon) / 2.0
    raise ValueError(f"unknown color {color!r} for honeycomb coupling")


def check_bipartite(ls: LatticeSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two-color the lattice by breadth-first search.

    Returns (side_a, side_b) as sorted vertex tuples; each connected
    component's lowest-index vertex lands on side A, and isolated vertices
    default to side A.

    Raises:
        ValueError: if an odd cycle makes the graph non-bipartite.
    """
    adjacency = [[] for _ in range(ls.vertices)]
    for u, v, _, _ in ls.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    color = [-1] * ls.vertices
    for root in range(ls.vertices):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise ValueError(
                        f"lattice is not bipartite: odd cycle through edge ({u}, {v})"
                    )
    side_a = tuple(i for i in range(ls.vertices) if color[i] == 0)
    side_b = tuple(i for i in range(ls.vertices) if color[i] == 1)
    return side_a, side_b


def _require_nonnegative(ls: LatticeSpec):
    for u, v, coupling, _ in ls.edges:
        if coupling < 0:
            raise ValueError(
                f"unsupported lattice: negative coupling {coupling!r} on edge ({u}, {v})"
            )


def lattice_classical_bound(
    ls: LatticeSpec, local: BellCoeffs
) -> tuple[float, dict[int, np.ndarray]]:
    """Classical bound of the edge-summed Bell expression, with certificate.

    Requires a bipartite lattice with nonnegative couplings; then
    beta = (sum_e J_e) * beta_C(local), attained by assigning the local
    witness strategy a* to every A-side vertex and b* to every B-side vertex.

    Returns:
        (beta, certificate) where certificate maps each vertex to its
        assignment vector.
    """
    _require_nonnegative(ls)
    side_a, side_b = check_bipartite(ls)
    beta_local, witness = classical_bound(local)
    beta = ls.total_coupling() * beta_local
    certificate: dict[int, np.ndarray] = {}
    for u in side_a:
        certificate[u] = witness.a
    for v in side_b:
        certificate[v] = witness.b
    return beta, certificate


def lattice_certificate_value(
    ls: LatticeSpec, local: BellCoeffs, certificate: dict[int, np.ndarray]
) -> float:
    """Edge-by-edge evaluation of a global strategy assignment.

    Each edge is scored as J_e times the local expression at its endpoints'
    assignments, with the A-side endpoint playing party A.
    """
    side_a, _ = check_bipartite(ls)
    in_a = set(side_a)
    total = 0.0
    for u, v, coupling, _ in ls.edges:
        a_vertex, b_vertex = (u, v) if u in in_a else (v, u)
        strategy = DeterministicStrategy(
            a=certificate[a_vertex], b=certificate[b_vertex]
        )
        total += coupling * bell_value(local, strategy.correlators())
    return total


def lattice_quantum_floor(ls: LatticeSpec, local_op) -> float:
    """(sum_e J_e) * lambda_min(local_op): a ground-energy lower bound."""
    _require_nonnegative(ls)
    if not ls.edges:
        return 0.0
    return ls.total_coupling() * min_eigenvalue(local_op)


def improved_bound_scaling(
    beta_lattice_original: float, beta_local_original: float, beta_local_new: float
) -> float:
    """Rescale a lattice bound by the ratio of new to original local bounds."""
    if beta_local_original == 0.0:
        raise ValueError("original local bound must be nonzero")
    return beta_lattice_original * (beta_local_new / beta_local_original)


def parse_lattice(text: str) -> LatticeSpec:
    """Parse the lattice file format; see the module docstring."""
    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if vertices is None:
            if len(parts) != 2 or parts[0] != "vertices":
                raise ValueError(f"line {lineno}: expected header 'vertices N'")
            try:
                vertices = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            continue
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'u v J color', got {line!r}")
        try:
            u, v, coupling = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: bad edge fields {line!r}") from None
        edges.append((u, v, coupling, parts[3]))
    if vertices is None:
        raise ValueError("missing 'vertices N' header")
    return LatticeSpec(vertices, tuple(edges))


def load_lattice(path) -> LatticeSpec:
    return parse_lattice(Path(path).read_text())


def bundled_lattice_path() -> Path:
    """Path of the bundled 73-vertex honeycomb-patch lattice file."""
    return Path(__file__).parent / "data" / "honeycomb73.lattice"
