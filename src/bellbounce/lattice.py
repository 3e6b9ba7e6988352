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

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bell import BellCoeffs, DeterministicStrategy, bell_value, classical_bound
from .pauli import min_eigenvalue

__all__ = [
    "EDGE_COLORS",
    "LatticeSpec",
    "LatticeCertificate",
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
# A lattice run holds about 80 B per vertex, mostly the two-coloring's adjacency lists
# (2^20 vertices peak at 117 MB); a short header may declare any count, so it is capped
# at 228x the largest benchmark patch.
MAX_LATTICE_VERTICES = 2**20
# Vertices per piece of certificate text handed to sha256 (about 1 MB of text each).
DIGEST_CHUNK_VERTICES = 2**16


@dataclass(frozen=True)
class LatticeSpec:
    """A vertex count plus weighted, color-tagged edges."""

    vertices: int
    edges: tuple[tuple[int, int, float, str], ...]
    # Set by __post_init__ in the pass that validates the edges.
    _total: float = field(init=False, repr=False, compare=False)
    _negative: tuple[int, int, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.vertices <= MAX_LATTICE_VERTICES:
            raise ValueError(f"vertex count {self.vertices} outside [1, {MAX_LATTICE_VERTICES}]")
        edges = []
        # Left to right in plain float adds: sum() compensates from Python 3.12 on.
        total, negative = 0.0, None
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
            if coupling < 0 and negative is None:
                negative = (u, v, coupling)
            total += coupling
            edges.append((u, v, coupling, color))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_total", total)
        object.__setattr__(self, "_negative", negative)

    def total_coupling(self) -> float:
        return self._total


@dataclass(frozen=True)
class LatticeCertificate:
    """A global strategy: the local witness a* on side A, b* on side B.

    on_b holds one boolean per vertex, True on side B.
    """

    witness: DeterministicStrategy
    on_b: np.ndarray

    def assignment(self, vertex: int) -> np.ndarray:
        return self.witness.b if self.on_b[vertex] else self.witness.a

    def sha256(self) -> str:
        """sha256 of json.dumps([[v, assignment(v).tolist()], ...]) over every vertex.

        The text is hashed in pieces of DIGEST_CHUNK_VERTICES vertices, so no
        string or list covering every vertex is held.
        """
        labels = (json.dumps(self.witness.a.tolist()), json.dumps(self.witness.b.tolist()))
        digest = hashlib.sha256(b"[")
        for lo in range(0, len(self.on_b), DIGEST_CHUNK_VERTICES):
            sides = self.on_b[lo : lo + DIGEST_CHUNK_VERTICES].tolist()
            text = ", ".join(f"[{v}, {labels[s]}]" for v, s in enumerate(sides, start=lo))
            digest.update(((", " if lo else "") + text).encode())
        digest.update(b"]")
        return digest.hexdigest()


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


def check_bipartite(ls: LatticeSpec) -> np.ndarray:
    """Two-color the lattice by breadth-first search.

    Returns a boolean array over the vertices, true on side B; each connected
    component's lowest-index vertex lands on side A, and isolated vertices
    default to side A.

    Raises:
        ValueError: if an odd cycle makes the graph non-bipartite.
    """
    adjacency = [[] for _ in range(ls.vertices)]
    for u, v, _, _ in ls.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    side = bytearray(ls.vertices)  # 0 unseen, 1 side A, 2 side B
    for root in range(ls.vertices):
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
                    raise ValueError(
                        f"lattice is not bipartite: odd cycle through edge ({u}, {v})"
                    )
    return np.frombuffer(side, dtype=np.uint8) == 2


def _require_nonnegative(ls: LatticeSpec):
    if ls._negative is not None:
        u, v, coupling = ls._negative
        raise ValueError(
            f"unsupported lattice: negative coupling {coupling!r} on edge ({u}, {v})"
        )


def lattice_classical_bound(
    ls: LatticeSpec, local: BellCoeffs
) -> tuple[float, LatticeCertificate]:
    """Classical bound of the edge-summed Bell expression, with certificate.

    Requires a bipartite lattice with nonnegative couplings; then
    beta = (sum_e J_e) * beta_C(local), attained by assigning the local
    witness strategy a* to every A-side vertex and b* to every B-side vertex.

    Returns:
        (beta, certificate): the witness and each vertex's side.
    """
    _require_nonnegative(ls)
    on_b = check_bipartite(ls)
    beta_local, witness = classical_bound(local)
    return ls.total_coupling() * beta_local, LatticeCertificate(witness, on_b)


def lattice_certificate_value(
    ls: LatticeSpec, local: BellCoeffs, certificate: LatticeCertificate
) -> float:
    """Edge-by-edge evaluation of a global strategy assignment.

    Each edge is scored as J_e times the local expression at its endpoints'
    assignments, with the endpoint on the lattice's own side A playing party A.
    """
    on_b = check_bipartite(ls)
    total = 0.0
    for u, v, coupling, _ in ls.edges:
        a_vertex, b_vertex = (v, u) if on_b[u] else (u, v)
        strategy = DeterministicStrategy(
            a=certificate.assignment(a_vertex), b=certificate.assignment(b_vertex)
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
