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
from dataclasses import dataclass, replace
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
    "recouple_honeycomb",
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
# About 16 B per vertex: 2^20 vertices peak at 52 MB (the bundled file at 36 MB). A short
# header may declare any count, so it is capped at 228x the largest benchmark patch.
MAX_LATTICE_VERTICES = 2**20
# Vertices per piece of certificate text handed to sha256 (about 1 MB of text each).
DIGEST_CHUNK_VERTICES = 2**16


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """A vertex count and read-only edge arrays; color indexes EDGE_COLORS (or names it)."""

    vertices: int
    u: np.ndarray
    v: np.ndarray
    coupling: np.ndarray
    color: np.ndarray

    def __post_init__(self):
        if not 1 <= self.vertices <= MAX_LATTICE_VERTICES:
            raise ValueError(f"vertex count {self.vertices} outside [1, {MAX_LATTICE_VERTICES}]")
        try:
            u, v = np.array(self.u, dtype=np.int64), np.array(self.v, dtype=np.int64)
        except OverflowError:  # out of range anyway; kept exact for the message
            u, v = np.array(self.u, dtype=object), np.array(self.v, dtype=object)
        coupling, color = np.array(self.coupling, dtype=float), np.asarray(self.color)
        if color.dtype.kind == "U":  # names
            color = np.select([color == c for c in EDGE_COLORS], range(len(EDGE_COLORS)), -1)
        if {u.shape, v.shape, coupling.shape, color.shape} != {(u.size,)}:
            raise ValueError("edge arrays must be 1-d and of one length")
        outside = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= self.vertices)
        unknown = (color < 0) | (color >= len(EDGE_COLORS))
        # the first bad edge, if any, by the first rule it breaks
        for i in np.flatnonzero((u == v) | outside | ~np.isfinite(coupling) | unknown)[:1]:
            if u[i] == v[i]:
                raise ValueError(f"self-loop at vertex {u[i]}")
            if outside[i]:
                raise ValueError(f"edge ({u[i]}, {v[i]}) outside vertex range")
            if not np.isfinite(coupling[i]):
                raise ValueError(f"edge ({u[i]}, {v[i]}) has non-finite coupling")
            raise ValueError(f"unknown edge color {np.asarray(self.color)[i].item()!r}")
        arrays = u.astype(np.int64), v.astype(np.int64), coupling, color.astype(np.int8)
        for name, values in zip(("u", "v", "coupling", "color"), arrays):
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        with np.errstate(over="ignore"):
            if not np.isfinite(self.total_coupling()):
                raise ValueError("total coupling overflows the float range")

    def total_coupling(self) -> float:
        # Left to right in plain float adds from +0.0: sum() compensates from Python
        # 3.12 on and np.sum adds pairwise, but np.cumsum adds in order.
        return float(np.cumsum(np.append(0.0, self.coupling))[-1])


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


def recouple_honeycomb(ls: LatticeSpec, params: HoneycombParams) -> LatticeSpec:
    """The lattice with honeycomb couplings on its colored edges; "other" edges keep theirs."""
    other = EDGE_COLORS.index("other")
    by_color = np.array([honeycomb_coupling(params, c) for c in EDGE_COLORS[:other]] + [np.nan])
    return replace(ls, coupling=np.where(ls.color == other, ls.coupling, by_color[ls.color]))


def check_bipartite(ls: LatticeSpec) -> np.ndarray:
    """Two-color the lattice by breadth-first search: one boolean per vertex, True on side B.

    Each connected component's lowest vertex is on side A, as is every isolated
    vertex. Raises ValueError if an odd cycle makes the graph non-bipartite.
    """
    ends = np.stack([ls.u, ls.v], axis=1).ravel()  # the half-edges u0, v0, u1, v1, ...
    order = np.argsort(ends, kind="stable")  # by vertex; each vertex's in edge order
    first = np.searchsorted(ends[order], np.arange(ls.vertices + 1))
    offsets = memoryview(first)  # indexes to Python ints, at 8 bytes per vertex
    neighbors = ends[order ^ 1].tolist()  # half-edge k's neighbor is half-edge k ^ 1's vertex
    side = bytearray(ls.vertices)  # 0 unseen, 1 side A, 2 side B
    for root in np.flatnonzero(np.diff(first)).tolist():  # isolated ones stay on side A
        if side[root]:
            continue
        side[root] = 1
        queue = [root]
        for x in queue:
            for k in range(offsets[x], offsets[x + 1]):
                y = neighbors[k]
                if not side[y]:
                    side[y] = 3 - side[x]
                    queue.append(y)
                elif side[y] == side[x]:
                    raise ValueError(
                        f"lattice is not bipartite: odd cycle through edge ({x}, {y})"
                    )
    return np.frombuffer(side, dtype=np.uint8) == 2


def _require_nonnegative(ls: LatticeSpec):
    for i in np.flatnonzero(ls.coupling < 0)[:1]:  # the first negative edge, if any
        j, u, v = float(ls.coupling[i]), ls.u[i], ls.v[i]
        raise ValueError(f"unsupported lattice: negative coupling {j!r} on edge ({u}, {v})")


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
    for u, v, coupling in zip(ls.u.tolist(), ls.v.tolist(), ls.coupling.tolist()):
        a, b = (v, u) if on_b[u] else (u, v)
        strategy = DeterministicStrategy(certificate.assignment(a), certificate.assignment(b))
        total += coupling * bell_value(local, strategy.correlators())
    return total


def lattice_quantum_floor(ls: LatticeSpec, local_op) -> float:
    """(sum_e J_e) * lambda_min(local_op): a ground-energy lower bound."""
    _require_nonnegative(ls)
    return ls.total_coupling() * min_eigenvalue(local_op) if ls.coupling.size else 0.0


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
    u, v, coupling, color = [], [], [], []
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
            u.append(int(parts[0]))
            v.append(int(parts[1]))
            coupling.append(float(parts[2]))
        except ValueError:
            raise ValueError(f"line {lineno}: bad edge fields {line!r}") from None
        color.append(parts[3])
    if vertices is None:
        raise ValueError("missing 'vertices N' header")
    return LatticeSpec(vertices, u, v, coupling, color)


def load_lattice(path) -> LatticeSpec:
    return parse_lattice(Path(path).read_text(encoding="utf-8"))


def bundled_lattice_path() -> Path:
    """Path of the bundled 73-vertex honeycomb-patch lattice file."""
    return Path(__file__).parent / "data" / "honeycomb73.lattice"
