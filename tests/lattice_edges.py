"""Edge-list helpers for lattice tests: (u, v, J, color) rows in, arrays out."""

from bellbounce.lattice import EDGE_COLORS, LatticeSpec


def spec(vertices: int, edges) -> LatticeSpec:
    """LatticeSpec from a sequence of (u, v, coupling, color name) rows."""
    columns = [list(col) for col in zip(*edges)] or [[], [], [], []]
    return LatticeSpec(vertices, *columns)


def rows(ls: LatticeSpec) -> tuple:
    """The spec's edges as (u, v, coupling, color name) rows, in file order."""
    colors = [EDGE_COLORS[c] for c in ls.color.tolist()]
    return tuple(zip(ls.u.tolist(), ls.v.tolist(), ls.coupling.tolist(), colors))
