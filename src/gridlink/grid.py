"""Grid graphs, quadrants, landmark sets, and symmetry transforms.

Vertices are matrix coordinates ``(row, col)``, 1-based, row 1 at the top.
Edges are stored canonically as ``(min(u, v), max(u, v))`` tuples so edge sets
built by different code paths compare equal.  Every value here is immutable;
derived graphs are produced by the ``without_*`` / ``contracted`` / ``induced``
constructors rather than mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, NamedTuple


class Vertex(NamedTuple):
    """A grid position, 1-based matrix convention (row 1 at the top)."""

    row: int
    col: int


Edge = tuple[Vertex, Vertex]
Path = tuple[Vertex, ...]


def vertex(v: Iterable[int]) -> Vertex:
    if type(v) is Vertex:
        return v
    r, c = v
    return Vertex(r, c)


def edge(u: Iterable[int], v: Iterable[int]) -> Edge:
    """Canonical (sorted) edge tuple."""
    a, b = vertex(u), vertex(v)
    return (a, b) if a <= b else (b, a)


def path_edges(path: Iterable[Iterable[int]]) -> list[Edge]:
    vs = [vertex(p) for p in path]
    return [edge(vs[k], vs[k + 1]) for k in range(len(vs) - 1)]


@dataclass(frozen=True)
class GridGraph:
    """A subgraph of a ``rows x cols`` grid, possibly with contracted vertices.

    Adjacency is defined purely by ``present_edges`` -- after a contraction an
    edge may join vertices that are not grid neighbours, and that is fine.
    """

    rows: int
    cols: int
    present_vertices: frozenset[Vertex]
    present_edges: frozenset[Edge]

    @cached_property
    def adjacency(self) -> dict[Vertex, tuple[Vertex, ...]]:
        nbrs: dict[Vertex, list[Vertex]] = {v: [] for v in self.present_vertices}
        for u, v in self.present_edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        # Neighbour order is (row, col) lexicographic.  The routing solver
        # sorts its own compiled adjacency; adjusted_quadrant and the flow
        # oracle (flow.escape_flow) read this.
        return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

    @cached_property
    def compiled_form(self):
        """The routing solver's compiled form of this graph, built on first use
        and kept on the graph so that it lives exactly as long as the graph."""
        from .routing import _Compiled  # routing imports this module

        return _Compiled(self)

    def __getstate__(self) -> dict:
        # the cached properties are rebuilt on first use, so a solved graph
        # pickles (and copies) as small as a fresh one
        return {k: v for k, v in self.__dict__.items() if k not in ("adjacency", "compiled_form")}

    def has_edge(self, u: Iterable[int], v: Iterable[int]) -> bool:
        return edge(u, v) in self.present_edges

    def without_edges(self, gone: Iterable[Edge]) -> "GridGraph":
        dead = {edge(*e) for e in gone}
        missing = dead - self.present_edges
        if missing:
            raise ValueError(f"cannot remove absent edges: {sorted(missing)}")
        return GridGraph(self.rows, self.cols, self.present_vertices, self.present_edges - dead)

    def without_vertices(self, gone: Iterable[Iterable[int]]) -> "GridGraph":
        dead = {vertex(v) for v in gone}
        missing = dead - self.present_vertices
        if missing:
            raise ValueError(f"cannot remove absent vertices: {sorted(missing)}")
        keep = self.present_vertices - dead
        edges = frozenset(e for e in self.present_edges if e[0] in keep and e[1] in keep)
        return GridGraph(self.rows, self.cols, keep, edges)

    def contracted(self, u: Iterable[int], v: Iterable[int]) -> "GridGraph":
        """Merge ``u`` into ``v``: edges at ``u`` are re-attached to ``v``."""
        a, b = vertex(u), vertex(v)
        if a == b:
            raise ValueError("cannot contract a vertex into itself")
        for w in (a, b):
            if w not in self.present_vertices:
                raise ValueError(f"cannot contract absent vertex {w}")
        keep = self.present_vertices - {a}
        edges = set()
        for p, q in self.present_edges:
            p2 = b if p == a else p
            q2 = b if q == a else q
            if p2 != q2:
                edges.add(edge(p2, q2))
        return GridGraph(self.rows, self.cols, keep, frozenset(edges))

    def induced(self, keep: Iterable[Iterable[int]]) -> "GridGraph":
        verts = frozenset(vertex(v) for v in keep) & self.present_vertices
        edges = frozenset(e for e in self.present_edges if e[0] in verts and e[1] in verts)
        return GridGraph(self.rows, self.cols, verts, edges)


def make_grid(rows: int, cols: int) -> GridGraph:
    """The full grid graph P_rows x P_cols."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    verts = frozenset(Vertex(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1))
    edges: set[Edge] = set()
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if c < cols:
                edges.add(edge((r, c), (r, c + 1)))
            if r < rows:
                edges.add(edge((r, c), (r + 1, c)))
    return GridGraph(rows, cols, verts, frozenset(edges))


class Corner(Enum):
    UL = "UL"
    UR = "UR"
    LL = "LL"
    LR = "LR"


# The eight symmetries of the 6x6 grid, identity first.  Entry 4, the
# transpose, maps the UL and LR quadrants onto themselves, fixing x0 and
# swapping the lines A and B; entry 6, the anti-transpose, does the same for
# UR and LL.
SYMMETRIES: tuple[Callable[[Vertex], Vertex], ...] = (
    lambda v: v,
    lambda v: Vertex(v.col, 7 - v.row),
    lambda v: Vertex(7 - v.row, 7 - v.col),
    lambda v: Vertex(7 - v.col, v.row),
    lambda v: Vertex(v.col, v.row),
    lambda v: Vertex(7 - v.row, v.col),
    lambda v: Vertex(7 - v.col, 7 - v.row),
    lambda v: Vertex(v.row, 7 - v.col),
)

# The symmetry that carries the UL quadrant onto each corner's: the
# identity, or a reflection of the columns, the rows or both.
_CORNER_SYMMETRY = {Corner.UL: 0, Corner.UR: 7, Corner.LL: 5, Corner.LR: 2}


def to_global(corner: Corner, v: Iterable[int]) -> Vertex:
    """Map quadrant-local coordinates (1..3, row 3 = boundary line A) to the 6x6 grid.

    Each coordinate is either kept or reflected through 7, so the map is an
    involution and doubles as the global-to-local map.
    """
    return SYMMETRIES[_CORNER_SYMMETRY[corner]](vertex(v))


@dataclass(frozen=True)
class Quadrant:
    """One of the four 3x3 corner blocks of the 6x6 grid."""

    parent: GridGraph
    corner: Corner
    vertices: frozenset[Vertex]

    @cached_property
    def graph(self) -> GridGraph:
        return self.parent.induced(self.vertices)


def quadrant(grid: GridGraph, corner: Corner | str) -> Quadrant:
    if (grid.rows, grid.cols) != (6, 6):
        raise ValueError("quadrants are only defined for the 6x6 grid")
    c = corner if isinstance(corner, Corner) else Corner(str(corner).upper())
    block = frozenset(to_global(c, (i, j)) for i in range(1, 4) for j in range(1, 4))
    if not block <= grid.present_vertices:
        raise ValueError(f"grid is missing vertices of the {c.value} quadrant")
    return Quadrant(grid, c, block)


@dataclass(frozen=True)
class QuadrantLandmarks:
    """The named vertices, lines, and cycles of one quadrant, in global coordinates.

    ``A`` is the horizontal boundary line (listed outward-to-corner, i.e. by
    local column), ``B`` the vertical one (by local row); ``x0 = A cap B``.
    ``C0``/``C1`` are the central 4- and 12-cycles as edge lists, traversed
    from ``x0`` (resp. ``x1``) toward the lexicographically smaller cycle
    neighbour.  ``Z``, ``M``, ``S`` and the 8-cycle ``boundary_cycle`` follow
    the quadrant-local row/column conventions, mapped to global coordinates.
    """

    A: tuple[Vertex, Vertex, Vertex]
    B: tuple[Vertex, Vertex, Vertex]
    x0: Vertex
    x1: Vertex
    x2: Vertex
    y0: Vertex
    b: Vertex
    c: Vertex
    C0: tuple[Edge, ...]
    C1: tuple[Edge, ...]
    Z: frozenset[Vertex]
    M: frozenset[Vertex]
    S: frozenset[Vertex]
    boundary_cycle: tuple[Vertex, ...]


# The two central cycles of the 6x6 grid, as rings in a fixed traversal order.
C0_RING: tuple[Vertex, ...] = tuple(
    Vertex(*v) for v in [(3, 3), (3, 4), (4, 4), (4, 3)]
)
C1_RING: tuple[Vertex, ...] = tuple(
    Vertex(*v)
    for v in [
        (2, 2), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5),
        (5, 5), (5, 4), (5, 3), (5, 2), (4, 2), (3, 2),
    ]
)


def _cycle_edges_from(ring: tuple[Vertex, ...], start: Vertex) -> tuple[Edge, ...]:
    i = ring.index(start)
    n = len(ring)
    # Orient toward the lexicographically smaller neighbour of the start, so
    # the edge list is deterministic regardless of the ring's base direction.
    step = 1 if ring[(i + 1) % n] < ring[(i - 1) % n] else -1
    order = [ring[(i + step * k) % n] for k in range(n)]
    return tuple(edge(order[k], order[(k + 1) % n]) for k in range(n))


_BOUNDARY_LOCAL = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1), (2, 1)]


def _corner_landmarks(corner: Corner) -> QuadrantLandmarks:
    def g(i: int, j: int) -> Vertex:
        return to_global(corner, (i, j))

    x0 = g(3, 3)
    x1 = g(2, 2)
    return QuadrantLandmarks(
        A=(g(3, 1), g(3, 2), g(3, 3)),
        B=(g(1, 3), g(2, 3), g(3, 3)),
        x0=x0,
        x1=x1,
        x2=g(1, 1),
        y0=g(3, 1),
        b=g(2, 3),
        c=g(1, 1),
        C0=_cycle_edges_from(C0_RING, x0),
        C1=_cycle_edges_from(C1_RING, x1),
        Z=frozenset({g(2, 1), g(2, 2), g(2, 3), g(1, 2), g(3, 2)}),
        M=frozenset({g(1, 1), g(1, 2), g(1, 3), g(2, 1), g(3, 1), g(2, 2)}),
        S=frozenset({g(1, 1), g(1, 2), g(2, 1), g(2, 2)}),
        boundary_cycle=tuple(g(i, j) for i, j in _BOUNDARY_LOCAL),
    )


_LANDMARKS = {corner: _corner_landmarks(corner) for corner in Corner}


def landmarks(q: Quadrant) -> QuadrantLandmarks:
    """The quadrant's landmarks; they depend on its corner alone."""
    return _LANDMARKS[q.corner]


class AdjustedKind(Enum):
    Q0 = "Q0"
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"


@dataclass(frozen=True)
class AdjustedQuadrant:
    """A quadrant adjusted for mating into the line A.

    Local 3x3 coordinates; ``A`` is row 3 and carries no internal edges.
    ``N`` is the set of neighbours of A in the adjusted graph.
    """

    kind: AdjustedKind
    graph: GridGraph
    A: tuple[Vertex, Vertex, Vertex]
    N: frozenset[Vertex]


def adjusted_quadrant(kind: AdjustedKind | str) -> AdjustedQuadrant:
    k = kind if isinstance(kind, AdjustedKind) else AdjustedKind(str(kind).upper())
    a_line = (Vertex(3, 1), Vertex(3, 2), Vertex(3, 3))
    q0 = make_grid(3, 3).without_edges([edge((3, 1), (3, 2)), edge((3, 2), (3, 3))])
    if k is AdjustedKind.Q0:
        g = q0
    elif k is AdjustedKind.Q1:
        g = q0.without_vertices([(1, 1)]).without_edges([edge((1, 2), (1, 3))])
    elif k is AdjustedKind.Q2:
        g = q0.without_edges([edge((1, 2), (1, 3))]).contracted((1, 2), (2, 2))
    elif k is AdjustedKind.Q3:
        g = q0.without_edges(
            [edge((2, 1), (2, 2)), edge((2, 2), (2, 3))]
        ).contracted((2, 1), (1, 1))
    else:
        g = q0.without_edges(
            [edge((2, 1), (2, 2)), edge((2, 2), (2, 3))]
        ).contracted((2, 2), (1, 2))
    n = frozenset(w for a in a_line for w in g.adjacency[a])
    return AdjustedQuadrant(k, g, a_line, n)

