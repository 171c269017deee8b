"""Grid graphs, quadrants, the central cycles, landmarks, and symmetry transforms.

Vertices are matrix coordinates ``(row, col)``, 1-based, row 1 at the top.
Edges are stored canonically as ``(min(u, v), max(u, v))`` tuples so edge sets
built by different code paths compare equal.  Every value here is immutable;
derived graphs are produced by the ``without_*`` / ``contracted`` / ``induced``
constructors rather than mutation.

The grid's two central cycles are global: ``C0_RING`` and ``C1_RING`` list
their vertices in order, and ``C1_EDGES`` holds C1's edges.  A ``Quadrant``
owns the frame lemmas' geometry, derived from the rings on first use:
``rings``, the ring vertices inside it where a frame anchors, and
``mating_graph``, its graph less C1's edges, where the mating paths run.
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

    @cached_property
    def steps(self) -> dict[tuple[Vertex, Vertex], int]:
        """Each ordered pair of ends of a present edge, mapped to that edge's
        own bit: the step table ``routing.verify`` checks a path against."""
        steps = {}
        for i, (u, v) in enumerate(self.present_edges):
            steps[u, v] = steps[v, u] = 1 << i
        return steps

    def __getstate__(self) -> dict:
        # the cached properties are rebuilt on first use, so a solved or
        # verified graph pickles (and copies) as small as a fresh one
        return {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("adjacency", "compiled_form", "steps")
        }

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


# The two central cycles of the 6x6 grid, as rings in a fixed traversal
# order: C0 the 4-cycle round the centre, C1 the 12-cycle round C0.
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
C1_EDGES: frozenset[Edge] = frozenset(
    edge(C1_RING[k - 1], C1_RING[k]) for k in range(len(C1_RING))
)


@dataclass(frozen=True)
class Quadrant:
    """One of the four 3x3 corner blocks of the 6x6 grid."""

    parent: GridGraph
    corner: Corner
    vertices: frozenset[Vertex]

    @cached_property
    def graph(self) -> GridGraph:
        return self.parent.induced(self.vertices)

    @cached_property
    def rings(self) -> tuple[tuple[Vertex, ...], tuple[Vertex, ...]]:
        """The vertices of C0 and of C1 inside the quadrant, each sorted:
        where the frame lemmas anchor."""
        return tuple(
            tuple(sorted(v for v in ring if v in self.vertices)) for ring in (C0_RING, C1_RING)
        )

    @cached_property
    def mating_graph(self) -> GridGraph:
        """The quadrant's graph less the C1 edges inside it: where the frame
        lemmas' mating paths run.  One graph object per quadrant, so that its
        compiled form is built once and freed with the quadrant."""
        return self.graph.without_edges(C1_EDGES & self.graph.present_edges)

    def check_terminals(self, *terminals: Vertex) -> None:
        """Raise ``ValueError`` at the first terminal outside the quadrant."""
        for v in terminals:
            if v not in self.vertices:
                raise ValueError(f"terminal {v} is not in quadrant {self.corner.name}")


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
    """The named vertices and lines of one quadrant, in global coordinates.

    ``A`` is the horizontal boundary line (listed outward-to-corner, i.e. by
    local column), ``B`` the vertical one (by local row); ``x0 = A cap B`` is
    the quadrant's vertex on C0, and ``y0`` the far end of ``A``, the grid
    boundary vertex that L7's third terminal may be routed to.
    """

    A: tuple[Vertex, Vertex, Vertex]
    B: tuple[Vertex, Vertex, Vertex]
    x0: Vertex
    y0: Vertex


def _corner_landmarks(corner: Corner) -> QuadrantLandmarks:
    def g(i: int, j: int) -> Vertex:
        return to_global(corner, (i, j))

    return QuadrantLandmarks(
        A=(g(3, 1), g(3, 2), g(3, 3)),
        B=(g(1, 3), g(2, 3), g(3, 3)),
        x0=g(3, 3),
        y0=g(3, 1),
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
    """

    kind: AdjustedKind
    graph: GridGraph
    A: tuple[Vertex, Vertex, Vertex]


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
    return AdjustedQuadrant(k, g, a_line)

