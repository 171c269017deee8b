"""Linking a pair while escorting two singletons to the boundary lines.

The main operation routes a path between s1 and t1 inside a quadrant and
escorts two further terminals s2, s3 to distinct vertices of their
prescribed lines (A = bottom row, B = right column, in local coordinates).
The exact solver decides every placement.

The paper's proof instead uses a catalog of *clamps*: connected
edge-disjoint subgraphs, each with an anchor on A and/or B, that are
edge-disjoint from a reserved linking path.  A singleton lying on a clamp
walks inside it to the anchor on its line; assigning the two singletons to
the two clamps is the small matching problem solved by
:func:`clamp_matching`.  The catalog is kept for the P1-matching campaign,
which checks that matching on every entry :func:`catalog_configurations`
finds for an L10 placement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from ..grid import Edge, Path, Quadrant, Vertex, edge, landmarks, path_edges
from ..routing import Demand, Instance, SolveResult, solve

_X0 = Vertex(3, 3)


@dataclass(frozen=True)
class Clamp:
    """A connected subgraph with anchors on the boundary lines.

    ``edges`` may be empty, in which case the clamp is the single anchor
    vertex (used for terminals already sitting on x0).
    """

    edges: frozenset[Edge]
    anchors: frozenset[Vertex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "anchors", frozenset(self.anchors))
        if not self.edges:
            if len(self.anchors) != 1:
                raise ValueError("an edge-free clamp must be a single anchor")
            return
        targets = {v for e in self.edges for v in e}
        if not self.anchors <= targets:
            raise ValueError("anchors must lie on the clamp's edges")
        seen = {next(iter(sorted(targets)))}
        frontier = deque(seen)
        adj = _adjacency(self.edges)
        while frontier:
            for w in adj[frontier.popleft()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen != targets:
            raise ValueError("clamp edges must form a connected subgraph")

    @property
    def vertices(self) -> frozenset[Vertex]:
        return self.anchors | {v for e in self.edges for v in e}


def _adjacency(edges: Iterable[Edge]) -> dict[Vertex, list[Vertex]]:
    adj: dict[Vertex, list[Vertex]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for vs in adj.values():
        vs.sort()
    return adj


def _bfs_in(edges: Iterable[Edge], s: Vertex, t: Vertex) -> Optional[Path]:
    """Shortest s-t path using only the given edges; None if unreachable."""
    if s == t:
        return (s,)
    adj = _adjacency(edges)
    if s not in adj or t not in adj:
        return None
    prev: dict[Vertex, Vertex] = {s: s}
    frontier = deque([s])
    while frontier:
        u = frontier.popleft()
        for w in adj[u]:
            if w not in prev:
                prev[w] = u
                if w == t:
                    out = [t]
                    while out[-1] != s:
                        out.append(prev[out[-1]])
                    return tuple(reversed(out))
                frontier.append(w)
    return None


def clamp_matching(
    p1: Sequence[Vertex], y2: Clamp, y3: Clamp, pi0: tuple[Vertex, Vertex]
) -> Optional[tuple[Clamp, Clamp]]:
    """Assign the singleton pair pi0 to the clamps (Y2, Y3), one each.

    Returns the pair of clamps aligned with the input order of ``pi0``, or
    None when no assignment puts each singleton on its clamp.
    Each singleton must lie on exactly the clamp it is assigned to walk in,
    so an assignment exists iff both singletons lie on the union and at
    most one of them lies strictly in Y2 and at most one strictly in Y3.
    When both lie on the intersection the assignment is free; the smaller
    singleton takes Y2.

    Raises ValueError when the clamps overlap each other, the linking path,
    or each other's anchors - those are hypothesis violations, not a failed
    match.
    """
    p1_edges = frozenset(path_edges(tuple(p1)))
    if y2.edges & y3.edges:
        raise ValueError("clamps must be edge-disjoint from each other")
    if (y2.edges | y3.edges) & p1_edges:
        raise ValueError("clamps must be edge-disjoint from the linking path")
    if y2.anchors & y3.anchors:
        raise ValueError("clamp anchor sets must be disjoint")
    u, v = pi0
    v2, v3 = y2.vertices, y3.vertices
    if u not in v2 | v3 or v not in v2 | v3:
        return None
    only2 = sum(1 for w in (u, v) if w in v2 and w not in v3)
    only3 = sum(1 for w in (u, v) if w in v3 and w not in v2)
    if only2 > 1 or only3 > 1:
        return None
    if u in v2 and u not in v3:
        return (y2, y3)
    if u in v3 and u not in v2:
        return (y3, y2)
    if v in v2 and v not in v3:
        return (y3, y2)
    if v in v3 and v not in v2:
        return (y2, y3)
    return (y2, y3) if min(u, v) == u else (y3, y2)


# --- the clamp catalog, in local (row, col) coordinates --------------------

def _es(*pairs) -> frozenset[Edge]:
    return frozenset(edge(Vertex(*a), Vertex(*b)) for a, b in pairs)


def _vs(*points) -> frozenset[Vertex]:
    return frozenset(Vertex(*p) for p in points)


_L_PATH = Clamp(_es(((1, 3), (1, 2)), ((1, 2), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (3, 1))), _vs((3, 1), (1, 3)))
_Z_STAR = Clamp(_es(((2, 1), (2, 2)), ((2, 2), (2, 3)), ((1, 2), (2, 2)), ((2, 2), (3, 2))), _vs((3, 2), (2, 3)))
_A_PATH = Clamp(_es(((3, 1), (3, 2)), ((3, 2), (3, 3))), _vs((3, 3)))
_HOOK = Clamp(_es(((1, 3), (1, 2)), ((1, 2), (2, 2)), ((2, 2), (3, 2))), _vs((1, 3), (3, 2)))
_COMB = Clamp(_es(((3, 1), (2, 1)), ((2, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (1, 3))), _vs((3, 1), (1, 3)))
_RIM = Clamp(
    _es(((3, 1), (3, 2)), ((3, 2), (3, 3)), ((3, 3), (2, 3)), ((2, 3), (1, 3)), ((3, 2), (2, 2)), ((2, 2), (2, 3))),
    _vs((3, 3)),
)

_LINE4 = _vs((3, 1), (3, 2), (2, 3), (1, 3))
_LINE_EDGES = _es(((3, 1), (3, 2)), ((3, 2), (3, 3)), ((3, 3), (2, 3)), ((2, 3), (1, 3)))


class _Entry(NamedTuple):
    name: str
    match: Callable[[frozenset[Vertex], frozenset[Vertex]], bool]
    region: frozenset[Edge]
    y2: Clamp
    y3: Clamp


def _exact(*points) -> Callable[[frozenset[Vertex], frozenset[Vertex]], bool]:
    want = _vs(*points)
    return lambda pi1, pi0: pi1 == want


_CATALOG: tuple[_Entry, ...] = (
    _Entry("E0", lambda pi1, pi0: len(pi1) == 1, _es(), _L_PATH, _Z_STAR),
    _Entry(
        "E1",
        _exact((1, 1), (1, 2)),
        _es(((1, 1), (1, 2))),
        Clamp(_es(((3, 1), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (1, 2)), ((1, 2), (1, 3))), _vs((3, 1), (1, 3))),
        _RIM,
    ),
    _Entry("E2", _exact((1, 2), (2, 2)), _es(((1, 2), (2, 2))), _COMB, _RIM),
    _Entry("E3", _exact((1, 2), (2, 1)), _es(((1, 2), (2, 2)), ((2, 2), (2, 1))), _COMB, _RIM),
    _Entry(
        "E4",
        _exact((1, 1), (2, 2)),
        _es(((1, 1), (2, 1)), ((2, 1), (2, 2))),
        _HOOK,
        Clamp(
            _es(((2, 1), (3, 1)), ((3, 1), (3, 2)), ((3, 2), (3, 3)), ((3, 3), (2, 3)), ((2, 3), (1, 3)), ((2, 2), (2, 3))),
            _vs((3, 3)),
        ),
    ),
    _Entry("E5", lambda pi1, pi0: len(pi1) == 2 and pi1 <= _LINE4, _LINE_EDGES, _L_PATH, _Z_STAR),
    _Entry(
        "E6",
        _exact((1, 1), (3, 1)),
        _es(((1, 1), (2, 1)), ((2, 1), (3, 1))),
        _HOOK,
        Clamp(
            _es(((3, 2), (3, 3)), ((3, 3), (2, 3)), ((2, 3), (1, 3)), ((2, 1), (2, 2)), ((2, 2), (2, 3))),
            _vs((3, 3)),
        ),
    ),
    _Entry(
        "E7",
        _exact((2, 1), (3, 1)),
        _es(((2, 1), (3, 1))),
        Clamp(_es(((1, 1), (1, 2)), ((1, 2), (1, 3)), ((1, 3), (2, 3)), ((2, 3), (3, 3))), _vs((3, 3))),
        Clamp(
            _es(((1, 1), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (2, 3)), ((1, 2), (2, 2)), ((2, 2), (3, 2))),
            _vs((3, 2), (2, 3)),
        ),
    ),
    _Entry(
        "E8",
        _exact((1, 2), (3, 2)),
        _es(((1, 2), (2, 2)), ((2, 2), (3, 2))),
        _L_PATH,
        Clamp(
            _es(((2, 1), (2, 2)), ((2, 2), (2, 3)), ((1, 3), (2, 3)), ((2, 3), (3, 3)), ((3, 1), (3, 2)), ((3, 2), (3, 3))),
            _vs((3, 3)),
        ),
    ),
    _Entry(
        "E9",
        _exact((1, 2), (2, 3)),
        _es(((1, 2), (2, 2)), ((2, 2), (2, 3))),
        _COMB,
        Clamp(
            _es(((3, 1), (3, 2)), ((3, 2), (3, 3)), ((3, 3), (2, 3)), ((2, 3), (1, 3)), ((3, 2), (2, 2)), ((2, 2), (2, 1))),
            _vs((3, 3)),
        ),
    ),
    _Entry(
        "E10",
        _exact((2, 2), (1, 3)),
        _es(((2, 2), (2, 3)), ((2, 3), (1, 3))),
        _COMB,
        Clamp(
            _es(((3, 1), (3, 2)), ((3, 2), (3, 3)), ((3, 3), (2, 3)), ((1, 2), (2, 2)), ((2, 2), (3, 2)), ((2, 1), (2, 2))),
            _vs((3, 3)),
        ),
    ),
    _Entry(
        "E11",
        _exact((2, 1), (1, 3)),
        _es(((2, 1), (2, 2)), ((2, 2), (2, 3)), ((2, 3), (1, 3))),
        _COMB,
        Clamp(
            _es(((3, 1), (3, 2)), ((3, 2), (3, 3)), ((3, 3), (2, 3)), ((1, 2), (2, 2)), ((2, 2), (3, 2))),
            _vs((3, 3)),
        ),
    ),
    _Entry(
        "E12",
        lambda pi1, pi0: pi1 == _vs((1, 1), (2, 3)) and Vertex(1, 3) in pi0,
        _es(((1, 1), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (2, 3))),
        _HOOK,
        Clamp(
            _es(((2, 1), (3, 1)), ((3, 1), (3, 2)), ((3, 2), (3, 3)), ((3, 3), (2, 3)), ((2, 3), (1, 3))),
            _vs((3, 3)),
        ),
    ),
    _Entry(
        "E13",
        lambda pi1, pi0: pi1 == _vs((1, 1), (2, 3)) and Vertex(1, 3) not in pi0,
        _es(((1, 1), (1, 2)), ((1, 2), (1, 3)), ((1, 3), (2, 3))),
        Clamp(_es(((3, 1), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (2, 3))), _vs((3, 1), (2, 3))),
        Clamp(_es(((3, 1), (3, 2)), ((3, 2), (3, 3)), ((1, 2), (2, 2)), ((2, 2), (3, 2))), _vs((3, 3))),
    ),
    _Entry(
        "E14",
        lambda pi1, pi0: _X0 in pi1,
        _es(((1, 2), (2, 2)), ((2, 1), (2, 2)), ((2, 2), (2, 3)), ((2, 2), (3, 2)), ((1, 3), (2, 3)), ((2, 3), (3, 3))),
        _L_PATH,
        _A_PATH,
    ),
    _Entry(
        "E15",
        lambda pi1, pi0: _X0 in pi1,
        _es(
            ((1, 1), (1, 2)), ((1, 1), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (2, 3)), ((2, 1), (3, 1)),
            ((1, 3), (2, 3)), ((2, 3), (3, 3)),
        ),
        _HOOK,
        _A_PATH,
    ),
)


def catalog_configurations(
    s1: Vertex, t1: Vertex, s2: Vertex, s3: Vertex
) -> Iterator[tuple[str, Path, Clamp, Clamp, tuple[Vertex, Vertex]]]:
    """Catalog entries that apply to a placement, in local coordinates.

    Yields ``(name, p1, y2, y3, (s2, s3))`` for every entry whose pattern
    matches the placement and whose region holds a linking path ``p1``.
    """
    pi1 = frozenset({s1, t1})
    pi0 = frozenset({s2, s3})
    for entry in _CATALOG:
        if entry.match(pi1, pi0):
            p1 = _bfs_in(entry.region, s1, t1)
            if p1 is not None:
                yield entry.name, p1, entry.y2, entry.y3, (s2, s3)


def _normalize_psi(psi) -> tuple[str, str]:
    pair = tuple(psi)
    if len(pair) != 2:
        raise ValueError(f"psi must give two line choices, got {psi!r}")
    for line in pair:
        if line not in ("A", "B"):
            raise ValueError(f"lines must be 'A' or 'B', got {line!r}")
    return pair  # type: ignore[return-value]


def link_pair_escort_singletons(
    q: Quadrant, s1: Vertex, t1: Vertex, s2: Vertex, s3: Vertex, psi
) -> SolveResult:
    """Link s1-t1 and escort s2, s3 to distinct vertices of their lines.

    ``psi`` prescribes a line ("A" or "B") for each singleton, as a pair
    ordered like (s2, s3).  Returns what ``solve`` returns: the path
    system, or ``Infeasible``.
    """
    q.check_terminals(s1, t1, s2, s3)
    line2, line3 = _normalize_psi(psi)
    lm = landmarks(q)
    # the lines are named as the landmarks name them: lm.A and lm.B
    escort2 = Demand.escape(s2, getattr(lm, line2), distinct_group=0)
    escort3 = Demand.escape(s3, getattr(lm, line3), distinct_group=0)
    return solve(Instance(q.graph, (Demand.pair(s1, t1), escort2, escort3)))
