"""Frames: shifting terminal pairs onto the central cycles of the 6x6 grid.

A frame for terminals ``s1, s2`` on cycle ``C_alpha`` is an anchor vertex
``w`` of the cycle together with two mating paths inside the quadrant, one
from each terminal to ``w``, edge-disjoint from each other and from the
central-cycle edges inside the quadrant (only ``C1`` contributes such
edges).  The quadrant owns that geometry: every frame comes from the exact
solver on ``q.mating_graph``, the quadrant's graph less those edges, and
the vertices of ``C_alpha`` inside the quadrant, ``q.rings[alpha]``, are
tried as anchors in sorted order.  The first anchor where ``solve`` routes
both mating paths (and the third terminal's path, for a framing) is
returned.

Each operation answers with that ``solve`` certificate, or ``Infeasible``
when no anchor works.  Its paths are the mating paths of s1 and s2, then
(for a framing) the third terminal's path: the anchor is where the first
path ends, and the framed pair and the third terminal are where the paths
start.
"""

from __future__ import annotations

from ..grid import Quadrant, Vertex, landmarks
from ..routing import Demand, Infeasible, Instance, SolveResult, solve


def _distinct_terminals(
    q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex
) -> tuple[Vertex, Vertex, Vertex]:
    """The three terminals as a tuple, once checked to be distinct vertices of q."""
    terms = (sp, sq, sr)
    q.check_terminals(*terms)
    if len(set(terms)) != 3:
        raise ValueError(f"terminals must be distinct, got {terms}")
    return terms


def _solve_frame(
    q: Quadrant, anchors: tuple[Vertex, ...], s1: Vertex, s2: Vertex,
    extra: tuple[Demand, ...] = (),
) -> SolveResult:
    """The certificate at the first of the ``anchors`` where ``solve`` routes
    s1 and s2 to it together with the ``extra`` demands; ``Infeasible`` when
    no anchor works."""
    graph = q.mating_graph
    for w in anchors:
        sol = solve(Instance(graph, (Demand.pair(s1, w), Demand.pair(s2, w)) + extra))
        if sol:
            return sol
    return Infeasible


def build_frame(q: Quadrant, s1: Vertex, s2: Vertex, alpha: int) -> SolveResult:
    """A frame of the (possibly coincident) terminals s1, s2 on cycle C_alpha."""
    if alpha not in (0, 1):
        raise ValueError(f"alpha must be 0 or 1, got {alpha!r}")
    q.check_terminals(s1, s2)
    return _solve_frame(q, q.rings[alpha], s1, s2)


def _framed_search(
    q: Quadrant, terms: tuple[Vertex, Vertex, Vertex], alphas: tuple[int, ...], mate
) -> SolveResult:
    """Shared search: choose a pair to frame, an alpha, and an anchor;
    ``mate(c, alpha)`` is the demand that routes the third terminal c."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b, c = terms[i], terms[j], terms[3 - i - j]
        for alpha in alphas:
            sol = _solve_frame(q, q.rings[alpha], a, b, (mate(c, alpha),))
            if sol:
                return sol
    return Infeasible


def frame_two_mate_third(q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex) -> SolveResult:
    """Two of three distinct terminals framed on some C_alpha, the third mated to C_beta."""
    terms = _distinct_terminals(q, sp, sq, sr)
    return _framed_search(q, terms, (0, 1), lambda c, alpha: Demand.escape(c, q.rings[1 - alpha]))


def frame_c0_mate_c1(q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex) -> SolveResult:
    """Two of three distinct terminals framed on C0, the third mated to C1."""
    terms = _distinct_terminals(q, sp, sq, sr)
    return _framed_search(q, terms, (0,), lambda c, alpha: Demand.escape(c, q.rings[1]))


def frame_c1_mate_corner(
    q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex, z: Vertex
) -> SolveResult:
    """Two of three distinct terminals framed on C1, the third routed to z in {x0, y0}."""
    terms = _distinct_terminals(q, sp, sq, sr)
    lm = landmarks(q)
    if z not in (lm.x0, lm.y0):
        raise ValueError(f"z must be x0 {lm.x0} or y0 {lm.y0}, got {z}")
    return _framed_search(q, terms, (1,), lambda c, alpha: Demand.pair(c, z))
