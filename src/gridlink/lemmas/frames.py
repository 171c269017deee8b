"""Frames: shifting terminal pairs onto the central cycles of the 6x6 grid.

A frame for terminals ``s1, s2`` on cycle ``C_alpha`` is an anchor vertex
``w`` of the cycle together with two mating paths inside the quadrant, one
from each terminal to ``w``, edge-disjoint from each other and from the
central-cycle edges inside the quadrant (only ``C1`` contributes such
edges).  Every frame comes from the exact solver on the quadrant's graph
less those edges: the vertices of ``C_alpha`` inside the quadrant are
tried as anchors in sorted order, and the first one where ``solve`` routes
both mating paths (and the third terminal's path, for a framing) is
returned.  Like ``solve``, each operation answers ``Infeasible`` when no
anchor works.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from ..grid import (
    C0_RING,
    C1_RING,
    Edge,
    GridGraph,
    Path,
    Quadrant,
    QuadrantLandmarks,
    Vertex,
    landmarks,
)
from ..routing import Demand, Infeasible, InfeasibleType, Instance, solve


@dataclass(frozen=True)
class Frame:
    """Two mating paths meeting at an anchor on cycle ``C_alpha``."""

    alpha: int
    cycle: tuple[Edge, ...]
    anchor: Vertex
    mating_paths: tuple[Path, Path]

    def __post_init__(self) -> None:
        if self.alpha not in (0, 1):
            raise ValueError(f"alpha must be 0 or 1, got {self.alpha!r}")
        if all(self.anchor not in e for e in self.cycle):
            raise ValueError(f"anchor {self.anchor} does not lie on the cycle")


@dataclass(frozen=True)
class FramingResult:
    """A frame for two of three terminals plus a mating path for the third."""

    frame: Frame
    mating_path: Path
    framed_pair: tuple[Vertex, Vertex]
    third: Vertex


@cache
def _without_c1(q: Quadrant) -> GridGraph:
    """The quadrant's graph less the C1 edges inside it: where mating paths
    run.  One graph object per quadrant, so that its compiled form is built
    once and every frame of the quadrant is solved on it."""
    return q.graph.without_edges(set(landmarks(q).C1) & q.graph.present_edges)


def _rings_in(q: Quadrant) -> tuple[tuple[Vertex, ...], tuple[Vertex, ...]]:
    """The vertices of C0 and of C1 that lie inside the quadrant, each sorted."""
    return tuple(tuple(sorted(v for v in ring if v in q.vertices)) for ring in (C0_RING, C1_RING))


def _check_terminal(q: Quadrant, s: Vertex) -> None:
    if s not in q.vertices:
        raise ValueError(f"terminal {s} is not in quadrant {q.corner.name}")


def _distinct_terminals(
    q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex
) -> tuple[Vertex, Vertex, Vertex]:
    """The three terminals as a tuple, once checked to be distinct vertices of q."""
    terms = (sp, sq, sr)
    for s in terms:
        _check_terminal(q, s)
    if len(set(terms)) != 3:
        raise ValueError(f"terminals must be distinct, got {terms}")
    return terms


def _solve_frame(
    q: Quadrant, lm: QuadrantLandmarks, alpha: int, anchors: tuple[Vertex, ...],
    s1: Vertex, s2: Vertex, extra: tuple[Demand, ...] = (),
) -> tuple[Frame, tuple[Path, ...]] | None:
    """The frame at the first of the ``anchors`` on C_alpha where ``solve``
    routes s1 and s2 to it together with the ``extra`` demands, and the
    extra demands' paths; None when no anchor works."""
    cycle = lm.C0 if alpha == 0 else lm.C1
    graph = _without_c1(q)
    for w in anchors:
        demands = (Demand.pair(s1, w), Demand.pair(s2, w)) + extra
        sol = solve(Instance(graph, demands))
        if sol:
            return Frame(alpha, cycle, w, (sol[0], sol[1])), sol.paths[2:]
    return None


def build_frame(q: Quadrant, s1: Vertex, s2: Vertex, alpha: int) -> Frame | InfeasibleType:
    """Frame the (possibly coincident) terminals s1, s2 on cycle C_alpha."""
    if alpha not in (0, 1):
        raise ValueError(f"alpha must be 0 or 1, got {alpha!r}")
    _check_terminal(q, s1)
    _check_terminal(q, s2)
    found = _solve_frame(q, landmarks(q), alpha, _rings_in(q)[alpha], s1, s2)
    return Infeasible if found is None else found[0]


def _framed_search(
    q: Quadrant,
    lm: QuadrantLandmarks,
    terms: tuple[Vertex, Vertex, Vertex],
    alphas: tuple[int, ...],
    mate,
) -> FramingResult | InfeasibleType:
    """Shared search: choose a pair to frame, an alpha, and an anchor;
    ``mate(c, alpha, rings)`` is the demand that routes the third terminal
    c, where ``rings`` are ``_rings_in(q)``."""
    rings = _rings_in(q)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b, c = terms[i], terms[j], terms[3 - i - j]
        for alpha in alphas:
            extra = (mate(c, alpha, rings),)
            found = _solve_frame(q, lm, alpha, rings[alpha], a, b, extra)
            if found is not None:
                frame, (mating_path,) = found
                return FramingResult(frame, mating_path, (a, b), c)
    return Infeasible


def frame_two_mate_third(
    q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex
) -> FramingResult | InfeasibleType:
    """Frame two of three distinct terminals on some C_alpha; mate the third to C_beta."""
    terms = _distinct_terminals(q, sp, sq, sr)
    return _framed_search(
        q, landmarks(q), terms, (0, 1),
        lambda c, alpha, rings: Demand.escape(c, rings[1 - alpha]),
    )


def frame_c0_mate_c1(
    q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex
) -> FramingResult | InfeasibleType:
    """Frame two of three distinct terminals on C0; mate the third to C1."""
    terms = _distinct_terminals(q, sp, sq, sr)
    return _framed_search(
        q, landmarks(q), terms, (0,), lambda c, alpha, rings: Demand.escape(c, rings[1])
    )


def frame_c1_mate_corner(
    q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex, z: Vertex
) -> FramingResult | InfeasibleType:
    """Frame two of three distinct terminals on C1; route the third to z in {x0, y0}."""
    terms = _distinct_terminals(q, sp, sq, sr)
    lm = landmarks(q)
    if z not in (lm.x0, lm.y0):
        raise ValueError(f"z must be x0 {lm.x0} or y0 {lm.y0}, got {z}")
    return _framed_search(q, lm, terms, (1,), lambda c, alpha, rings: Demand.pair(c, z))
