"""Frames: shifting terminal pairs onto the central cycles of the 6x6 grid.

A frame for terminals ``s1, s2`` on cycle ``C_alpha`` is an anchor vertex
``w`` of the cycle together with two mating paths inside the quadrant, one
from each terminal to ``w``, edge-disjoint from each other and from the
central-cycle edges inside the quadrant (only ``C1`` contributes such
edges).  Every frame comes from the exact solver: the vertices of
``C_alpha`` inside the quadrant are tried as anchors in sorted order, and
the first one where ``solve`` routes both mating paths (and the third
terminal's path, for a framing) is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..grid import (
    C0_RING,
    C1_RING,
    Edge,
    Path,
    Quadrant,
    QuadrantLandmarks,
    Vertex,
    landmarks,
)
from ..routing import Demand, Instance, solve
from .report import LemmaDefect


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
    alpha: int
    framed_pair: tuple[Vertex, Vertex]
    third: Vertex


def _c1_edges_in(q: Quadrant) -> frozenset[Edge]:
    return frozenset(e for e in landmarks(q).C1 if e in q.graph.present_edges)


def _cycle_targets(q: Quadrant, alpha: int) -> tuple[Vertex, ...]:
    """Vertices of C_alpha that lie inside the quadrant, sorted."""
    ring = C0_RING if alpha == 0 else C1_RING
    return tuple(sorted(v for v in ring if v in q.vertices))


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
    q: Quadrant, lm: QuadrantLandmarks, forbidden: frozenset[Edge], alpha: int,
    s1: Vertex, s2: Vertex, extra: tuple[Demand, ...] = (),
) -> tuple[Frame, tuple[Path, ...]] | None:
    """The frame at the first anchor of C_alpha, in sorted order, where
    ``solve`` routes s1 and s2 to it together with the ``extra`` demands,
    and the extra demands' paths; None when no anchor works."""
    cycle = lm.C0 if alpha == 0 else lm.C1
    for w in _cycle_targets(q, alpha):
        demands = (Demand.pair(s1, w), Demand.pair(s2, w)) + extra
        sol = solve(Instance(q.graph, demands, forbidden))
        if sol:
            return Frame(alpha, cycle, w, (sol[0], sol[1])), sol.paths[2:]
    return None


def build_frame(q: Quadrant, s1: Vertex, s2: Vertex, alpha: int) -> Frame:
    """Frame the (possibly coincident) terminals s1, s2 on cycle C_alpha."""
    if alpha not in (0, 1):
        raise ValueError(f"alpha must be 0 or 1, got {alpha!r}")
    _check_terminal(q, s1)
    _check_terminal(q, s2)
    found = _solve_frame(q, landmarks(q), _c1_edges_in(q), alpha, s1, s2)
    if found is None:
        raise LemmaDefect(f"no frame for {s1}, {s2} on C{alpha} in {q.corner.name}")
    return found[0]


def _framed_search(
    q: Quadrant,
    terms: tuple[Vertex, Vertex, Vertex],
    alphas: tuple[int, ...],
    mate,
) -> FramingResult:
    """Shared search: choose a pair to frame, an alpha, and an anchor;
    ``mate(c, alpha)`` is the demand that routes the third terminal c."""
    lm = landmarks(q)
    forbidden = _c1_edges_in(q)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b, c = terms[i], terms[j], terms[3 - i - j]
        for alpha in alphas:
            found = _solve_frame(q, lm, forbidden, alpha, a, b, (mate(c, alpha),))
            if found is not None:
                frame, (mating_path,) = found
                return FramingResult(frame, mating_path, alpha, (a, b), c)
    raise LemmaDefect(f"no framing of {terms} in {q.corner.name}")


def frame_two_mate_third(q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex) -> FramingResult:
    """Frame two of three distinct terminals on some C_alpha; mate the third to C_beta."""
    terms = _distinct_terminals(q, sp, sq, sr)
    return _framed_search(
        q, terms, (0, 1), lambda c, alpha: Demand.escape(c, _cycle_targets(q, 1 - alpha))
    )


def frame_c0_mate_c1(q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex) -> FramingResult:
    """Frame two of three distinct terminals on C0; mate the third to C1."""
    terms = _distinct_terminals(q, sp, sq, sr)
    return _framed_search(q, terms, (0,), lambda c, alpha: Demand.escape(c, _cycle_targets(q, 1)))


def frame_c1_mate_corner(
    q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex, z: Vertex
) -> FramingResult:
    """Frame two of three distinct terminals on C1; route the third to z in {x0, y0}."""
    terms = _distinct_terminals(q, sp, sq, sr)
    lm = landmarks(q)
    if z not in (lm.x0, lm.y0):
        raise ValueError(f"z must be x0 {lm.x0} or y0 {lm.y0}, got {z}")
    return _framed_search(q, terms, (1,), lambda c, alpha: Demand.pair(c, z))
