"""Frames: shifting terminal pairs onto the central cycles of the 6x6 grid.

A frame for terminals ``s1, s2`` on cycle ``C_alpha`` is an anchor vertex
``w`` of the cycle together with two mating paths inside the quadrant, one
from each terminal to ``w``, edge-disjoint from each other and from the
central-cycle edges inside the quadrant (only ``C1`` contributes such
edges).  The direct constructions below walk a hamiltonian cycle or path
``D`` of the quadrant that avoids those edges; every candidate is checked
with the routing verifier, and an exact solver search takes over whenever
the walk-based construction does not apply.
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
from ..routing import Demand, Instance, PathSystem, solve, verify
from .report import LemmaDefect

# Hamiltonian substitutes for the boundary cycle (which misses x1), in
# quadrant-local coordinates: a cycle of Q - x2, and a path from x1 to x2.
_HAM_NO_X2 = ((1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1), (2, 1), (2, 2))
_HAM_X1_TO_X2 = ((2, 2), (2, 1), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3), (1, 2), (1, 1))


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


def _arcs_to_x0(
    q: Quadrant, lm: QuadrantLandmarks, s1: Vertex, s2: Vertex
) -> tuple[Path, Path]:
    """Edge-disjoint walks along D from s1 and from s2, both ending at x0.

    D is the boundary cycle when x1 is not a terminal, a hamiltonian cycle
    of Q - x2 when it is, and a hamiltonian x1-x2 path when both central
    vertices are terminals.  All three avoid the C1 edges of the quadrant.
    """
    terminals = {s1, s2}
    if lm.x1 not in terminals:
        ring: tuple[Vertex, ...] = lm.boundary_cycle
    elif lm.x2 not in terminals:
        ring = tuple(q.to_global(Vertex(r, c)) for r, c in _HAM_NO_X2)
    else:
        seq = tuple(q.to_global(Vertex(r, c)) for r, c in _HAM_X1_TO_X2)
        if seq[0] != s1:
            seq = seq[::-1]
        k = seq.index(lm.x0)
        return seq[: k + 1], seq[k:][::-1]

    i0 = ring.index(lm.x0)
    rot = ring[i0:] + ring[:i0]
    p1, p2 = rot.index(s1), rot.index(s2)
    swapped = p1 > p2
    if swapped:
        p1, p2 = p2, p1
    lo = tuple(rot[i] for i in range(p1, -1, -1))
    hi = (rot[0],) if p2 == 0 else tuple(rot[p2:]) + (rot[0],)
    return (hi, lo) if swapped else (lo, hi)


def _frame_ok(q: Quadrant, forbidden: frozenset[Edge], s1: Vertex, s2: Vertex, fr: Frame) -> bool:
    inst = Instance(
        q.graph,
        (Demand.pair(s1, fr.anchor), Demand.pair(s2, fr.anchor)),
        forbidden,
    )
    return bool(verify(inst, PathSystem(fr.mating_paths)))


def _split_at_c1(q: Quadrant, lm: QuadrantLandmarks, arc1: Path, arc2: Path) -> Frame | None:
    """Re-split the s1-x0-s2 walk at a C1 vertex near x0, anchoring on C1."""
    on_c1 = set(_cycle_targets(q, 1))
    walk = arc1 + arc2[::-1][1:]
    hits = [i for i, v in enumerate(walk) if v in on_c1]
    if not hits:
        return None
    mid = len(arc1) - 1
    i = min(hits, key=lambda j: (abs(j - mid), j))
    return Frame(1, lm.C1, walk[i], (walk[: i + 1], walk[i:][::-1]))


def build_frame(q: Quadrant, s1: Vertex, s2: Vertex, alpha: int) -> Frame:
    """Frame the (possibly coincident) terminals s1, s2 on cycle C_alpha."""
    if alpha not in (0, 1):
        raise ValueError(f"alpha must be 0 or 1, got {alpha!r}")
    _check_terminal(q, s1)
    _check_terminal(q, s2)
    lm = landmarks(q)
    forbidden = _c1_edges_in(q)

    arc1, arc2 = _arcs_to_x0(q, lm, s1, s2)
    if alpha == 0:
        cand: Frame | None = Frame(0, lm.C0, lm.x0, (arc1, arc2))
    else:
        cand = _split_at_c1(q, lm, arc1, arc2)
    if cand is not None and _frame_ok(q, forbidden, s1, s2, cand):
        return cand

    cycle = lm.C0 if alpha == 0 else lm.C1
    for w in _cycle_targets(q, alpha):
        sol = solve(Instance(q.graph, (Demand.pair(s1, w), Demand.pair(s2, w)), forbidden))
        if sol:
            return Frame(alpha, cycle, w, (sol[0], sol[1]))
    raise LemmaDefect(f"no frame for {s1}, {s2} on C{alpha} in {q.corner.name}")


def _framed_search(
    q: Quadrant,
    terms: tuple[Vertex, Vertex, Vertex],
    alphas: tuple[int, ...],
    mate_targets,
) -> FramingResult:
    """Shared search: choose a pair to frame, an alpha, and an anchor."""
    lm = landmarks(q)
    forbidden = _c1_edges_in(q)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b, c = terms[i], terms[j], terms[3 - i - j]
        for alpha in alphas:
            targets = mate_targets(alpha)
            for w in _cycle_targets(q, alpha):
                demands = (
                    Demand.pair(a, w),
                    Demand.pair(b, w),
                    Demand.pair(c, targets[0])
                    if len(targets) == 1
                    else Demand.escape(c, targets),
                )
                sol = solve(Instance(q.graph, demands, forbidden))
                if sol:
                    cycle = lm.C0 if alpha == 0 else lm.C1
                    frame = Frame(alpha, cycle, w, (sol[0], sol[1]))
                    return FramingResult(frame, sol[2], alpha, (a, b), c)
    raise LemmaDefect(f"no framing of {terms} in {q.corner.name}")


def frame_two_mate_third(q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex) -> FramingResult:
    """Frame two of three distinct terminals on some C_alpha; mate the third to C_beta."""
    terms = _distinct_terminals(q, sp, sq, sr)
    return _framed_search(q, terms, (0, 1), lambda alpha: _cycle_targets(q, 1 - alpha))


def frame_c0_mate_c1(q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex) -> FramingResult:
    """Frame two of three distinct terminals on C0; mate the third to C1."""
    terms = _distinct_terminals(q, sp, sq, sr)
    return _framed_search(q, terms, (0,), lambda alpha: _cycle_targets(q, 1))


def frame_c1_mate_corner(
    q: Quadrant, sp: Vertex, sq: Vertex, sr: Vertex, z: Vertex
) -> FramingResult:
    """Frame two of three distinct terminals on C1; route the third to z in {x0, y0}."""
    terms = _distinct_terminals(q, sp, sq, sr)
    lm = landmarks(q)
    if z not in (lm.x0, lm.y0):
        raise ValueError(f"z must be x0 {lm.x0} or y0 {lm.y0}, got {z}")
    return _framed_search(q, terms, (1,), lambda alpha: (z,))
