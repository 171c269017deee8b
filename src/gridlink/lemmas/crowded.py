"""Crowded quadrants: link some pairs, escape every other terminal.

A quadrant is crowded when 5 or more of its 9 vertices carry terminals.
The claims split by occupancy: with 7 or 8 terminals at least two full
pairs can be linked inside the quadrant while the rest escape to distinct
vertices of A or B (variant 1); with 6, at least one pair links and the
escapes use at most one exit off A (variant 2); with 5, the unique full
pair links and the three singletons escape under the same side condition
(variant 3).

The side condition is handled by restricting the exit set to A plus at
most one vertex of B - A: any escape system with at most one exit in
B - A fits inside one of those restricted exit sets, so trying both
choices of the extra vertex is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from ..grid import Path, Quadrant, Vertex, landmarks
from ..routing import Demand, Instance, PathSystem, solve
from .report import LemmaDefect


@dataclass(frozen=True)
class CrowdedResult:
    """Certificate for a crowded-quadrant instance.

    ``linked`` gives the indices of the pairs routed in full; ``demands``
    is the realized demand list the paths answer, in certificate order.
    """

    paths: PathSystem
    linked: tuple[int, ...]
    demands: tuple[Demand, ...]


def _escape_order(
    pairs: Sequence[tuple[Vertex, Vertex]], singles: Sequence[Vertex], linked: tuple[int, ...]
) -> tuple[Vertex, ...]:
    out = []
    for i, (s, t) in enumerate(pairs):
        if i not in linked:
            out.extend((s, t))
    out.extend(singles)
    return tuple(out)


def crowded_escape(
    q: Quadrant,
    pairs: Sequence[tuple[Vertex, Vertex]],
    singles: Sequence[Vertex],
    variant: int,
) -> CrowdedResult:
    """Link a subset of the full pairs and escape the remaining terminals.

    ``pairs`` are the terminal pairs lying entirely inside the quadrant,
    ``singles`` the terminals whose partners lie elsewhere.  Escapes end
    at pairwise distinct exits.
    """
    pairs = tuple((Vertex(*s), Vertex(*t)) for s, t in pairs)
    singles = tuple(Vertex(*v) for v in singles)
    occupied = [v for s, t in pairs for v in (s, t)] + list(singles)
    for v in occupied:
        if v not in q.vertices:
            raise ValueError(f"terminal {v} is not in quadrant {q.corner.name}")
    if len(set(occupied)) != len(occupied):
        raise ValueError("crowded terminals must be distinct vertices")

    load = len(occupied)
    if len(pairs) + len(singles) > 4:
        # the terminal set is the union of four disjoint pairs, so at most
        # four of them can place endpoints in any one quadrant
        raise ValueError(
            f"{len(pairs)} pairs and {len(singles)} singles cannot arise from four pairs"
        )
    if variant == 1:
        if load not in (7, 8) or len(pairs) < 2:
            raise ValueError(f"variant 1 needs 7 or 8 terminals with >= 2 full pairs, got {load}")
        min_link = 2
    elif variant == 2:
        if load != 6 or not pairs:
            raise ValueError(f"variant 2 needs 6 terminals with a full pair, got {load}")
        min_link = 1
    elif variant == 3:
        if load != 5 or not pairs:
            raise ValueError(f"variant 3 needs 5 terminals with a designated full pair, got {load}")
        min_link = 1
    else:
        raise ValueError(f"variant must be 1, 2 or 3, got {variant!r}")

    lm = landmarks(q)
    if variant == 1:
        exit_sets = (tuple(sorted(set(lm.A) | set(lm.B))),)
    else:
        # at most one exit off A: try each admissible extra vertex of B - A
        extras = [v for v in lm.B if v not in lm.A]
        exit_sets = tuple(tuple(sorted(set(lm.A) | {b})) for b in extras)

    if variant == 3:
        # the statement fixes P1: exactly the designated pair is linked,
        # and the rest (a second full pair included) escape individually
        link_choices: Iterable[tuple[int, ...]] = ((0,),)
    else:
        # largest set first: smallest first fails fewer solves but took twice as long overall
        link_choices = (
            linked
            for size in range(len(pairs), min_link - 1, -1)
            for linked in combinations(range(len(pairs)), size)
        )
    for linked in link_choices:
        for exits in exit_sets:
            demands = tuple(Demand.pair(*pairs[i]) for i in linked) + tuple(
                Demand.escape(v, exits, distinct_group=0)
                for v in _escape_order(pairs, singles, linked)
            )
            sol = solve(Instance(q.graph, demands))
            if sol:
                return CrowdedResult(sol, linked, demands)
    raise LemmaDefect(
        f"no linkage found for {len(pairs)} pairs, {len(singles)} singles, variant {variant}"
    )
