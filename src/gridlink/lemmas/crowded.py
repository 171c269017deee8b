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

``crowded_escape`` answers with the ``solve`` certificate, or ``Infeasible``.
Its paths link the linked pairs in pair order, then escape the unlinked
pairs' terminals in pair order, then the singles: a pair is linked exactly
when its target starts no path.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from ..grid import Quadrant, Vertex, landmarks, vertex
from ..routing import Demand, Infeasible, Instance, SolveResult, solve


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
) -> SolveResult:
    """Link a subset of the full pairs and escape the remaining terminals.

    ``pairs`` are the terminal pairs lying entirely inside the quadrant,
    ``singles`` the terminals whose partners lie elsewhere.  Escapes end
    at pairwise distinct exits.  ``Infeasible`` when no choice of linked
    pairs and exits routes.
    """
    pairs = tuple((vertex(s), vertex(t)) for s, t in pairs)
    singles = tuple(map(vertex, singles))
    occupied = [v for s, t in pairs for v in (s, t)] + list(singles)
    q.check_terminals(*occupied)
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
    line_a = frozenset(lm.A)
    if variant == 1:
        exit_sets = (line_a.union(lm.B),)
    else:
        # at most one exit off A: try each admissible extra vertex of B - A
        exit_sets = tuple(line_a | {b} for b in lm.B if b not in line_a)

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
    links = [Demand.pair(s, t) for s, t in pairs]
    for linked in link_choices:
        linking = tuple(links[i] for i in linked)
        escaping = _escape_order(pairs, singles, linked)
        for exits in exit_sets:
            demands = linking + tuple(Demand.escape(v, exits, distinct_group=0) for v in escaping)
            sol = solve(Instance(q.graph, demands))
            if sol:
                return sol
    return Infeasible
