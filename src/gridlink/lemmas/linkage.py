"""Weak 2-linkage (L4): any two pairs of vertices link by edge-disjoint paths.

A graph is weakly 2-linked when edge-disjoint u1,v1- and u2,v2-paths exist
for every choice of the four vertices.  Terminals need not be distinct.
The pairs are unordered, and so are the two vertices of a pair, and a
coincident pair (u = v) is routed by a zero-length path, so only the
unordered pairs of distinct vertices and the unordered choices of two of
them (one pair may be chosen twice) are asked.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Iterator

from ..grid import GridGraph
from ..routing import Demand, Instance, SolveResult, solve


def weak_2_linkages(graph: GridGraph) -> Iterator[SolveResult]:
    """Answer every choice of two pairs as ``solve`` answers it: the path
    system, or ``Infeasible``.  The pairs are those ``combinations`` gives
    over the sorted vertices, and the choices of two of them come in the
    order ``combinations_with_replacement`` gives."""
    pairs = [Demand.pair(u, v) for u, v in combinations(sorted(graph.present_vertices), 2)]
    for first, second in combinations_with_replacement(pairs, 2):
        yield solve(Instance(graph, (first, second)))


def is_weakly_2_linked(graph: GridGraph) -> bool:
    """Do edge-disjoint u1,v1- and u2,v2-paths exist for every choice of the four?"""
    return all(weak_2_linkages(graph))
