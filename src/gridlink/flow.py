"""Escape feasibility by maximum flow, independent of the backtracking solver.

All-escape instances are a unit-capacity flow problem: each source vertex
supplies its multiplicity, every edge of the graph carries one unit in
either direction (an edge no path may use is one the graph lacks), and
each exit takes one unit when endpoints must be distinct (as many as there
are sources otherwise).  The instance is feasible iff the max flow equals
the number of sources.

The flow is found by augmenting paths.  Each augmentation is one
breadth-first search over ``graph.adjacency``, from the sources with
supply left to the first exit with room left; a vertex pair (u, w) can
carry one more unit while the net flow from u to w is below 1, that is,
unless u already sends w a unit.  There is one augmentation per source
occurrence, and a search that finds no exit proves the instance
infeasible.  The flow is then decomposed into one path per source
occurrence, in input order: each walk follows positive net flow from its
source, taking the smallest neighbour in (row, col) order, and stops at
the first exit the flow still drains into.  Every step is a loop, so a
path of any length costs no recursion.

This module deliberately shares no search code with ``routing.solve`` --
the two are cross-checked against each other by the test campaigns.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .grid import GridGraph, vertex
from .routing import Infeasible, PathSystem, SolveResult


def escape_flow(
    graph: GridGraph,
    sources: Iterable[Iterable[int]],
    exits: Iterable[Iterable[int]],
    distinct: bool,
) -> SolveResult:
    """Route every source occurrence to an exit, edge-disjointly, via max flow."""
    src_list = [vertex(s) for s in sources]
    exit_set = {vertex(x) for x in exits}
    if not src_list:
        raise ValueError("escape_flow needs at least one source")
    if not exit_set:
        raise ValueError("escape_flow needs a non-empty exit set")
    present = graph.present_vertices
    for v in src_list:
        if v not in present:
            raise ValueError(f"source {v} not in graph")
    for v in sorted(exit_set):
        if v not in present:
            raise ValueError(f"exit {v} not in graph")

    adj = graph.adjacency
    supply = Counter(src_list)
    cap = 1 if distinct else len(src_list)
    room = dict.fromkeys(exit_set, cap)
    carry: set = set()  # the vertex pairs (u, w) with a net flow of one unit from u to w

    for _ in src_list:
        queue = [s for s, k in supply.items() if k]
        prev = dict.fromkeys(queue)
        for u in queue:  # the queue grows as it is read
            if room.get(u):
                break
            for w in adj[u]:
                if w not in prev and (u, w) not in carry:
                    prev[w] = u
                    queue.append(w)
        else:
            return Infeasible
        room[u] -= 1
        while prev[u] is not None:
            p = prev[u]
            if (u, p) in carry:
                carry.remove((u, p))  # cancels the unit sent the other way
            else:
                carry.add((p, u))
            u = p
        supply[u] -= 1

    # Every vertex conserves the flow except where it is supplied or
    # drained, so a walk that has not reached a draining exit can go on.
    drained = {x: cap - k for x, k in room.items()}
    paths = []
    for s in src_list:
        path = [s]
        u = s
        while not drained.get(u):
            w = next(w for w in adj[u] if (u, w) in carry)
            carry.remove((u, w))
            path.append(w)
            u = w
        drained[u] -= 1
        paths.append(tuple(path))
    return PathSystem(tuple(paths))
