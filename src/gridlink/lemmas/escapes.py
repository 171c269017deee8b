"""Escapes from adjusted quadrants to the line A.

These operations work on the adjusted quadrants Q0..Q4 in local 3x3
coordinates.  "Escaping" a terminal means routing it to some vertex of
A = row 3; distinct-exit variants additionally require the escape paths
to end at pairwise different exits.  Each returns what ``solve`` returns:
the path system, or ``Infeasible``.
"""

from __future__ import annotations

from typing import Iterable

from ..grid import AdjustedKind, AdjustedQuadrant, Vertex
from ..routing import Demand, Instance, SolveResult, solve

_B_LINK = Vertex(2, 3)


def _check_vertices(adj: AdjustedQuadrant, vs: Iterable[Vertex]) -> None:
    for v in vs:
        if v not in adj.graph.present_vertices:
            raise ValueError(f"{v} is not a vertex of {adj.kind.value}")


def _require_q0(adj: AdjustedQuadrant) -> None:
    if adj.kind is not AdjustedKind.Q0:
        raise ValueError(f"expected Q0, got {adj.kind.value}")


def escape_three_shared(adj: AdjustedQuadrant, t1: Vertex, t2: Vertex, t3: Vertex) -> SolveResult:
    """Escape three distinct terminals of an adjusted quadrant to A.

    Exits may coincide.  Holds for every kind Q0..Q4 (the claim for Q1..Q4
    carries over to Q0, which has strictly more edges).
    """
    terms = (t1, t2, t3)
    _check_vertices(adj, terms)
    if len(set(terms)) != 3:
        raise ValueError(f"terminals must be distinct, got {terms}")
    return solve(Instance(adj.graph, tuple(Demand.escape(t, adj.A) for t in terms)))


def link_and_escape(adj: AdjustedQuadrant, s1: Vertex, t1: Vertex, s2: Vertex) -> SolveResult:
    """Link s1 to t1 inside Q0 and escape s2 to A, edge-disjointly."""
    _require_q0(adj)
    _check_vertices(adj, (s1, t1, s2))
    return solve(Instance(adj.graph, (Demand.pair(s1, t1), Demand.escape(s2, adj.A))))


def escape_three_distinct(adj: AdjustedQuadrant, t1: Vertex, t2: Vertex, t3: Vertex) -> SolveResult:
    """Escape three terminals of Q0 to pairwise distinct exits in A.

    The terminals must be distinct, except that exactly two may coincide
    on a vertex outside A.
    """
    _require_q0(adj)
    terms = (t1, t2, t3)
    _check_vertices(adj, terms)
    distinct = len(set(terms))
    if distinct == 1:
        raise ValueError(f"at most two terminals may coincide, got {terms}")
    if distinct == 2:
        doubled = next(v for v in terms if terms.count(v) == 2)
        if doubled in adj.A:
            raise ValueError(f"coincident terminal {doubled} lies in A")
    return solve(Instance(adj.graph, tuple(Demand.escape(t, adj.A, distinct_group=0) for t in terms)))


def project_with_b_link(
    adj: AdjustedQuadrant, terminals: Iterable[Vertex], s: Vertex
) -> SolveResult:
    """Link s to b = (2, 3) and escape the remaining terminals of T to A.

    An infeasible choice of linked terminal comes back as ``Infeasible``.
    Such refusals are common; the guarantees are about terminal *sets*: if
    T avoids A and c = (1, 1), every choice of s works; any T with fewer
    than min(3, |T|) working choices is one of the two exceptional sets T1
    (the first column) and T2 (the top row plus b), whose working choices
    are exactly {(1,1), (2,1)} and {(1,3), (2,3)} respectively.
    """
    _require_q0(adj)
    T = frozenset(terminals)
    if not 1 <= len(T) <= 4:
        raise ValueError(f"need between 1 and 4 distinct terminals, got {sorted(T)}")
    _check_vertices(adj, T)
    if s not in T:
        raise ValueError(f"linked terminal {s} is not in {sorted(T)}")
    demands = (Demand.pair(s, _B_LINK),) + tuple(
        Demand.escape(t, adj.A) for t in sorted(T - {s})
    )
    return solve(Instance(adj.graph, demands))
