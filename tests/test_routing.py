"""Solver, checker, and flow-oracle tests."""

from __future__ import annotations

import copy
import gc
import hashlib
import multiprocessing
import pickle
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import FrozenInstanceError
from functools import partial
from itertools import islice
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlink.fileio import serialize_certificate
from gridlink.flow import escape_flow
from gridlink.grid import (
    Corner,
    Vertex,
    adjusted_quadrant,
    edge,
    make_grid,
    path_edges,
    quadrant,
    vertex,
)
import gridlink.lemmas.clamps as clamps
import gridlink.lemmas.crowded as crowded
import gridlink.routing as routing
from gridlink.routing import (
    _INF,
    _CDemand,
    _compiled,
    _flood,
    _Search,
    _trace,
    Demand,
    Infeasible,
    Instance,
    PathSystem,
    solve,
    verify,
)
from gridlink import verifier
from gridlink.lemmas import is_weakly_2_linked
from gridlink.verifier import _iter_escape_family, sample_pairability, verify_lemma


def test_zero_length_pair():
    inst = Instance(make_grid(3, 3), (Demand.pair((1, 1), (1, 1)),))
    got = solve(inst)
    assert got == PathSystem((((1, 1),),))
    assert verify(inst, got)


def test_square_cycle_decomposes_into_opposite_diagonal_paths():
    # The 4-cycle splits into two 2-edge paths with the SAME endpoint pair...
    inst = Instance(
        make_grid(2, 2),
        (Demand.pair((1, 1), (2, 2)), Demand.pair((1, 1), (2, 2))),
    )
    got = solve(inst)
    assert got is not Infeasible
    assert [len(p) for p in got.paths] == [3, 3]
    assert {e for p in got for e in path_edges(p)} == make_grid(2, 2).present_edges
    assert verify(inst, got)


def test_crossed_diagonals_on_square_are_infeasible():
    # ...while the crossed diagonal demands cannot be routed: any 2-edge
    # diagonal path leaves a complementary path joining the same diagonal.
    inst = Instance(
        make_grid(2, 2),
        (Demand.pair((1, 1), (2, 2)), Demand.pair((1, 2), (2, 1))),
    )
    assert solve(inst) is Infeasible


def test_escape_trio_in_q0():
    adj = adjusted_quadrant("Q0")
    demands = tuple(
        Demand.escape(s, adj.A) for s in [(1, 2), (2, 1), (2, 2)]
    )
    inst = Instance(adj.graph, demands)
    got = solve(inst)
    assert got is not Infeasible
    assert verify(inst, got)
    for p, d in zip(got.paths, demands):
        assert p[0] == d.source and p[-1] in adj.A


def test_forbidden_edges_respected():
    inst = Instance(
        make_grid(3, 3).without_edges([edge((1, 1), (1, 2))]),
        (Demand.pair((1, 1), (1, 3)),),
    )
    got = solve(inst)
    assert got is not Infeasible
    assert edge((1, 1), (1, 2)) not in path_edges(got[0])
    assert verify(inst, got)


def test_distinct_group_endpoints_differ():
    g = make_grid(3, 3)
    a_line = [(3, 1), (3, 2), (3, 3)]
    demands = tuple(Demand.escape(s, a_line, distinct_group=0) for s in [(1, 1), (1, 2), (1, 3)])
    got = solve(Instance(g, demands))
    assert got is not Infeasible
    ends = [p[-1] for p in got.paths]
    assert len(set(ends)) == 3


def test_solver_is_deterministic():
    demands = (
        Demand.pair((1, 1), (3, 3)),
        Demand.escape((2, 2), [(3, 1), (1, 3)], distinct_group=0),
        Demand.escape((2, 1), [(3, 1), (1, 3)], distinct_group=0),
    )
    a = solve(Instance(make_grid(3, 3), demands))
    b = solve(Instance(make_grid(3, 3), demands))
    assert a == b


def test_malformed_instances_raise():
    # A failed compile is not cached: a second solve on the same graph
    # rejects the demand again.
    g = make_grid(2, 2)
    bad = [
        Instance(g, (Demand.pair((1, 1), (5, 5)),)),
        Instance(g, (Demand.escape((1, 1), []),)),
        Instance(g, (Demand.escape((1, 1), [(1, 2), (4, 4)]),)),
    ]
    for inst in bad + bad:
        with pytest.raises(ValueError):
            solve(inst)
    # an edge the graph lacks cannot be forbidden
    with pytest.raises(ValueError):
        g.without_edges([edge((1, 1), (3, 1))])
    assert solve(Instance(g, (Demand.pair((1, 1), (2, 2)),)))


def test_vertex_keeps_a_vertex_and_builds_one_from_a_pair():
    v = Vertex(1, 2)
    assert vertex(v) is v
    got = vertex((1, 2))
    assert type(got) is Vertex and got == v
    assert type(vertex([3, 4])) is Vertex


def _count_demands_built(monkeypatch) -> Counter:
    """Patch ``Demand.__init__`` to count the demands built, by value."""
    built: Counter = Counter()
    init = Demand.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built[self] += 1

    monkeypatch.setattr(Demand, "__init__", counting)
    return built


def test_sampled_placements_share_their_demands(monkeypatch):
    # Which Vertex objects a shared demand holds depends on the call that
    # built it first (here: plain tuples); a sampled placement gets that
    # one shared demand, and sampling builds none.
    rng = Random(3)
    placements = [sample_pairability(rng) for _ in range(200)]
    shared = {st: Demand.pair(tuple(st[0]), tuple(st[1])) for p in placements for st in p}
    built = _count_demands_built(monkeypatch)
    for p in placements:
        for st in p:
            assert Demand.pair(*st) is shared[st]
        assert verifier._run_pairability(p) is None
    assert not built


def test_equal_demands_are_one_shared_object():
    pair = Demand.pair(Vertex(5, 1), Vertex(6, 2))
    assert Demand.pair((5, 1), (6, 2)) is pair
    assert Demand.pair([5, 1], [6, 2]) is pair
    assert Demand.pair(Vertex(6, 2), Vertex(5, 1)) is not pair
    exits = [Vertex(6, 1), (6, 2), [6, 3]]
    escape = Demand.escape((5, 2), tuple(exits[:2]) + ((6, 3),))
    spellings = (
        tuple(exits[:2]) + ((6, 3),),
        tuple(reversed(exits[:2])) + ((6, 3),),
        exits,
        {Vertex(6, 1), (6, 2), (6, 3)},
        frozenset({(6, 1), (6, 2), Vertex(6, 3)}),
    )
    for source in (Vertex(5, 2), (5, 2), [5, 2]):
        for xs in spellings + ((vertex(x) for x in exits),):
            assert Demand.escape(source, xs) is escape
    assert escape.exits == frozenset({Vertex(6, 1), Vertex(6, 2), Vertex(6, 3)})
    assert type(escape.source) is Vertex and all(type(x) is Vertex for x in escape.exits)
    # the group is part of the value
    grouped = Demand.escape((5, 2), exits, distinct_group=0)
    assert grouped is not escape and grouped != escape
    assert Demand.escape((5, 2), list(exits), 0) is grouped
    # a pair is the escape to its one exit, its target
    assert Demand.escape((5, 2), [(6, 2)]) is Demand.pair((5, 2), (6, 2))
    assert Demand.escape((5, 2), [(6, 2)], distinct_group=0) != Demand.pair((5, 2), (6, 2))
    # built directly: equal, not shared
    direct = Demand(Vertex(5, 1), frozenset({Vertex(6, 2)}))
    assert direct == pair and direct is not pair
    assert Demand.pair((5, 1), (6, 2)) is pair


def test_a_pair_is_the_escape_to_its_target_and_compiles_once():
    pair = Demand.pair((5, 2), (6, 2))
    assert pair is Demand.escape((5, 2), [(6, 2)])
    assert (pair.source, pair.exits, pair.distinct_group) == ((5, 2), {Vertex(6, 2)}, None)
    # the group is no part of the compiled demand
    comp = _compiled(make_grid(6, 6))
    cd = comp.demand(pair)
    assert comp.demand(Demand.escape((5, 2), [(6, 2)], distinct_group=0)) is cd
    assert (cd.lb, cd.max_len, len(cd.table)) == (1, 35, 1)
    # a simple path cannot return to its source, for any demand
    assert comp.demand(Demand.escape((5, 2), [(5, 2)], distinct_group=0)).max_len == 0


def test_a_shared_demand_is_frozen_and_pickles_to_an_equal_copy():
    d = Demand.escape((1, 1), [(2, 1), (2, 2)], distinct_group=0)
    with pytest.raises(FrozenInstanceError):
        d.source = Vertex(2, 2)
    with pytest.raises(FrozenInstanceError):
        d.exits = frozenset()
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and copy is not d and hash(copy) == hash(d)
    assert solve(Instance(make_grid(2, 2), (copy,))) == solve(Instance(make_grid(2, 2), (d,)))


def _shared_in_worker(d: Demand) -> tuple[bool, bool, bool]:
    own = Demand.escape(d.source, d.exits, d.distinct_group)
    (target,) = d.exits
    return d == own, d is own, own is Demand.pair(tuple(d.source), tuple(target))


def test_a_spawned_worker_unpickles_its_own_copy():
    d = Demand.pair((1, 1), (3, 3))
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(_shared_in_worker, d).result() == (True, False, True)
        back = pool.submit(Demand.pair, (1, 1), (3, 3)).result()
        crossed = (Demand.pair((1, 1), (2, 2)), Demand.pair((1, 2), (2, 1)))
        assert pool.submit(solve, Instance(make_grid(2, 2), crossed)).result() is Infeasible
    assert back == d and back is not d


def test_a_demand_with_an_unhashable_coordinate_is_built_but_not_shared():
    a = Demand.pair((1, [1]), (2, 2))
    b = Demand.pair((1, [1]), (2, 2))
    assert a == b and a is not b
    a = Demand.escape((1, [1]), [(2, 2), (2, 3)])
    b = Demand.escape((1, [1]), [(2, 2), (2, 3)])
    assert a == b and a is not b
    # exits given as lists become vertices, so the demand is shared
    shared = Demand.escape((1, 1), ((2, 3), (2, 2)))
    assert Demand.escape((1, 1), [[2, 2], [2, 3]]) is shared
    assert Demand.escape((1, 1), ([2, 2], [2, 3])) is shared


def test_infeasible_is_one_falsy_value_that_copies_and_pickles_to_itself():
    assert not Infeasible
    assert repr(Infeasible) == str(Infeasible) == "Infeasible"
    assert copy.copy(Infeasible) is Infeasible and copy.deepcopy(Infeasible) is Infeasible
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(Infeasible, protocol)) is Infeasible


def test_a_lemma_sweep_builds_each_demand_value_at_most_once(monkeypatch):
    # L8 and L9 name the same few demands in every instance, in the lemma
    # operations and again in the runners' statement checks
    built = _count_demands_built(monkeypatch)
    for lemma_id in ("L8", "L9"):
        assert verify_lemma(lemma_id).instances_checked
    assert max(built.values(), default=1) == 1


# ------------------------------------------------------------------- verify

def test_verify_round_trip_and_reports():
    g = make_grid(2, 2)
    inst = Instance(g, (Demand.pair((1, 1), (2, 2)), Demand.pair((1, 1), (2, 2))))
    cert = PathSystem((((1, 1), (1, 2), (2, 2)), ((1, 1), (1, 2), (2, 2))))
    res = verify(inst, cert)
    assert not res
    assert "edge reuse" in res.violation


def test_verify_exit_collision():
    g = make_grid(3, 3)
    a_line = [(3, 1), (3, 2), (3, 3)]
    inst = Instance(
        g,
        (
            Demand.escape((1, 2), a_line, distinct_group=7),
            Demand.escape((2, 1), a_line, distinct_group=7),
        ),
    )
    cert = PathSystem(
        (((1, 2), (2, 2), (3, 2)), ((2, 1), (3, 1), (3, 2)))
    )
    res = verify(inst, cert)
    assert not res
    assert "exit collision" in res.violation
    # same certificate is fine when the exits are shared
    shared = Instance(
        g,
        (Demand.escape((1, 2), a_line), Demand.escape((2, 1), a_line)),
    )
    assert verify(shared, cert)


def test_verify_other_clauses():
    g = make_grid(2, 2)
    inst = Instance(g, (Demand.pair((1, 1), (2, 2)),))
    assert "path count" in verify(inst, PathSystem(())).violation
    assert "absent vertex" in verify(inst, PathSystem((((1, 1), (9, 9)),))).violation
    assert (
        "non-adjacent step"
        in verify(inst, PathSystem((((1, 1), (2, 2)),))).violation
    )
    assert verify(inst, PathSystem((((1, 1), (1, 2)),))).violation == (
        "path 0: exit mismatch, ends at Vertex(row=1, col=2) outside exits"
    )
    # a forbidden edge is one the graph lacks
    forb = Instance(g.without_edges([edge((1, 1), (1, 2))]), (Demand.pair((1, 1), (2, 2)),))
    res = verify(forb, PathSystem((((1, 1), (1, 2), (2, 2)),)))
    assert res.violation == "path 0: non-adjacent step Vertex(row=1, col=1) -> Vertex(row=1, col=2)"


def test_the_certificate_of_an_instance_without_demands_is_truthy_and_verifies():
    inst = Instance(make_grid(2, 2), ())
    got = solve(inst)
    assert got == PathSystem(()) and got is not Infeasible
    assert got and verify(inst, got)


def test_verify_rejects_a_path_that_walks_one_edge_twice():
    inst = Instance(make_grid(2, 2), (Demand.pair((1, 1), (1, 1)),))
    res = verify(inst, PathSystem((((1, 1), (1, 2), (1, 1)),)))
    assert res.violation == "path 0: edge reuse (Vertex(row=1, col=1), Vertex(row=1, col=2))"


def test_verify_reports_the_earliest_clause_a_path_breaks():
    g = make_grid(2, 2)
    pair = (Demand.pair((1, 1), (2, 2)),)
    cases = [
        # absent vertex before the non-adjacent step that leads to it
        (Instance(g, pair), ((1, 1), (3, 3)), "absent vertex Vertex(row=3, col=3)"),
        # non-adjacent step before the exit mismatch
        (
            Instance(g, pair),
            ((1, 1), (2, 2), (2, 1)),
            "non-adjacent step Vertex(row=1, col=1) -> Vertex(row=2, col=2)",
        ),
        # non-adjacent step before the start mismatch
        (
            Instance(g, pair),
            ((1, 2), (2, 1)),
            "non-adjacent step Vertex(row=1, col=2) -> Vertex(row=2, col=1)",
        ),
        # edge reuse before the exit mismatch
        (
            Instance(g, pair),
            ((1, 1), (1, 2), (1, 1)),
            "edge reuse (Vertex(row=1, col=1), Vertex(row=1, col=2))",
        ),
        # start before end
        (
            Instance(g, pair),
            ((1, 2), (1, 1)),
            "endpoint mismatch, starts at Vertex(row=1, col=2) not Vertex(row=1, col=1)",
        ),
    ]
    for inst, path, msg in cases:
        # plain tuples and Vertex values give one verdict, named as Vertex
        for p in (path, tuple(map(vertex, path))):
            assert verify(inst, PathSystem((p,))).violation == f"path 0: {msg}"


def test_verify_fails_a_malformed_vertex_and_names_its_path():
    g = make_grid(2, 2)
    pairs = (Demand.pair((1, 1), (1, 2)), Demand.pair((2, 1), (2, 2)))
    good = ((2, 1), (2, 2))
    # a list does not hash; a 3-tuple is not a (row, col) pair
    for bad in ([[1, 1], [1, 2]], ((1, 1), [1, 2]), ((1, 1), (1, 2, 3))):
        first = verify(Instance(g, pairs), PathSystem((bad, good)))
        assert not first and first.violation.startswith("path 0: malformed vertex (")
        second = verify(Instance(g, pairs[::-1]), PathSystem((good, bad)))
        assert not second and second.violation.startswith("path 1: malformed vertex (")
    res = verify(Instance(g, pairs), PathSystem(([[1, 1], [1, 2]], good)))
    assert res.violation == "path 0: malformed vertex (unhashable type: 'list')"


def _set_verify(inst, cert):
    """The set-based ``verify`` that the step table replaced: canonical edge
    tuples looked up in ``present_edges`` and gathered in a set.  The
    reference for the differential test; the same clauses, in the same
    order, with the same messages."""
    if not isinstance(cert, PathSystem):
        return routing._bad("not a path system")
    if len(cert.paths) != len(inst.demands):
        return routing._bad(
            f"path count mismatch: {len(cert.paths)} paths for {len(inst.demands)} demands"
        )
    present = inst.graph.present_vertices
    gedges = inst.graph.present_edges
    seen_edges = set()
    nseen = 0
    group_ends = {}
    i = 0
    try:
        for i, (d, p) in enumerate(zip(inst.demands, cert.paths)):
            if not p:
                return routing._bad(f"path {i} is empty")
            for v in p:
                if v not in present:
                    return routing._bad(f"path {i}: absent vertex {vertex(v)}")
            for k in range(len(p) - 1):
                a, b = p[k], p[k + 1]
                e = (a, b) if a <= b else (b, a)
                if e not in gedges:
                    return routing._bad(
                        f"path {i}: non-adjacent step {vertex(a)} -> {vertex(b)}"
                    )
                seen_edges.add(e)
                if len(seen_edges) == nseen:
                    return routing._bad(f"path {i}: edge reuse {edge(a, b)}")
                nseen += 1
            if p[0] != d.source:
                return routing._bad(
                    f"path {i}: endpoint mismatch, starts at {vertex(p[0])} not {d.source}"
                )
            last = p[-1]
            if last not in d.exits:
                return routing._bad(
                    f"path {i}: exit mismatch, ends at {vertex(last)} outside exits"
                )
            if d.distinct_group is not None:
                ends = group_ends.setdefault(d.distinct_group, set())
                if last in ends:
                    return routing._bad(f"path {i}: exit collision at {vertex(last)}")
                ends.add(last)
    except (TypeError, ValueError) as exc:
        return routing._bad(f"path {i}: malformed vertex ({exc})")
    return routing.VerifyResult(True)


def _verify_mutants(inst, cert):
    """``(instance, certificate)`` pairs around one solved instance: itself,
    and per path one moved, dropped, list, 3-tuple and absent vertex, a
    reused edge, a wrong start and a wrong exit, plus the instance with
    every demand in one group (exit collisions where two paths share an
    end)."""
    yield inst, cert
    if cert is Infeasible:
        return
    verts = sorted(inst.graph.present_vertices)
    paths = cert.paths
    for i, p in enumerate(paths):
        k = len(p) // 2

        def put(q):
            return PathSystem(paths[:i] + (q,) + paths[i + 1 :])

        yield inst, put(p[:k] + (verts[(k + i) % len(verts)],) + p[k + 1 :])  # moved
        yield inst, put(p[:k] + p[k + 1 :])  # dropped
        yield inst, put(p[:k] + (list(p[k]),) + p[k + 1 :])  # list vertex
        yield inst, put(p[:k] + (tuple(p[k]) + (0,),) + p[k + 1 :])  # 3-tuple vertex
        yield inst, put(p[:k] + ((9, 9),) + p[k + 1 :])  # absent vertex
        yield inst, put(p + p[-2::-1][:1] + p[-1:] if len(p) > 1 else p + p)  # reused edge
        yield inst, put(p[1:] or (verts[i % len(verts)],))  # wrong start
        yield inst, put(p[:-1] or p + (verts[i % len(verts)],))  # wrong exit
    grouped = tuple(Demand.escape(d.source, d.exits, distinct_group=0) for d in inst.demands)
    yield Instance(inst.graph, grouped), cert  # exit collision


def test_verify_agrees_with_the_set_based_verify():
    # The pinned certificates and their mutants: the same verdict and the
    # same message, and every valid certificate gets the one shared result.
    messages = set()
    ok = set()
    for inst in _pinned_instances():
        for mutant, cert in _verify_mutants(inst, solve(inst)):
            got, want = verify(mutant, cert), _set_verify(mutant, cert)
            assert (got.ok, got.violation) == (want.ok, want.violation), (mutant, cert)
            if got:
                ok.add(id(got))
            else:
                messages.add(got.violation)
    assert len(ok) == 1
    for clause in (
        "not a path system",
        "absent vertex",
        "non-adjacent step",
        "edge reuse",
        "endpoint mismatch",
        "exit mismatch",
        "exit collision",
        "malformed vertex (unhashable",
        "malformed vertex (too many values",
    ):
        assert any(clause in m for m in messages), clause


def test_instance_keeps_a_tuple_of_its_demands():
    g = make_grid(2, 2)
    d = Demand.pair((1, 1), (2, 2))
    inst = Instance(g, [d])
    assert inst.demands == (d,) and type(inst.demands) is tuple
    demands = (d,)
    assert Instance(g, demands).demands is demands


# -------------------------------------------------------------- escape_flow

def test_flow_zero_length():
    got = escape_flow(make_grid(3, 3), [(2, 2)], [(2, 2)], distinct=True)
    assert got == PathSystem((((2, 2),),))


def test_flow_first_column_escapes():
    adj = adjusted_quadrant("Q0")
    got = escape_flow(adj.graph, [(1, 1), (2, 1), (3, 1)], adj.A, distinct=True)
    assert got is not Infeasible
    ends = [p[-1] for p in got.paths]
    assert len(set(ends)) == 3 and set(ends) <= set(adj.A)


def test_flow_corner_cut_bound():
    got = escape_flow(
        make_grid(3, 3),
        [(1, 1), (1, 1), (1, 1)],
        [(3, 1), (1, 3), (3, 3)],
        distinct=True,
    )
    assert got is Infeasible


def test_flow_paths_are_edge_disjoint():
    g = make_grid(3, 3)
    got = escape_flow(g, [(1, 1), (1, 2), (1, 3)], [(3, 1), (3, 2), (3, 3)], distinct=True)
    assert got is not Infeasible
    used = [e for p in got for e in path_edges(p)]
    assert len(used) == len(set(used))
    for p in got.paths:
        for k in range(len(p) - 1):
            assert edge(p[k], p[k + 1]) in g.present_edges


def test_flow_rejects_malformed():
    g = make_grid(2, 2)
    with pytest.raises(ValueError):
        escape_flow(g, [], [(1, 1)], distinct=False)
    with pytest.raises(ValueError):
        escape_flow(g, [(1, 1)], [], distinct=False)
    with pytest.raises(ValueError):
        escape_flow(g, [(7, 7)], [(1, 1)], distinct=False)


def test_flow_routes_a_path_longer_than_the_recursion_limit():
    g = make_grid(1, 2000)
    got = escape_flow(g, [(1, 1)], [(1, 2000)], distinct=True)
    assert got == PathSystem((tuple(Vertex(1, c) for c in range(1, 2001)),))


def test_flow_avoids_forbidden_edges():
    g = make_grid(2, 2)
    got = escape_flow(g.without_edges([((1, 1), (1, 2))]), [(1, 1)], [(1, 2)], distinct=True)
    assert got == PathSystem(((Vertex(1, 1), Vertex(2, 1), Vertex(2, 2), Vertex(1, 2)),))
    cut = g.without_edges([((1, 1), (1, 2)), ((1, 1), (2, 1))])
    assert escape_flow(cut, [(1, 1)], [(1, 2)], distinct=True) is Infeasible


# ------------------------------------------------- dual-oracle cross checks

_verts33 = [Vertex(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]


@st.composite
def escape_scenarios(draw):
    g = make_grid(3, 3)
    removals = draw(st.sets(st.sampled_from(sorted(g.present_edges)), max_size=4))
    graph = g.without_edges(removals)
    sources = draw(st.lists(st.sampled_from(_verts33), min_size=1, max_size=3))
    exits = draw(st.sets(st.sampled_from(_verts33), min_size=1, max_size=4))
    distinct = draw(st.booleans())
    return graph, sources, sorted(exits), distinct


@given(escape_scenarios())
@settings(deadline=None)
def test_solver_agrees_with_flow(scenario):
    graph, sources, exits, distinct = scenario
    group = 0 if distinct else None
    inst = Instance(
        graph,
        tuple(Demand.escape(s, exits, distinct_group=group) for s in sources),
    )
    by_search = solve(inst)
    by_flow = escape_flow(graph, sources, exits, distinct)
    assert (by_search is Infeasible) == (by_flow is Infeasible)
    if by_search is not Infeasible:
        assert verify(inst, by_search)
        assert verify(inst, by_flow)


@st.composite
def mixed_instances(draw):
    g = make_grid(3, 3)
    removals = draw(st.sets(st.sampled_from(sorted(g.present_edges)), max_size=3))
    graph = g.without_edges(removals)
    demands = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            demands.append(
                Demand.pair(draw(st.sampled_from(_verts33)), draw(st.sampled_from(_verts33)))
            )
        else:
            exits = draw(st.sets(st.sampled_from(_verts33), min_size=1, max_size=3))
            demands.append(Demand.escape(draw(st.sampled_from(_verts33)), sorted(exits)))
    return Instance(graph, tuple(demands)), removals


@given(mixed_instances())
@settings(deadline=None)
def test_round_trip_and_monotonicity(drawn):
    inst, removals = drawn
    got = solve(inst)
    if got is Infeasible:
        return
    assert verify(inst, got)
    if removals:
        richer = Instance(make_grid(3, 3), inst.demands)
        assert solve(richer) is not Infeasible


# ------------------------------------------------------------ weak linkage

def test_weak_linkage_small_cases():
    assert is_weakly_2_linked(make_grid(1, 1))
    # the bare 4-cycle fails on the crossed diagonals
    assert not is_weakly_2_linked(make_grid(2, 2))
    assert not is_weakly_2_linked(make_grid(1, 3))
    # two components: a pair across them has no path at all
    assert not is_weakly_2_linked(make_grid(3, 3).without_vertices([(2, 1), (2, 2), (2, 3)]))


# ------------------------------------------- brute-force Infeasible oracle
#
# Enumerates every simple path of every demand and searches for an
# edge-disjoint choice.  A trail that repeats a vertex contains a simple path
# on a subset of its edges, so simple paths decide existence.  Exponential,
# so it is only run on graphs of 3x3 or smaller.


def _simple_paths(adj, source, accepts):
    out = []
    path = [source]

    def walk(v):
        if accepts(v):
            out.append(tuple(path))
        for w in adj[v]:
            if w not in path:
                path.append(w)
                walk(w)
                path.pop()

    walk(source)
    return out


def _path_options(inst: Instance):
    """Every simple path of every demand, with its edge set."""
    adj = {v: [] for v in inst.graph.present_vertices}
    for a, b in inst.graph.present_edges:
        adj[a].append(b)
        adj[b].append(a)
    options = []
    for d in inst.demands:
        paths = _simple_paths(adj, d.source, lambda v, xs=d.exits: v in xs)
        options.append([(p, frozenset(path_edges(p))) for p in paths])
    return options


def _oracle_routable(inst: Instance) -> bool:
    options = _path_options(inst)

    def choose(i, used, group_ends):
        if i == len(options):
            return True
        group = inst.demands[i].distinct_group
        for p, es in options[i]:
            end = (group, p[-1])
            if es & used or (group is not None and end in group_ends):
                continue
            if choose(i + 1, used | es, group_ends | {end}):
                return True
        return False

    return choose(0, frozenset(), frozenset())


def _oracle_certificate(inst: Instance):
    """The path system the solver must return, or None when there is none.

    Of the path systems of least total length, the first in (len0, path0,
    len1, path1, ...) order, paths compared vertex by vertex: the ladder
    finds the least total, and each demand's walk yields its paths
    shortest first and, within a length, in (row, col) order.  Branch and
    bound over every simple path, so only for graphs of 3x4 or smaller.
    """
    options = [
        sorted((len(p) - 1, p, es) for p, es in opts) for opts in _path_options(inst)
    ]
    if not all(options):
        return None
    n = len(options)
    least_after = [sum(opts[0][0] for opts in options[i + 1 :]) for i in range(n)]
    best = None

    def choose(i, used, group_ends, total, key):
        nonlocal best
        if i == n:
            if best is None or (total, key) < best:
                best = (total, key)
            return
        group = inst.demands[i].distinct_group
        for length, p, es in options[i]:
            if best is not None and total + length + least_after[i] > best[0]:
                break
            end = (group, p[-1])
            if es & used or (group is not None and end in group_ends):
                continue
            choose(i + 1, used | es, group_ends | {end}, total + length, key + (length, p))

    choose(0, frozenset(), frozenset(), 0, ())
    return None if best is None else PathSystem(best[1][1::2])


@st.composite
def small_instances(draw, max_cols=3):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, max_cols))
    g = make_grid(rows, cols)
    removals = set()
    if g.present_edges:
        removals = draw(st.sets(st.sampled_from(sorted(g.present_edges)), max_size=3))
    graph = g.without_edges(removals)
    forbidden = set()
    if graph.present_edges:
        forbidden = draw(st.sets(st.sampled_from(sorted(graph.present_edges)), max_size=3))
    verts = sorted(graph.present_vertices)
    demands = []
    for _ in range(draw(st.integers(1, 3))):
        source = draw(st.sampled_from(verts))
        if draw(st.booleans()):
            demands.append(Demand.pair(source, draw(st.sampled_from(verts))))
        else:
            exits = draw(st.sets(st.sampled_from(verts), min_size=1, max_size=4))
            group = draw(st.sampled_from([None, 0, 1]))
            demands.append(Demand.escape(source, sorted(exits), distinct_group=group))
    return Instance(graph.without_edges(forbidden), tuple(demands))


@given(small_instances())
@settings(deadline=None, max_examples=300)
def test_infeasible_exactly_when_brute_force_finds_nothing(inst):
    got = solve(inst)
    assert (got is Infeasible) == (not _oracle_routable(inst))
    if got is not Infeasible:
        assert verify(inst, got)


@given(small_instances(max_cols=4))
@settings(deadline=None, max_examples=200)
def test_certificate_is_the_least_path_system_brute_force_finds(inst):
    want = _oracle_certificate(inst)
    assert solve(inst) == (Infeasible if want is None else want)


def test_oracle_sees_the_crossed_diagonals():
    crossed = Instance(
        make_grid(2, 2),
        (Demand.pair((1, 1), (2, 2)), Demand.pair((1, 2), (2, 1))),
    )
    assert not _oracle_routable(crossed)
    same = Instance(
        make_grid(2, 2),
        (Demand.pair((1, 1), (2, 2)), Demand.pair((1, 1), (2, 2))),
    )
    assert _oracle_routable(same)


# ------------------------------- Infeasible answers of the crowded lemmas
#
# L1 and L2 try the largest linked set first, so the solver proves some link
# choices infeasible before one succeeds.  Those answers are checked here by
# the brute-force oracle (the crowded quadrant is 3x3).

_CROWDED_INFEASIBLE = {"L1": 1211, "L2": 270}


@pytest.fixture(scope="module")
def crowded_infeasible():
    """Every instance crowded_escape solves to Infeasible during L1 and L2."""
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        for lemma_id in _CROWDED_INFEASIBLE:
            seen = []

            def recording_solve(inst, seen=seen):
                got = solve(inst)
                if got is Infeasible:
                    seen.append(inst)
                return got

            mp.setattr(crowded, "solve", recording_solve)
            verify_lemma(lemma_id)
            found[lemma_id] = seen
    return found


def test_crowded_infeasible_answers_agree_with_brute_force(crowded_infeasible):
    assert {k: len(v) for k, v in crowded_infeasible.items()} == _CROWDED_INFEASIBLE
    for insts in crowded_infeasible.values():
        for inst in insts:
            assert not _oracle_routable(inst)


def test_crowded_infeasible_searches_stop_below_their_budget(crowded_infeasible):
    for insts in crowded_infeasible.values():
        for inst in insts:
            search = _Search(inst)
            assert search.run() is Infeasible
            budget = sum(d.max_len - d.dist[d.src] for d in search.demands)
            assert search.slack is not None and search.slack < budget
            _check_ladder(inst)


# ----------------------------------------------------- certificate digest
#
# Pins the exact certificates the solver returns, so that a change meant
# only to make it faster cannot silently change its answers.

_CERTIFICATE_DIGEST = "9d1ea1eb455ee833851932e113c92d5b62a9a363ea62de1c6ce06f3b89c55d8a"


def _pinned_instances():
    rng = Random(1)
    grid = make_grid(6, 6)
    for _ in range(300):
        placement = sample_pairability(rng)
        yield Instance(grid, tuple(Demand.pair(s, t) for s, t in placement))
    # Each escape family member both as drawn and with its distinct-exit
    # flag flipped, so that some answers are infeasible.
    adjusted = {}
    for kind, terms, distinct in _iter_escape_family():
        adj = adjusted.setdefault(kind, adjusted_quadrant(kind))
        for group in ((0, None) if distinct else (None, 0)):
            yield Instance(
                adj.graph,
                tuple(Demand.escape(t, adj.A, distinct_group=group) for t in terms),
            )


def test_certificates_are_pinned():
    h = hashlib.sha256()
    for inst in _pinned_instances():
        h.update(serialize_certificate(solve(inst)).encode())
    assert h.hexdigest() == _CERTIFICATE_DIGEST


# ------------------------------------------ word-parallel flood vs plain BFS


def _bfs_reach(comp, src, used):
    """Reference for ``_flood``: vertex-by-vertex BFS over unused edges."""
    seen = 1 << src
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w, ebit, wbit in comp.adj[u]:
                if used & ebit or seen & wbit:
                    continue
                seen |= wbit
                nxt.append(w)
        frontier = nxt
    return seen


def _flood_graphs():
    grid = make_grid(6, 6)
    yield "6x6", grid
    yield "UL", quadrant(grid, Corner.UL).graph
    for kind in ("Q0", "Q1", "Q2", "Q3", "Q4"):
        yield kind, adjusted_quadrant(kind).graph


@pytest.mark.parametrize("name,graph", list(_flood_graphs()))
def test_flood_equals_adjacency_bfs(name, graph):
    comp = _compiled(graph)
    ebits = sorted({ebit for a in comp.adj for _, ebit, _ in a})
    assert len(ebits) == len(graph.present_edges)
    rng = Random(name)
    for _ in range(200):
        used = 0
        for ebit in rng.sample(ebits, rng.randrange(len(ebits) + 1)):
            used |= ebit
        free = comp.free_lanes(used)
        for src in range(comp.nv):
            assert _flood(1 << src, free) == _bfs_reach(comp, src, used)


def test_contracted_quadrants_have_non_unit_offsets():
    offsets = {k for k, _, _ in _compiled(adjusted_quadrant("Q2").graph).lanes}
    assert len(offsets) > 2
    assert {k for k, _, _ in _compiled(make_grid(6, 6)).lanes} == {1, 6}


def test_cached_distance_table_equals_a_fresh_one():
    comp = _compiled(adjusted_quadrant("Q3").graph)
    for goals in [(0,), (1, 4), tuple(range(comp.nv))]:
        cached = comp.distances(goals)
        assert isinstance(cached, tuple)
        assert comp.distances(goals) is cached
        assert cached == comp.distances_from(goals)


# ------------------------------------------------ compiled forms per graph


def _slots(cd):
    return {name: getattr(cd, name) for name in type(cd).__slots__}


def test_compiled_demand_equals_a_fresh_compile():
    adj = adjusted_quadrant("Q1")
    comp = _compiled(adj.graph)
    verts = sorted(adj.graph.present_vertices)
    demands = [Demand.pair(u, v) for u in verts[:3] for v in verts]
    demands += [Demand.escape(u, adj.A, distinct_group=g) for u in verts for g in (None, 0)]
    for d in demands:
        cached = comp.demand(d)
        assert comp.demand(d) is cached
        assert _slots(cached) == _slots(comp.compile_demand(d))
    # the group is not part of the compiled demand
    assert comp.demand(Demand.escape(verts[0], adj.A, 0)) is comp.demand(
        Demand.escape(verts[0], adj.A, 5)
    )


def test_compiled_form_survives_other_graphs():
    g = make_grid(3, 4).without_edges([edge((1, 1), (1, 2))])
    comp = _compiled(g)
    for k in range(100):
        other = make_grid(2 + k % 3, 2 + k % 4)
        solve(Instance(other, (Demand.pair((1, 1), (2, 2)),)))
    assert _compiled(g) is comp
    # one compiled form per graph object, not per graph value
    assert _compiled(make_grid(3, 4).without_edges([edge((1, 1), (1, 2))])) is not comp


def test_compiled_form_dies_with_its_graph():
    g = make_grid(3, 3)
    solve(Instance(g, (Demand.pair((1, 1), (3, 3)),)))
    ref = weakref.ref(_compiled(g))
    assert ref() is not None
    del g
    gc.collect()
    assert ref() is None


def test_the_matcher_leaves_no_cyclic_garbage():
    # a recursive closure would refer to itself through its cell, and every
    # call would leave a cycle for the collector
    assert routing._has_matching([1, 3, 6]) and not routing._has_matching([1, 1, 6])
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(100):
            routing._has_matching([1, 3, 6])
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_solved_graph_pickles_as_small_as_a_fresh_one():
    g = make_grid(6, 6)
    inst = Instance(g, (Demand.pair((1, 1), (6, 6)), Demand.pair((1, 6), (6, 1))))
    fresh = pickle.dumps(g)
    got = solve(inst)
    assert verify(inst, got)
    assert "compiled_form" in vars(g) and "steps" in vars(g)
    assert pickle.dumps(g) == fresh
    clone = pickle.loads(fresh)
    assert clone == g and "compiled_form" not in vars(clone) and "steps" not in vars(clone)
    assert solve(Instance(clone, inst.demands)) == got
    assert verify(Instance(clone, inst.demands), got)


# --------------------------------------- candidate walk vs brute force
#
# The reference lists every simple path of exactly ``limit`` edges over
# unused edges and keeps those that end at a goal, do not end at an exit
# their group already holds, and (for a pair, or an escape with no group)
# have no goal before their last vertex; sorted by vertex index, that is the
# order of a depth-first walk with neighbours in (row, col) order.  The
# vertices a searching walk expands are checked too: every prefix it may
# continue, which no pruning rule excludes, in the same order.  A walk that
# filters a table (the shortest length's, or a longer length's once it has
# been walked twice) reads nothing.


class _CountingAdj(list):
    """An adjacency list that records every vertex whose neighbours are read."""

    def __init__(self, adj):
        super().__init__(adj)
        self.read = []

    def __getitem__(self, v):
        self.read.append(v)
        return list.__getitem__(self, v)


def _walk_reference(comp, cd, gi, used, gused, limit):
    taken = gused[gi] if gi >= 0 else 0
    stop = cd.goal if gi < 0 else 0
    paths, expanded = [], []

    def grow(path, vmask):
        if len(path) == limit + 1:
            paths.append(tuple(path))
            return
        # a path the walk continues: within reach of a goal in the length
        # left at every step, and no stop vertex on it
        if all(cd.dist[v] <= limit - i for i, v in enumerate(path) if i) and not any(
            (stop >> v) & 1 for v in path
        ):
            expanded.append(tuple(path))
        for w, ebit, wbit in comp.adj[path[-1]]:
            if not vmask & wbit and not used & ebit:
                path.append(w)
                grow(path, vmask | wbit)
                path.pop()

    grow([cd.src], 1 << cd.src)
    yielded = [
        p
        for p in paths
        if (cd.goal >> p[-1]) & 1
        and not (taken >> p[-1]) & 1
        and not any((stop >> v) & 1 for v in p[:-1])
    ]
    order = [pre[-1] for pre in sorted(expanded)]
    return sorted(yielded), order


def _as_masks(comp, paths):
    """(edge mask, end bit) of each vertex-index path."""
    out = []
    for p in paths:
        mask = 0
        for u, v in zip(p, p[1:]):
            mask |= next(ebit for w, ebit, _ in comp.adj[u] if w == v)
        out.append((mask, 1 << p[-1]))
    return out


def _rebuilt(cd, table, adj):
    """``cd`` with another table (None: its walk searches the shortest length too),
    another adjacency list and no length table yet."""
    walker = _CDemand(cd.src, cd.goal, cd.dist, cd.step, cd.max_len, adj, cd.eshift)
    walker.table = table
    return walker


def _walk_graphs():
    yield "UL", quadrant(make_grid(6, 6), Corner.UL).graph, None
    for kind in ("Q0", "Q1", "Q2", "Q3", "Q4"):
        adj = adjusted_quadrant(kind)
        yield kind, adj.graph, adj.A
    yield "4x4", make_grid(4, 4), None


def _walk_demands(verts, exits, rng):
    for _ in range(12):
        s, t = rng.choice(verts), rng.choice(verts)
        yield Demand.pair(s, t), -1
    yield Demand.pair(verts[0], verts[0]), -1
    for _ in range(12):
        xs = exits if exits and rng.random() < 0.5 else rng.sample(verts, rng.randrange(1, 4))
        yield Demand.escape(rng.choice(verts), xs), -1
        yield Demand.escape(rng.choice(verts), xs, distinct_group=0), rng.randrange(2)


@pytest.mark.parametrize("name,graph,exits", list(_walk_graphs()))
def test_walk_yields_the_brute_force_paths_in_order(name, graph, exits):
    # Each demand walks every length three times, under three draws of used
    # edges and taken exits.  The first walk of a longer length searches;
    # the second builds the length's table from a search with nothing used
    # and filters it; the third only filters, and reads no adjacency.  The
    # shortest length filters the demand's table from the first walk, and is
    # searched every time when the demand has none.
    comp = _compiled(graph)
    verts = sorted(graph.present_vertices)
    ebits = sorted({ebit for a in comp.adj for _, ebit, _ in a})
    rng = Random(name)
    yielded = tabled = 0
    for d, gi in _walk_demands(verts, exits, rng):
        cd = comp.demand(d)
        assert cd.table is not None
        grouped = gi >= 0
        walkers = [(table, _rebuilt(cd, table, _CountingAdj(comp.adj))) for table in (cd.table, None)]
        for rep in range(3):
            used = 0
            for ebit in rng.sample(ebits, rng.randrange(len(ebits) // 3 + 1)):
                used |= ebit
            gused = tuple(rng.getrandbits(comp.nv) & cd.goal for _ in range(2))
            taken = gused[gi] if grouped else 0
            for limit in range(min(comp.nv, 12)):
                want, order = _walk_reference(comp, cd, gi, used, gused, limit)
                for table, walker in walkers:
                    adj = walker.adj
                    adj.read.clear()
                    got = list(walker.walk(used, taken, grouped, limit))
                    assert got == _as_masks(comp, want), (d, gi, limit, rep)
                    if limit == cd.lb:
                        reads = [] if table is not None else order
                    elif rep == 0:
                        reads = order
                    elif rep == 1:
                        reads = _walk_reference(comp, cd, gi, 0, gused, limit)[1]
                    else:
                        reads = []
                        tabled += 1
                    assert adj.read == reads, (d, gi, limit, rep)
                    yielded += len(got)
    assert yielded > 100 and tabled > 100


def _trace_reference(comp, src, mask):
    """Reference for ``_trace``: at each vertex, scan its neighbours for the
    first unspent edge of ``mask``."""
    u, path = src, [comp.verts[src]]
    while mask:
        for w, ebit, _ in comp.adj[u]:
            if mask & ebit:
                mask ^= ebit
                u = w
                path.append(comp.verts[w])
                break
    return tuple(path)


def test_trace_equals_the_adjacency_scan_on_every_grid_table_entry():
    g = make_grid(6, 6)
    comp = _compiled(g)
    traced = 0
    for s in sorted(g.present_vertices):
        for t in sorted(g.present_vertices):
            cd = comp.demand(Demand.pair(s, t))
            for m in cd.table:
                mask = m & ((1 << comp.eshift) - 1)
                path = _trace(comp, cd.src, mask)
                assert path == _trace_reference(comp, cd.src, mask)
                assert (path[0], path[-1]) == (s, t)
                traced += 1
    assert traced == 13024 + 36


@pytest.mark.parametrize("name,graph,exits", list(_walk_graphs())[:-1])
def test_trace_equals_the_adjacency_scan_on_walk_yields(name, graph, exits):
    # UL and Q0-Q4; the contracted quadrants have edges between vertices
    # that are not grid neighbours
    comp = _compiled(graph)
    verts = sorted(graph.present_vertices)
    ebits = sorted({ebit for a in comp.adj for _, ebit, _ in a})
    rng = Random(name)
    traced = 0
    for d, gi in _walk_demands(verts, exits, rng):
        cd = comp.demand(d)
        used = 0
        for ebit in rng.sample(ebits, rng.randrange(len(ebits) // 4 + 1)):
            used |= ebit
        for limit in range(cd.lb, min(comp.nv, 10)):
            for mask, end in cd.walk(used, 0, gi >= 0, limit):
                path = _trace(comp, cd.src, mask)
                assert path == _trace_reference(comp, cd.src, mask), (d, limit)
                assert len(path) == limit + 1 and 1 << comp.vindex[path[-1]] == end
                traced += 1
    assert traced > 40, name


@pytest.mark.parametrize("name,graph,exits", list(_walk_graphs()))
def test_shortest_path_masks_are_the_union_of_the_shortest_paths(name, graph, exits):
    # The prune takes a demand's free distance to be lb while no edge of
    # ``short`` is used and a goal of ``near`` is open, and the walk filters
    # the table at length lb; so the table must hold every shortest path,
    # in the brute-force walk's order, and the masks must be exactly theirs.
    comp = _compiled(graph)
    verts = sorted(graph.present_vertices)
    for d, _ in _walk_demands(verts, exits, Random(name)):
        cd = comp.demand(d)
        found = _as_masks(comp, _walk_reference(comp, cd, -1, 0, (), cd.lb)[0])
        assert cd.table == tuple(mask | end << comp.eshift for mask, end in found), d
        short = near = 0
        for mask, end in found:
            short |= mask
            near |= end
        assert (cd.short, cd.near) == (short, near), d


def test_pair_tables_on_the_grid_count_the_lattice_paths():
    # A shortest path on the intact grid is a lattice path: |dr| vertical
    # and |dc| horizontal steps in any order.
    g = make_grid(6, 6)
    comp = _compiled(g)
    total = 0
    for s in sorted(g.present_vertices):
        for t in sorted(g.present_vertices):
            if s != t:
                dr, dc = abs(s.row - t.row), abs(s.col - t.col)
                n = len(comp.demand(Demand.pair(s, t)).table)
                assert n == comb(dr + dc, dr), (s, t)
                total += n
    assert total == 13024


def test_a_demand_beyond_the_table_cap_is_searched():
    # 9x9 corner to corner has C(16, 8) = 12,870 shortest paths.
    g = make_grid(9, 9)
    cd = _compiled(g).demand(Demand.pair((1, 1), (9, 9)))
    assert cd.table is None and cd.short == cd.near == 0
    demands = (
        Demand.pair((1, 1), (9, 9)),
        Demand.pair((1, 9), (9, 1)),
        Demand.pair((1, 1), (9, 9)),
    )
    inst = Instance(g, demands)
    assert verify(inst, solve(inst))
    # Its longer lengths are beyond the cap too: the second walk of one
    # gives up building its table after _TABLE_CAP + 1 paths, and every
    # later walk searches again.
    walker = _rebuilt(cd, None, _CountingAdj(cd.adj))
    key = cd.lb + 2 << 1
    for rep in range(4):
        walker.adj.read.clear()
        first = list(islice(walker.walk(0, 0, False, cd.lb + 2), 3))
        assert len(first) == 3 and walker.adj.read
        assert walker.tables[key] == (routing._ASKED_ONCE if rep == 0 else routing._BEYOND_CAP)


def test_certificates_do_not_depend_on_the_tables(monkeypatch):
    # With no table, of the shortest length or of any longer one, every walk
    # searches and the prune floods; the search must find the same
    # certificates.  (A cap of 0 still tables a length with no path.)
    def instances(rng, g):
        verts = sorted(g.present_vertices)
        for _ in range(150):
            pairs = sample_pairability(rng)
            demands = [Demand.pair(s, t) for s, t in pairs[: rng.randint(2, 4)]]
            for _ in range(rng.randint(0, 3)):
                exits = rng.sample(verts, rng.randint(1, 4))
                group = rng.choice([None, 0, 1])
                demands.append(Demand.escape(rng.choice(verts), exits, group))
            yield Instance(g, tuple(demands))

    def longer_tables(g):
        """The length tables above the shortest length that hold a path."""
        return [
            table
            for cd in _compiled(g)._demands.values()
            for table in (cd.tables or {}).values()
            if type(table) is tuple and table
        ]

    grids = make_grid(6, 6), make_grid(6, 6)
    tabled = [serialize_certificate(solve(inst)) for inst in instances(Random(6), grids[0])]
    monkeypatch.setattr(routing, "_TABLE_CAP", 0)
    bare = [serialize_certificate(solve(inst)) for inst in instances(Random(6), grids[1])]
    assert bare == tabled
    assert sum(c.startswith("infeasible") for c in tabled) < len(tabled)
    assert len(longer_tables(grids[0])) > 10 and longer_tables(grids[1]) == []


def test_ladder_asks_only_for_lengths_of_the_shortest_paths_parity(monkeypatch):
    # In a bipartite graph every path to goals of one colour has the parity
    # of the shortest one, so the ladder skips every other length.
    graph = make_grid(4, 4)
    # the second pair's shortest path lies on the first one's
    instances = [
        Instance(
            graph,
            (
                Demand.pair(s, t),
                Demand.pair((1, 2), (1, 3)),
                Demand.escape((2, 1), [(1, 1), (3, 3)], distinct_group=0),
            ),
        )
        for s, t in [((1, 1), (1, 4)), ((2, 2), (2, 3)), ((4, 1), (1, 4))]
    ]
    want = [solve(inst) for inst in instances]
    asked = []
    walk = _CDemand.walk

    def recording(cd, used, taken, grouped, limit):
        asked.append((cd, limit))
        return walk(cd, used, taken, grouped, limit)

    monkeypatch.setattr(_CDemand, "walk", recording)
    assert [solve(inst) for inst in instances] == want
    assert any(limit > cd.lb for cd, limit in asked)
    for cd, limit in asked:
        assert (limit - cd.lb) % 2 == 0
    # Q2 has an odd cycle, so every length is tried there
    q2 = adjusted_quadrant("Q2").graph
    comp = _compiled(q2)
    verts = sorted(q2.present_vertices)
    assert {comp.demand(Demand.pair(verts[0], v)).step for v in verts[1:]} == {1}


def test_prune_needs_distinct_exits_within_a_group(monkeypatch):
    g = make_grid(3, 3)

    def prune(sources, exits, group=0):
        search = _Search(Instance(g, tuple(Demand.escape(s, exits, group) for s in sources)))
        return search._prune_ok(0, 0, (0,) * search.ngroups)

    assert not prune([(1, 1), (2, 2)], [(3, 3)])
    assert prune([(1, 1), (2, 2)], [(3, 3)], group=None)
    assert prune([(1, 1), (2, 2)], [(3, 3), (1, 3)])
    assert not prune([(1, 1), (2, 2), (2, 1)], [(3, 3), (1, 3)])
    assert prune([(1, 1), (2, 2), (2, 1)], [(3, 3), (1, 3), (3, 1)])
    # Escapes of two groups may share an exit: each group is matched alone,
    # on its witness rows, so a group of one row floods nothing.
    floods = []
    flood = routing._flood
    monkeypatch.setattr(routing, "_flood", lambda *a: floods.append(a) or flood(*a))

    def two_groups(*escapes):
        search = _Search(Instance(g, tuple(Demand.escape(s, [(3, 3)], k) for s, k in escapes)))
        return search._prune_ok(0, 0, (0,) * search.ngroups)

    assert two_groups(((1, 1), 0), ((2, 2), 1))
    assert two_groups(((1, 1), 0), ((2, 2), 1), ((2, 1), 2))
    assert floods == []
    assert not two_groups(((1, 1), 0), ((2, 2), 1), ((2, 1), 0))
    assert not two_groups(((1, 1), 1), ((2, 2), 0), ((2, 1), 0))
    # Two escapes from (1,1) to {(1,2), (3,3)}: the shortest paths of both
    # end at (1,2), so their witness rows are both {(1,2)} and fail Hall's
    # check; flooded, both rows are {(1,2), (3,3)} and pass.
    search = _Search(Instance(g, tuple(Demand.escape((1, 1), [(1, 2), (3, 3)], 0) for _ in "ab")))
    assert search.demands[0].near == 1 << search.comp.vindex[(1, 2)]
    assert search._prune_ok(0, 0, (0,))
    # With a path committed and a finite slack: the pair takes the edge
    # (1,1)-(1,2), so each escape's shortest path is blocked and its layered
    # growth meets (1,2) first, 3 edges away ((3,3) is 4 away).  The two
    # witness rows are again {(1,2)}; the floods widen both to {(1,2),
    # (3,3)}, so the group can be matched, but only one escape ends at
    # (1,2): the detours spend 2 + 3 of the slack.  At slack 4 the growths
    # spend it all and the witness rows fail, a cut with gap 1.
    escapes = tuple(Demand.escape((1, 1), [(1, 2), (3, 3)], 0) for _ in "ab")
    search = _Search(Instance(g, (Demand.pair((1, 1), (1, 2)),) + escapes))
    used, gused = _committed(search, (0,))
    assert search._prune_ok(1, used, gused, 5)
    assert search.gap == _INF
    assert not search._prune_ok(1, used, gused, 4)
    assert search.gap == 1
    search.gap = _INF
    assert not search._prune_ok(1, used, gused, 3)
    assert search.gap == 1
    # Unbounded, the witness rows fail with no slack to spend: no cut.
    search.gap = _INF
    assert search._prune_ok(1, used, gused)
    assert search.gap == _INF


def _committed(search, gused=()):
    """The edge mask of demand 0's first shortest path, and its group use."""
    cd, gi = search.demands[0], search.gi[0]
    mask, end = next(cd.walk(0, gused[gi] if gi >= 0 else 0, gi >= 0, cd.lb))
    if gi >= 0:
        gused = (end,)
    return mask, gused


def test_prune_rejects_a_detour_beyond_the_slack_as_a_cut():
    # On the 2x3 grid the first pair takes the edge (1,1)-(1,2), so the
    # second pair must go round the lower row: 3 edges where lb is 1.  The
    # rejection's gap is the rise in the slack that would let the detour in.
    pairs = (Demand.pair((1, 1), (1, 2)), Demand.pair((1, 1), (1, 2)))
    search = _Search(Instance(make_grid(2, 3), pairs))
    used, gused = _committed(search)
    assert not search._prune_ok(1, used, gused, 0)
    assert search.gap == 2
    search.gap = _INF
    assert not search._prune_ok(1, used, gused, 1)
    assert search.gap == 1
    search.gap = _INF
    assert search._prune_ok(1, used, gused, 2)
    assert search.gap == _INF
    # The detours share the slack: two of them spend 4, not 2.
    search = _Search(Instance(make_grid(2, 3), pairs + pairs[:1]))
    used, gused = _committed(search)
    assert not search._prune_ok(1, used, gused, 2)
    assert search.gap == 2
    search.gap = _INF
    assert search._prune_ok(1, used, gused, 4)
    assert search.gap == _INF
    # A taken exit of a group counts: the second escape's open exit is 2 away.
    line = make_grid(1, 3)
    escapes = tuple(Demand.escape((1, 1), [(1, 1), (1, 3)], distinct_group=0) for _ in "ab")
    search = _Search(Instance(line, escapes))
    used, gused = _committed(search, (0,))
    assert not search._prune_ok(1, used, gused, 1)
    assert search.gap == 1
    search.gap = _INF
    assert search._prune_ok(1, used, gused, 2)
    assert search.gap == _INF
    # A free shortest path to a taken exit does not count: on the 2x2 grid
    # the edge (1,1)-(1,2) is used and (2,1) is taken, so the open exit
    # (1,2) is 3 away round the square.
    escapes = tuple(Demand.escape((1, 1), [(1, 2), (2, 1)], distinct_group=0) for _ in "ab")
    search = _Search(Instance(make_grid(2, 2), escapes))
    v = search.comp.vindex
    used = next(ebit for w, ebit, _ in search.comp.adj[v[(1, 1)]] if w == v[(1, 2)])
    gused = (1 << v[(2, 1)],)
    assert not search._prune_ok(1, used, gused, 1)
    assert search.gap == 1
    search.gap = _INF
    assert search._prune_ok(1, used, gused, 2)
    assert search.gap == _INF


def test_prune_rejects_an_unreachable_goal_without_a_cut():
    # On the path (1,1)-(1,2)-(1,3) the first pair takes the only edge out
    # of (1,1), so the second pair cannot be routed at any slack: no gap.
    pairs = (Demand.pair((1, 1), (1, 2)), Demand.pair((1, 1), (1, 3)))
    search = _Search(Instance(make_grid(1, 3), pairs))
    used, gused = _committed(search)
    for slack in (0, 5, None):
        assert not search._prune_ok(1, used, gused, slack)
        assert search.gap == _INF
    # One demand beyond the slack and a later one unreachable: no gap either.
    pairs = (
        Demand.pair((1, 1), (1, 2)),
        Demand.pair((1, 1), (1, 2)),
        Demand.pair((2, 3), (1, 1)),
    )
    cut_off = [((1, 3), (2, 3)), ((2, 2), (2, 3))]  # (2,3) loses both its edges
    search = _Search(Instance(make_grid(2, 3).without_edges(cut_off), pairs))
    used, gused = _committed(search)
    assert not search._prune_ok(1, used, gused, 0)
    assert search.gap == _INF


def _flooding_prune_ok(search, j0, used, gused, slack=None):
    """The prune without witness rows: it floods every grouped escape for
    Hall's check, and every demand beyond the slack.  The reference for the
    differential tests; it reads the search's compiled demands and group
    slots, and sets ``search.gap`` as the prune does.

    It also cuts with gap 1 a bounded node left with no slack whose groups
    pass Hall's check on their components but not on their nearest open
    goals.  With no slack left every path is as long as its demand's free
    distance, so it ends at an open goal at that distance; a group whose
    nearest goals admit no distinct choice needs at least one more edge.
    The prune finds the same cut on its witness rows, which are exactly
    those nearest goals once the slack is bounded."""
    comp = search.comp
    rows = [
        (1 << cd.src, cd.goal, gi, cd.lb, cd.short, cd.near, cd.table)
        for cd, gi in zip(search.demands, search.gi)
    ]
    free = None
    flooded = []
    needs = [[] for _ in gused] if gused else None
    gap = 0
    eshift = comp.eshift
    for sbit, goal, gi, lb, short, near, table in rows[j0:]:
        taken = 0
        if gi >= 0:
            taken = gused[gi]
            goal &= ~taken
        if goal & near and (
            not used & short or any(not m & (used | taken << eshift) for m in table)
        ):
            if gi < 0:
                continue
        elif slack is not None:
            if free is None:
                free = comp.free_lanes(used)
            reach, left = sbit, lb + slack
            while not reach & goal:
                grown = reach
                for k, low in free:
                    grown |= (reach & low) << k | (reach >> k) & low
                if grown == reach:
                    return False
                reach, left = grown, left - 1
            if left >= 0:
                slack = left
                if gi < 0:
                    continue
            else:
                slack, gap = None, -left
        for reach in flooded:
            if reach & sbit:
                break
        else:
            if free is None:
                free = comp.free_lanes(used)
            reach = _flood(sbit, free)
            flooded.append(reach)
        avail = goal & reach
        if not avail:
            return False
        if gi >= 0:
            needs[gi].append(avail)
    if not all(map(_matchable, needs or ())):
        return False
    if slack == 0:
        if free is None:
            free = comp.free_lanes(used)
        nearest = [[] for _ in gused]
        for sbit, goal, gi, *_ in rows[j0:]:
            if gi >= 0:
                # every grouped demand reaches an open goal (flooded above)
                goal &= ~gused[gi]
                reach = sbit
                while not reach & goal:
                    grown = reach
                    for k, low in free:
                        grown |= (reach & low) << k | (reach >> k) & low
                    reach = grown
                nearest[gi].append(reach & goal)
        if not all(map(_matchable, nearest)):
            gap = 1
    if gap:
        if gap < search.gap:
            search.gap = gap
        return False
    return True


def _matchable(rows):
    """Hall's condition: can each of ``rows`` be given its own bit?"""
    if len(rows) == 2:
        a, b = rows
        return a != b or a & (a - 1) != 0
    return len(rows) < 3 or routing._has_matching(rows)


class _DifferentialSearch(_Search):
    """A search whose every prune is checked against ``_flooding_prune_ok``:
    the same verdict, and the same ``gap`` after it.  Each forward check of
    the table level is checked against its verdict at slack 0."""

    nodes = 0

    def _prune_ok(self, j0, used, gused, slack=None):
        before = self.gap
        want = _flooding_prune_ok(self, j0, used, gused, slack)
        want_gap, self.gap = self.gap, before
        got = super()._prune_ok(j0, used, gused, slack)
        assert (got, self.gap) == (want, want_gap), (j0, used, gused, slack)
        _DifferentialSearch.nodes += 1
        return got

    def _ahead_ok(self, j0, used, gused):
        before = self.gap
        want = _flooding_prune_ok(self, j0, used, gused, 0)
        self.gap = before
        got = super()._ahead_ok(j0, used, gused)
        assert got == want, (j0, used, gused)
        _DifferentialSearch.nodes += 1
        return got


def test_prune_agrees_with_the_flooding_prune_at_every_node(monkeypatch):
    # Every 13th L10 placement, every 5th L2 instance and 500 pairability
    # placements, each solved by a search that runs both prunes at every
    # node it visits, the table level's forward checks included; each
    # campaign's runner still accepts its certificate.  Most pairability
    # placements settle at the root and visit no node.
    monkeypatch.setattr(routing, "_Search", _DifferentialSearch)
    rng = Random(5)
    sweeps = [
        (verifier._run_l10, list(verifier._iter_l10())[::13]),
        (partial(verifier._run_crowded, variant=2), list(verifier._iter_l2())[::5]),
        (verifier._run_pairability, [sample_pairability(rng) for _ in range(500)]),
    ]
    for runner, instances in sweeps:
        before = _DifferentialSearch.nodes
        for inst in instances:
            rec = runner(inst)
            assert rec is None or rec[0] == "degenerate", rec
        assert _DifferentialSearch.nodes - before > 1000


@st.composite
def grouped_instances(draw):
    """Small grids with two or three escapes of one group, plus up to two
    pairs, ungrouped escapes or escapes of a second group, in any order."""
    g = make_grid(draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    removals = draw(st.sets(st.sampled_from(sorted(g.present_edges)), max_size=2))
    graph = g.without_edges(removals)
    verts = sorted(graph.present_vertices)
    vertices = st.sampled_from(verts)
    exit_sets = st.lists(vertices, min_size=1, max_size=3, unique=True)
    demands = [
        Demand.escape(draw(vertices), draw(exit_sets), distinct_group=0)
        for _ in range(draw(st.integers(2, 3)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["pair", None, 1]))
        if kind == "pair":
            demand = Demand.pair(draw(vertices), draw(vertices))
        else:
            demand = Demand.escape(draw(vertices), draw(exit_sets), distinct_group=kind)
        demands.insert(draw(st.integers(0, len(demands))), demand)
    return Instance(graph, tuple(demands))


@given(grouped_instances())
@settings(deadline=None, max_examples=150)
def test_prune_agrees_with_the_flooding_prune_on_grouped_escapes(inst):
    got = _DifferentialSearch(inst).run()
    assert got == solve(inst)


def _ladder(search):
    """Run ``search``; return its answer, the slack of every level it
    searched, and whether its level 0 was the table level.  The table level
    (``_Search._resume``) counts as a level at slack 0, and so does a run
    settled at the root, which found that level's first leaf at once."""
    levels = []
    tabled = []
    route, resume = search._route, search._resume

    def recording(di, used, gused, slack):
        if not di:
            levels.append(slack)
        return route(di, used, gused, slack)

    def resuming(picks):
        levels.append(0)
        tabled.append(picks)
        return resume(picks)

    search._route = recording
    search._resume = resuming
    got = search.run()
    if not levels and search.slack is not None:
        assert search.slack == 0 and got is not Infeasible
        levels.append(0)
        tabled.append(None)
    return got, levels, bool(tabled)


def _root_levels(search):
    """Run ``search``; return its answer and the slack of every level it
    searched, the table level and a root settlement counted at slack 0."""
    return _ladder(search)[:2]


def _edges(search, masks):
    """``masks`` without the end bits a table entry stores above its edges."""
    return [m & (1 << search.eshift) - 1 for m in masks]


@given(st.one_of(small_instances(max_cols=4), grouped_instances()))
@settings(deadline=None, max_examples=300)
def test_a_root_settlement_is_the_first_leaf_of_slack_zero(inst):
    search = _Search(inst)
    settled = search._settle()
    got = search.run()
    if len(settled) < search.nd:
        return
    assert search.slack == 0
    assert _edges(search, settled) == _level(inst, 0)[0]
    comp = search.comp
    assert got == PathSystem(
        tuple(_trace(comp, d.src, m) for d, m in zip(search.demands, settled))
    )


@given(st.one_of(small_instances(max_cols=4), grouped_instances()))
@settings(deadline=None, max_examples=300)
def test_the_table_level_finds_what_a_fresh_slack_zero_search_finds(inst):
    # From the settlement's dead end, the table level finds the first leaf
    # of slack 0, or finds that it has none, as _route does at slack 0.
    search = _Search(inst)
    picks = search._settle()
    if len(picks) == search.nd or any(d.table is None for d in search.demands):
        return
    if not search._prune_ok(0, 0, (0,) * search.ngroups, 0):
        return  # the ladder starts at the root's gap, or nowhere
    got = search._resume(picks)
    assert (None if got is None else _edges(search, got)) == _level(inst, 0)[0]


class _AheadSearch(_Search):
    """A search whose every forward check at the table level is checked
    against the prune at slack 0, which leaves ``gap`` as it was."""

    checks = 0

    def _ahead_ok(self, j0, used, gused):
        before = self.gap
        want = self._prune_ok(j0, used, gused, 0)
        self.gap = before
        got = super()._ahead_ok(j0, used, gused)
        assert got == want, (j0, used, gused)
        _AheadSearch.checks += 1
        return got


@given(st.one_of(small_instances(max_cols=4), grouped_instances()))
@settings(deadline=None, max_examples=300)
def test_the_table_levels_forward_check_is_the_prune_at_slack_zero(inst):
    assert _AheadSearch(inst).run() == solve(inst)


def test_the_table_level_agrees_with_slack_zero_on_pairability():
    # The Hypothesis instances above are small, and few of them reach the
    # table level with a leaf to find; about a quarter of the 6x6 grid's
    # placements do.  Each placement's forward checks, and the table
    # level's answer from the settlement's dead end, are checked as above.
    before = _AheadSearch.checks
    grid = make_grid(6, 6)
    rng = Random(2)
    found = 0
    for _ in range(300):
        inst = Instance(grid, tuple(Demand.pair(s, t) for s, t in sample_pairability(rng)))
        assert _AheadSearch(inst).run() == solve(inst)
        search = _Search(inst)
        picks = search._settle()
        if len(picks) < search.nd:
            got = search._resume(picks)
            assert (None if got is None else _edges(search, got)) == _level(inst, 0)[0]
            found += got is not None
    assert _AheadSearch.checks - before > 100
    assert found > 30


@given(st.one_of(small_instances(max_cols=4), grouped_instances()))
@settings(deadline=None, max_examples=200)
def test_a_solve_without_tables_finds_the_same_certificate(inst):
    # With a cap of 1 every demand with two shortest paths or more has no
    # table, so slack 0 is searched by _route; the certificate must not
    # change.  The copy is a fresh graph, compiled under the cap.
    want = solve(inst)
    bare = pickle.loads(pickle.dumps(inst))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "_TABLE_CAP", 1)
        search = _Search(bare)
        resumed = []
        resume = search._resume
        search._resume = lambda picks: resumed.append(picks) or resume(picks)
        assert search.run() == want
    if any(d.table is None for d in search.demands):
        assert not resumed


def test_pair_ladder_on_a_bipartite_grid_climbs_by_even_gaps():
    # Every path between two vertices of a bipartite graph has the parity of
    # the shortest one, so each truncated length and each prune the slack
    # caused puts the next level two higher: the ladder never searches an
    # odd slack.
    rng = Random(3)
    graph = make_grid(4, 4)
    verts = sorted(graph.present_vertices)
    levels = []
    for _ in range(200):
        pairs = tuple(
            Demand.pair(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(3, 5))
        )
        levels += _root_levels(_Search(Instance(graph, pairs)))[1]
    assert max(levels) >= 10
    assert all(slack % 2 == 0 for slack in levels)


def _level(inst, slack):
    """Search one slack level of ``inst`` afresh.

    Returns the routed masks or None, the level's least gap, and the
    ``(di, used, gused)`` of every search node it entered, in order.
    """
    search = _Search(inst)
    nodes = []
    route = search._route

    def recording(di, used, gused, slack):
        nodes.append((di, used, gused))
        return route(di, used, gused, slack)

    search._route = recording
    routed = search._route(0, 0, (0,) * search.ngroups, slack)
    return routed, search.gap, nodes


def _check_ladder(inst):
    """Korf's rule, checked against a fresh search of each slack.

    Every slack below the first level the ladder searched routes nothing
    (with no level searched, every slack below the root's gap that stays
    within the edge budget).  A level's least gap is exactly the rise to
    the next level the ladder searched, and every slack it skips enters
    the same search nodes as that level; the last level either routes the
    instance or has no gap that stays within the edge budget, and every
    slack from it up to the budget enters its nodes too.

    The table level, and a run settled at the root, count as level 0.
    They answer what a fresh search of slack 0 answers.  When that is
    nothing, the next level is the least rise at which some path can be
    longer (2 when every demand keeps one parity, else 1), and every slack
    it skips routes nothing.
    """
    search = _Search(inst)
    got, levels, tabled = _ladder(search)
    lbs = sum(d.lb for d in search.demands)
    budget = min(sum(d.max_len for d in search.demands) - lbs, search.comp.nedges - lbs)
    first = levels[0] if levels else min(search.gap, budget + 1)
    for below in range(first):
        assert _level(inst, below)[0] is None, below
    for level, after in zip(levels, levels[1:] + [None]):
        routed, gap, nodes = _level(inst, level)
        if tabled and not level:
            if after is None and got is not Infeasible:
                assert routed is not None
                comp = search.comp
                assert got == PathSystem(
                    tuple(_trace(comp, d.src, m) for d, m in zip(search.demands, routed))
                )
                continue
            step = 2 if all(d.step == 2 for d in search.demands) else 1
            assert routed is None
            assert after == step if after is not None else step > budget
            for skipped in range(1, min(step, budget + 1)):
                assert _level(inst, skipped)[0] is None, skipped
            continue
        if after is not None:
            assert routed is None and gap == after - level, (level, after)
        elif got is Infeasible:
            assert routed is None and (gap >= _INF or level + gap > budget)
            after = min(level + gap, budget + 1)
        else:
            assert routed is not None
            continue
        for skipped in range(level + 1, after):
            assert _level(inst, skipped)[2] == nodes, (level, skipped)
    return got, levels


def test_deep_infeasible_ladders_keep_to_korfs_rule():
    # Deep ladders on 4x4 grids where the only gap that leads to the next
    # level lies in a subtree an earlier level had already searched: a
    # search that cached that subtree's failure and lost its gap would skip
    # level 12 in the first case and stop a level early in the second.
    # Both are infeasible, so no answer would change, but neither skip is
    # sound.
    cases = [
        (
            [((1, 2), (1, 3)), ((2, 1), (2, 2)), ((3, 2), (3, 3)), ((2, 3), (3, 3))],
            (
                Demand.escape((4, 2), [(1, 3), (1, 4)], distinct_group=0),
                Demand.escape((2, 4), [(3, 4), (4, 3)]),
                Demand.pair((2, 4), (3, 4)),
            ),
        ),
        (
            [((3, 3), (3, 4)), ((3, 2), (3, 3)), ((2, 1), (2, 2)), ((1, 3), (2, 3))],
            (
                Demand.escape((3, 4), [(2, 2), (2, 4), (3, 3), (4, 1)]),
                Demand.pair((3, 4), (4, 3)),
                Demand.pair((3, 4), (2, 3)),
            ),
        ),
    ]
    for removed, demands in cases:
        inst = Instance(make_grid(4, 4).without_edges(removed), demands)
        got, _ = _check_ladder(inst)
        assert got is Infeasible and not _oracle_routable(inst)


@given(grouped_instances())
@settings(deadline=None, max_examples=150)
def test_grouped_ladders_keep_to_korfs_rule(inst):
    got, _ = _check_ladder(inst)
    assert (got is Infeasible) == (not _oracle_routable(inst))


def test_the_root_lifts_the_ladder_past_a_level_halls_condition_rules_out(monkeypatch):
    # The L10 placement with every terminal at (1,1) and both escorts sent
    # to A: each escort's nearest exit is (3,1), so the witness rows fail
    # Hall's condition at the root and slack 0 is never searched.
    seen = []
    monkeypatch.setattr(clamps, "solve", lambda inst: seen.append(inst) or solve(inst))
    assert verifier._run_l10(((1, 1), (1, 1), (1, 1), (1, 1), ("A", "A"))) is None
    search = _Search(seen[0])
    got, levels = _root_levels(search)
    assert levels == [1]
    assert got == solve(seen[0])
    assert _check_ladder(seen[0])[1] == [1]


def test_edge_budget_proves_infeasibility_at_slack_zero():
    # Three paths must leave (1,2), which has two edges.  The 2x2 grid has
    # four edges and the three demands need one each, so no path system
    # spends more than 1 of slack, and the next length of every demand is
    # 2 longer (the grid is bipartite): slack 0 proves infeasibility.
    # Without the edge budget the ladder climbs to slack 4.
    exits = [(1, 1), (2, 2)]
    demands = (
        Demand.pair((1, 2), (2, 2)),
        Demand.escape((1, 2), exits),
        Demand.escape((1, 2), exits),
    )
    inst = Instance(make_grid(2, 2), demands)
    search = _Search(inst)
    assert _root_levels(search) == (Infeasible, [0])
    assert search.slack == 0
    assert not _oracle_routable(inst)


# ------------------------------------------------------ work-count tripwire
#
# The exact work the solver does on fixed slices of two sweeps.  The counts
# are deterministic: each run compiles its graphs afresh, so no table built
# by an earlier solve in the process carries over.  A change that stops
# tabling the lengths a search walks again, or stops settling the last
# demand from its table, moves them.

# every 10th instance of each sweep: (searching walks, _prune_ok calls,
# slack levels searched by _route, table entries the table level tried).
# The searching walks include the one that builds each compiled demand's
# shortest-path table: L10 99 of them, L1 9, L2 13 and L3 none.  A search
# that stops lifting its ladder at the root, where a group's witness rows
# fail Hall's condition, searches more levels.  A solve settled at the
# root from its tables makes no prune call and searches no level, and a
# solve that slack 0 answers past the settlement's dead end makes one
# prune call at the root and searches no level with _route; one that stops
# settling there, or hands slack 0 back to _route, makes more of both.
# The last count is every entry the table level reads (free or not) below
# the last demand, whose table it only asks for a first free entry.
_PINNED_WORK = {
    "L10": (216, 2478, 934, 772),
    "L1": (91, 2230, 274, 941),
    "L2": (72, 1427, 216, 617),
    "L3": (2, 334, 79, 86),
}


def test_solver_work_counts_are_pinned(monkeypatch):
    forms = {}

    def fresh_compiled(graph):
        if id(graph) not in forms:
            forms[id(graph)] = graph, routing._Compiled(graph)
        return forms[id(graph)][1]

    work = [0, 0, 0, 0]
    search, prune, route, tabled = (
        _CDemand._search, _Search._prune_ok, _Search._route, _Search._tabled
    )

    def counting_search(cd, *args):
        work[0] += 1
        return search(cd, *args)

    def counting_prune(s, *args):
        work[1] += 1
        return prune(s, *args)

    def counting_route(s, di, *args):
        work[2] += not di
        return route(s, di, *args)

    def counted(entries):
        for m in entries:
            work[3] += 1
            yield m

    def counting_tabled(s, di, used, gused, entries):
        return tabled(s, di, used, gused, counted(entries))

    monkeypatch.setattr(routing, "_compiled", fresh_compiled)
    monkeypatch.setattr(_CDemand, "_search", counting_search)
    monkeypatch.setattr(_Search, "_prune_ok", counting_prune)
    monkeypatch.setattr(_Search, "_route", counting_route)
    monkeypatch.setattr(_Search, "_tabled", counting_tabled)
    got = {}
    for lemma_id in _PINNED_WORK:
        work[:] = 0, 0, 0, 0
        iterate, runner, _, _ = verifier._CAMPAIGNS[lemma_id]
        for inst in islice(iterate(), 0, None, 10):
            rec = runner(inst)
            assert rec is None or rec[0] == "degenerate", rec
        got[lemma_id] = tuple(work)
    assert got == _PINNED_WORK
