"""Solver, checker, and flow-oracle tests."""

from __future__ import annotations

import gc
import hashlib
import weakref
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
import gridlink.lemmas.crowded as crowded
from gridlink.routing import (
    PAIR,
    _compiled,
    _flood,
    _Search,
    _walker,
    Demand,
    Infeasible,
    Instance,
    PathSystem,
    is_weakly_2_linked,
    solve,
    verify,
)
from gridlink.verifier import _FULL, _iter_escape_family, sample_pairability, verify_lemma


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
    assert set(got.edges()) == make_grid(2, 2).present_edges
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
        make_grid(3, 3),
        (Demand.pair((1, 1), (1, 3)),),
        forbidden_edges=frozenset({edge((1, 1), (1, 2))}),
    )
    got = solve(inst)
    assert got is not Infeasible
    assert edge((1, 1), (1, 2)) not in set(got.edges())
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
        Instance(g, (Demand("detour", Vertex(1, 1)),)),
        Instance(
            g,
            (Demand.pair((1, 1), (2, 2)),),
            forbidden_edges=frozenset({edge((1, 1), (3, 1))}),
        ),
    ]
    for inst in bad + bad:
        with pytest.raises(ValueError):
            solve(inst)
    assert solve(Instance(g, (Demand.pair((1, 1), (2, 2)),)))


def test_vertex_keeps_a_vertex_and_builds_one_from_a_pair():
    v = Vertex(1, 2)
    assert vertex(v) is v
    got = vertex((1, 2))
    assert type(got) is Vertex and got == v
    assert type(vertex([3, 4])) is Vertex


def test_sampled_placements_reuse_the_grid_vertices():
    canonical = {id(v) for v in _FULL}
    rng = Random(3)
    for _ in range(200):
        placement = sample_pairability(rng)
        for s, t in placement.pairs:
            demand = Demand.pair(s, t)
            assert id(demand.source) in canonical and id(demand.target) in canonical


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
    assert (
        "endpoint mismatch"
        in verify(inst, PathSystem((((1, 1), (1, 2)),))).violation
    )
    forb = Instance(
        g,
        (Demand.pair((1, 1), (2, 2)),),
        forbidden_edges=frozenset({edge((1, 1), (1, 2))}),
    )
    res = verify(forb, PathSystem((((1, 1), (1, 2), (2, 2)),)))
    assert "forbidden edge" in res.violation


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
    used = got.edges()
    assert len(used) == len(set(used))
    for p in got.paths:
        for k in range(len(p) - 1):
            assert g.has_edge(p[k], p[k + 1])


def test_flow_rejects_malformed():
    g = make_grid(2, 2)
    with pytest.raises(ValueError):
        escape_flow(g, [], [(1, 1)], distinct=False)
    with pytest.raises(ValueError):
        escape_flow(g, [(1, 1)], [], distinct=False)
    with pytest.raises(ValueError):
        escape_flow(g, [(7, 7)], [(1, 1)], distinct=False)


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


def _oracle_routable(inst: Instance) -> bool:
    adj = {v: [] for v in inst.graph.present_vertices}
    for a, b in inst.graph.present_edges - inst.forbidden_edges:
        adj[a].append(b)
        adj[b].append(a)
    options = []
    for d in inst.demands:
        if d.kind == PAIR:
            paths = _simple_paths(adj, d.source, lambda v, t=d.target: v == t)
        else:
            paths = _simple_paths(adj, d.source, lambda v, xs=d.exits: v in xs)
        options.append([(p, frozenset(path_edges(p))) for p in paths])

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


@st.composite
def small_instances(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
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
    return Instance(graph, tuple(demands), frozenset(forbidden))


@given(small_instances())
@settings(deadline=None, max_examples=300)
def test_infeasible_exactly_when_brute_force_finds_nothing(inst):
    got = solve(inst)
    assert (got is Infeasible) == (not _oracle_routable(inst))
    if got is not Infeasible:
        assert verify(inst, got)


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
        yield Instance(grid, tuple(Demand.pair(s, t) for s, t in placement.pairs))
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
    comp = _compiled(graph, frozenset())
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
    offsets = {k for k, _, _ in _compiled(adjusted_quadrant("Q2").graph, frozenset()).lanes}
    assert len(offsets) > 2
    assert {k for k, _, _ in _compiled(make_grid(6, 6), frozenset()).lanes} == {1, 6}


def test_cached_distance_table_equals_a_fresh_one():
    comp = _compiled(adjusted_quadrant("Q3").graph, frozenset())
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
    comp = _compiled(adj.graph, frozenset())
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
    g = make_grid(3, 4)
    forbidden = frozenset({edge((1, 1), (1, 2))})
    comp = _compiled(g, forbidden)
    for k in range(100):
        other = make_grid(2 + k % 3, 2 + k % 4)
        solve(Instance(other, (Demand.pair((1, 1), (2, 2)),)))
    assert _compiled(g, forbidden) is comp
    assert _compiled(g, frozenset()) is not comp


def test_compiled_form_dies_with_its_graph():
    g = make_grid(3, 3)
    solve(Instance(g, (Demand.pair((1, 1), (3, 3)),)))
    ref = weakref.ref(_compiled(g, frozenset()))
    assert ref() is not None
    del g
    gc.collect()
    assert ref() is None


# --------------------------------------- candidate walk vs brute force
#
# The reference lists every simple path of exactly ``limit`` edges over
# unused edges and keeps those that end at a goal, do not end at an exit
# their group already holds, and (for a pair, or an escape with no group)
# have no goal before their last vertex; sorted by vertex index, that is the
# order of a depth-first walk with neighbours in (row, col) order.  The
# vertices the walk expands are checked too: every prefix it may continue,
# which no pruning rule excludes, in the same order.


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
    comp = _compiled(graph, frozenset())
    verts = sorted(graph.present_vertices)
    ebits = sorted({ebit for a in comp.adj for _, ebit, _ in a})
    rng = Random(name)
    yielded = 0
    for d, gi in _walk_demands(verts, exits, rng):
        cd = comp.demand(d)
        for _ in range(3):
            used = 0
            for ebit in rng.sample(ebits, rng.randrange(len(ebits) // 3 + 1)):
                used |= ebit
            gused = tuple(rng.getrandbits(comp.nv) & cd.goal for _ in range(2))
            for limit in range(min(comp.nv, 12)):
                adj = _CountingAdj(comp.adj)
                walk = _walker(adj, cd, gi)
                got = list(walk(used, gused, limit))
                want, order = _walk_reference(comp, cd, gi, used, gused, limit)
                assert [p for p, _ in got] == want, (d, gi, limit)
                assert adj.read == order, (d, gi, limit)
                for p, pmask in got:
                    es = [
                        ebit
                        for u, v in zip(p, p[1:])
                        for w, ebit, _ in comp.adj[u]
                        if w == v
                    ]
                    assert pmask == sum(es) and not pmask & used
                yielded += len(got)
    assert yielded > 100


def test_ladder_asks_only_for_lengths_of_the_shortest_paths_parity():
    # In a bipartite graph every path to goals of one colour has the parity
    # of the shortest one, so the ladder skips every other length.
    graph = make_grid(4, 4)
    asked = []
    for s, t in [((1, 1), (1, 4)), ((2, 2), (2, 3)), ((4, 1), (1, 4))]:
        # the second pair's shortest path lies on the first one's
        inst = Instance(
            graph,
            (
                Demand.pair(s, t),
                Demand.pair((1, 2), (1, 3)),
                Demand.escape((2, 1), [(1, 1), (3, 3)], distinct_group=0),
            ),
        )
        search = _Search(inst)

        def recording(cd, walk):
            def record(used, gused, limit):
                asked.append((cd, limit))
                return walk(used, gused, limit)

            return record

        search.walks = [recording(cd, w) for cd, w in zip(search.demands, search.walks)]
        assert search.run() == solve(inst)
    assert any(limit > cd.lb for cd, limit in asked)
    for cd, limit in asked:
        assert (limit - cd.lb) % 2 == 0
    # Q2 has an odd cycle, so every length is tried there
    q2 = adjusted_quadrant("Q2").graph
    comp = _compiled(q2, frozenset())
    verts = sorted(q2.present_vertices)
    assert {comp.demand(Demand.pair(verts[0], v)).step for v in verts[1:]} == {1}


def test_prune_needs_distinct_exits_within_a_group():
    g = make_grid(3, 3)

    def prune(sources, exits, group=0):
        search = _Search(Instance(g, tuple(Demand.escape(s, exits, group) for s in sources)))
        return search._prune_ok(0, 0, (0,) * search.ngroups)

    assert not prune([(1, 1), (2, 2)], [(3, 3)])
    assert prune([(1, 1), (2, 2)], [(3, 3)], group=None)
    assert prune([(1, 1), (2, 2)], [(3, 3), (1, 3)])
    assert not prune([(1, 1), (2, 2), (2, 1)], [(3, 3), (1, 3)])
    assert prune([(1, 1), (2, 2), (2, 1)], [(3, 3), (1, 3), (3, 1)])
