"""Frame, escape, clamp, and crowded-quadrant lemma operations."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlink.grid import (
    C0_RING,
    C1_RING,
    Corner,
    Vertex,
    adjusted_quadrant,
    edge,
    landmarks,
    make_grid,
    path_edges,
    quadrant,
    to_global,
)
from gridlink.lemmas import (
    Clamp,
    LemmaDefect,
    NoMatch,
    build_frame,
    catalog_configurations,
    clamp_matching,
    crowded_escape,
    escape_three_distinct,
    escape_three_shared,
    frame_c0_mate_c1,
    frame_c1_mate_corner,
    frame_two_mate_third,
    link_and_escape,
    link_pair_escort_singletons,
    project_with_b_link,
)
from gridlink.verifier import degenerate_reason

_GRID = make_grid(6, 6)
_UL = quadrant(_GRID, Corner.UL)
_LM = landmarks(_UL)
_CORNERS = [quadrant(_GRID, c) for c in Corner]


def _c1_edges_inside(q):
    lm = landmarks(q)
    return {
        e
        for e in lm.C1
        if e[0] in q.vertices and e[1] in q.vertices
    }


def _edge_sets_disjoint(*paths):
    seen = set()
    for p in paths:
        for e in path_edges(p):
            if e in seen:
                return False
            seen.add(e)
    return True


# ------------------------------------------------------------------- frames

def test_frame_on_c0_anchors_at_x0():
    f = build_frame(_UL, Vertex(1, 1), Vertex(3, 1), alpha=0)
    assert f.alpha == 0
    assert f.cycle == _LM.C0
    assert f.anchor == _LM.x0  # the only C0 vertex inside the quadrant
    p1, p2 = f.mating_paths
    assert p1[0] == (1, 1) and p2[0] == (3, 1)
    assert p1[-1] == f.anchor and p2[-1] == f.anchor
    assert _edge_sets_disjoint(p1, p2)


def test_frame_on_c1_avoids_c1_edges():
    # The strict reading: mating paths never ride the central cycle itself.
    forbidden = _c1_edges_inside(_UL)
    f = build_frame(_UL, Vertex(1, 2), Vertex(2, 1), alpha=1)
    assert f.anchor in {Vertex(2, 2), Vertex(2, 3), Vertex(3, 2)}
    for p in f.mating_paths:
        assert not (set(path_edges(p)) & forbidden)


def test_frame_coincident_terminals():
    f = build_frame(_UL, Vertex(2, 2), Vertex(2, 2), alpha=1)
    assert all(p[0] == (2, 2) for p in f.mating_paths)
    assert _edge_sets_disjoint(*f.mating_paths)


def test_frame_rejects_outside_terminals():
    with pytest.raises(ValueError):
        build_frame(_UL, Vertex(5, 5), Vertex(1, 1), alpha=0)
    with pytest.raises(ValueError):
        build_frame(_UL, Vertex(1, 1), Vertex(1, 2), alpha=2)


def test_frames_exist_everywhere():
    # every corner x 81 ordered terminal pairs x 2 alphas: 648 frames
    for q, alpha in product(_CORNERS, (0, 1)):
        forbidden = _c1_edges_inside(q)
        ring = {v for v in (C0_RING, C1_RING)[alpha] if v in q.vertices}
        for s1, s2 in product(sorted(q.vertices), repeat=2):
            f = build_frame(q, s1, s2, alpha)
            assert f.alpha == alpha
            assert f.anchor in ring
            p1, p2 = f.mating_paths
            assert p1[0] == s1 and p2[0] == s2
            assert p1[-1] == f.anchor == p2[-1]
            assert _edge_sets_disjoint(p1, p2)
            assert not ((set(path_edges(p1)) | set(path_edges(p2))) & forbidden)


def test_frame_two_mate_third_splits_cycles():
    res = frame_two_mate_third(_UL, Vertex(1, 1), Vertex(2, 2), Vertex(1, 3))
    assert set(res.framed_pair) | {res.third} == {(1, 1), (2, 2), (1, 3)}
    beta = 1 - res.alpha
    ring = _LM.C0 if beta == 0 else _LM.C1
    ring_verts = {v for e in ring for v in e if v in _UL.vertices}
    assert res.mating_path[0] == res.third
    assert res.mating_path[-1] in ring_verts
    assert _edge_sets_disjoint(res.mating_path, *res.frame.mating_paths)


def test_frame_c0_mate_c1_fixes_alpha():
    res = frame_c0_mate_c1(_UL, Vertex(1, 2), Vertex(3, 1), Vertex(2, 3))
    assert res.alpha == 0
    assert res.frame.anchor == _LM.x0
    c1_verts = {v for e in _LM.C1 for v in e if v in _UL.vertices}
    assert res.mating_path[-1] in c1_verts


def test_frame_c1_mate_corner_both_choices_of_z():
    triple = (Vertex(1, 1), Vertex(1, 3), Vertex(3, 1))
    for z in (_LM.x0, _LM.y0):
        res = frame_c1_mate_corner(_UL, *triple, z=z)
        assert res.alpha == 1
        assert res.mating_path[-1] == z
        assert _edge_sets_disjoint(res.mating_path, *res.frame.mating_paths)
    with pytest.raises(ValueError):
        frame_c1_mate_corner(_UL, *triple, z=Vertex(2, 2))


def test_framing_requires_distinct_terminals():
    with pytest.raises(ValueError):
        frame_two_mate_third(_UL, Vertex(1, 1), Vertex(1, 1), Vertex(2, 2))


# ------------------------------------------------------------------ escapes

def test_escape_three_shared_all_adjusted_kinds():
    for kind in ("Q1", "Q2", "Q3", "Q4"):
        adj = adjusted_quadrant(kind)
        vs = sorted(adj.graph.present_vertices)
        terms = (vs[0], vs[3], vs[-1])
        got = escape_three_shared(adj, *terms)
        for p, t in zip(got.paths, terms):
            assert p[0] == t and p[-1] in adj.A


def test_escape_three_shared_terminal_in_a_is_zero_length():
    adj = adjusted_quadrant("Q1")
    got = escape_three_shared(adj, Vertex(3, 1), Vertex(1, 2), Vertex(2, 3))
    assert got.paths[0] == ((3, 1),)


def test_escape_three_shared_validation():
    adj = adjusted_quadrant("Q1")
    with pytest.raises(ValueError):
        escape_three_shared(adj, Vertex(1, 2), Vertex(1, 2), Vertex(2, 2))
    with pytest.raises(ValueError):
        # (1, 1) is deleted in Q1
        escape_three_shared(adj, Vertex(1, 1), Vertex(1, 2), Vertex(2, 2))


def test_link_and_escape_all_coincident_in_a():
    adj = adjusted_quadrant("Q0")
    got = link_and_escape(adj, Vertex(3, 2), Vertex(3, 2), Vertex(3, 2))
    assert got.paths == (((3, 2),), ((3, 2),))


def test_link_and_escape_s2_on_the_pair():
    adj = adjusted_quadrant("Q0")
    got = link_and_escape(adj, Vertex(1, 2), Vertex(3, 3), Vertex(1, 2))
    link, esc = got.paths
    assert link[0] == (1, 2) and link[-1] == (3, 3)
    assert esc[0] == (1, 2) and esc[-1] in adj.A
    assert _edge_sets_disjoint(link, esc)


def test_escape_three_distinct_doubled_terminal():
    adj = adjusted_quadrant("Q0")
    got = escape_three_distinct(adj, Vertex(2, 2), Vertex(2, 2), Vertex(1, 1))
    ends = [p[-1] for p in got.paths]
    assert len(set(ends)) == 3 and set(ends) == set(adj.A)


def test_escape_three_distinct_validation():
    adj = adjusted_quadrant("Q0")
    with pytest.raises(ValueError):
        escape_three_distinct(adj, Vertex(2, 2), Vertex(2, 2), Vertex(2, 2))
    with pytest.raises(ValueError):
        # a doubled terminal sitting in A would need two distinct exits at once
        escape_three_distinct(adj, Vertex(3, 1), Vertex(3, 1), Vertex(1, 1))


def test_project_b_link_trivial_self_link():
    adj = adjusted_quadrant("Q0")
    got = project_with_b_link(adj, [Vertex(2, 3)], Vertex(2, 3))
    assert got.paths == (((2, 3),),)


_T1 = frozenset({Vertex(1, 1), Vertex(2, 1), Vertex(3, 1)})
_T2 = frozenset({Vertex(1, 1), Vertex(1, 2), Vertex(1, 3), Vertex(2, 3)})


def test_projection_exceptional_families_are_frozen():
    """T1's working linked terminals are the top two of the column; T2's
    are the two nearest b.  Everything else refuses, and the refusal is a
    falsy value carrying the configuration."""
    adj = adjusted_quadrant("Q0")
    t1_working = {s for s in _T1 if project_with_b_link(adj, _T1, s)}
    assert t1_working == {Vertex(1, 1), Vertex(2, 1)}
    t2_working = {s for s in _T2 if project_with_b_link(adj, _T2, s)}
    assert t2_working == {Vertex(1, 3), Vertex(2, 3)}
    refusal = project_with_b_link(adj, _T1, Vertex(3, 1))
    assert not refusal
    assert refusal.terminals == _T1 and refusal.s == (3, 1)


def test_projection_free_sets_never_refuse():
    # away from A and from the far corner c, every linked terminal works
    adj = adjusted_quadrant("Q0")
    free = [v for v in sorted(adj.graph.present_vertices) if v not in adj.A and v != (1, 1)]
    from itertools import combinations

    for k in (1, 2, 3, 4):
        for T in combinations(free, k):
            for s in T:
                assert project_with_b_link(adj, T, s)


def test_projection_validation():
    adj = adjusted_quadrant("Q0")
    with pytest.raises(ValueError):
        project_with_b_link(adj, [], Vertex(1, 1))
    with pytest.raises(ValueError):
        project_with_b_link(adj, [Vertex(1, 1)], Vertex(2, 2))
    with pytest.raises(ValueError):
        project_with_b_link(adjusted_quadrant("Q1"), [Vertex(1, 2)], Vertex(1, 2))


# ------------------------------------------------------------------- clamps

def _clamp(*edges, anchors):
    return Clamp(
        frozenset(edge(u, v) for u, v in edges),
        frozenset(Vertex(*a) for a in anchors),
    )


def test_clamp_validation():
    with pytest.raises(ValueError):
        # anchor off the edge set
        _clamp(((1, 1), (1, 2)), anchors=[(3, 3)])
    with pytest.raises(ValueError):
        # disconnected edges
        _clamp(((1, 1), (1, 2)), ((3, 1), (3, 2)), anchors=[(1, 1)])
    with pytest.raises(ValueError):
        # an edge-free clamp is a single anchor vertex
        Clamp(frozenset(), frozenset({Vertex(1, 1), Vertex(2, 2)}))
    point = Clamp(frozenset(), frozenset({Vertex(2, 2)}))
    assert point.vertices == frozenset({Vertex(2, 2)})


_P1 = (Vertex(3, 3), Vertex(2, 3), Vertex(1, 3))


def test_clamp_matching_forced_and_tied():
    y2 = _clamp(((1, 1), (2, 1)), ((2, 1), (2, 2)), anchors=[(1, 1), (2, 2)])
    y3 = _clamp(((2, 2), (3, 2)), ((3, 2), (3, 1)), anchors=[(3, 1)])
    # (1, 1) lies only in y2, (2, 2) in both: the first slot is forced
    assert clamp_matching(_P1, y2, y3, (Vertex(1, 1), Vertex(2, 2))) == (y2, y3)
    assert clamp_matching(_P1, y2, y3, (Vertex(2, 2), Vertex(1, 1))) == (y3, y2)
    # both in the intersection: lexicographically least assignment wins,
    # i.e. the smaller singleton goes to y2
    shared2 = _clamp(((2, 1), (2, 2)), anchors=[(2, 1)])
    shared3 = _clamp(
        ((2, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (2, 2)), anchors=[(1, 1)]
    )
    assert clamp_matching(_P1, shared2, shared3, (Vertex(2, 1), Vertex(2, 2))) == (
        shared2,
        shared3,
    )
    assert clamp_matching(_P1, shared2, shared3, (Vertex(2, 2), Vertex(2, 1))) == (
        shared3,
        shared2,
    )


def test_clamp_matching_pigeonhole_and_misses():
    y2 = _clamp(((1, 1), (2, 1)), anchors=[(1, 1)])
    y3 = _clamp(((2, 2), (3, 2)), anchors=[(3, 2)])
    # both singletons exclusive to y2
    got = clamp_matching(_P1, y2, y3, (Vertex(1, 1), Vertex(2, 1)))
    assert got is NoMatch and not got
    # a singleton in neither clamp
    assert clamp_matching(_P1, y2, y3, (Vertex(1, 1), Vertex(1, 3))) is NoMatch
    assert repr(NoMatch) == "NoMatch"


def test_clamp_matching_precondition_errors():
    y2 = _clamp(((1, 1), (2, 1)), anchors=[(1, 1)])
    overlapping = _clamp(((1, 1), (2, 1)), ((2, 1), (3, 1)), anchors=[(3, 1)])
    with pytest.raises(ValueError):
        clamp_matching(_P1, y2, overlapping, (Vertex(1, 1), Vertex(3, 1)))
    shared_anchor = _clamp(((1, 1), (1, 2)), anchors=[(1, 1)])
    with pytest.raises(ValueError):
        clamp_matching(_P1, y2, shared_anchor, (Vertex(1, 1), Vertex(1, 2)))
    on_p1 = _clamp(((2, 3), (1, 3)), anchors=[(1, 3)])
    y3 = _clamp(((2, 2), (3, 2)), anchors=[(3, 2)])
    with pytest.raises(ValueError):
        clamp_matching(_P1, on_p1, y3, (Vertex(1, 3), Vertex(3, 2)))


def test_escorts_follow_their_prescribed_lines():
    got = link_pair_escort_singletons(
        _UL, Vertex(1, 1), Vertex(3, 1), Vertex(2, 2), Vertex(1, 2), ("A", "B")
    )
    link, e2, e3 = got.paths
    assert link[0] == (1, 1) and link[-1] == (3, 1)
    assert e2[0] == (2, 2) and e2[-1] in set(_LM.A)
    assert e3[0] == (1, 2) and e3[-1] in set(_LM.B)
    assert e2[-1] != e3[-1]
    assert _edge_sets_disjoint(link, e2, e3)


def test_escort_shortcut_vertex_is_terminal():
    # a singleton already on x0 lies on its line: its escort has length 0
    got = link_pair_escort_singletons(
        _UL, Vertex(1, 1), Vertex(1, 3), _LM.x0, Vertex(2, 1), ("A", "A")
    )
    assert got.paths[1] == (_LM.x0,)


def test_escort_pair_off_catalog_uses_search():
    # this linkage shape has no catalog entry even after transposing
    got = link_pair_escort_singletons(
        _UL, Vertex(2, 2), Vertex(2, 3), Vertex(1, 1), Vertex(3, 1), ("B", "A")
    )
    link, e2, e3 = got.paths
    assert link[0] == (2, 2) and link[-1] == (2, 3)
    assert e2[-1] in set(_LM.B) and e3[-1] in set(_LM.A)


def test_catalog_configurations_link_the_pair_beside_the_clamps():
    vs = sorted(_UL.vertices)
    used = set()
    for s1, t1, s2, s3 in product(vs, repeat=4):
        for name, p1, y2, y3, singles in catalog_configurations(s1, t1, s2, s3):
            used.add(name)
            assert p1[0] == s1 and p1[-1] == t1
            assert singles == (s2, s3)
            assert isinstance(y2, Clamp) and isinstance(y3, Clamp)
            assert not (y2.edges | y3.edges) & set(path_edges(p1))
    assert used == {f"E{k}" for k in range(16)}
    # a pair in the top-middle column has exactly one entry; a pair off
    # the catalog has none
    got = list(catalog_configurations(Vertex(1, 2), Vertex(2, 2), Vertex(3, 2), Vertex(1, 3)))
    assert [(name, p1) for name, p1, *_ in got] == [("E2", ((1, 2), (2, 2)))]
    assert not list(catalog_configurations(Vertex(2, 2), Vertex(2, 3), Vertex(1, 1), Vertex(3, 1)))


def test_escorts_at_an_overloaded_corner_refuse():
    # three positive-length demand ends at a degree-2 vertex cannot all leave
    with pytest.raises(LemmaDefect):
        link_pair_escort_singletons(
            _UL, Vertex(1, 1), Vertex(1, 2), Vertex(1, 1), Vertex(1, 1), ("A", "A")
        )
    # collapsing the pair frees the corner's two edges for the escorts
    got = link_pair_escort_singletons(
        _UL, Vertex(1, 1), Vertex(1, 1), Vertex(1, 1), Vertex(1, 1), ("A", "A")
    )
    assert got.paths[0] == ((1, 1),)


def test_escorts_blocked_by_a_line_cut_refuse():
    # P1 across the top row + both escorts from its midpoint to A: the three
    # edges leaving the row cannot cover P1 and two edge-disjoint escorts
    with pytest.raises(LemmaDefect):
        link_pair_escort_singletons(
            _UL, Vertex(1, 1), Vertex(1, 3), Vertex(1, 2), Vertex(1, 2), ("A", "A")
        )
    with pytest.raises(LemmaDefect):
        link_pair_escort_singletons(
            _UL, Vertex(1, 1), Vertex(3, 1), Vertex(2, 1), Vertex(2, 1), ("B", "B")
        )
    # pointing one escort at the near line restores feasibility
    got = link_pair_escort_singletons(
        _UL, Vertex(1, 1), Vertex(1, 3), Vertex(1, 2), Vertex(1, 2), ("A", "B")
    )
    assert got.paths[2][-1] in set(_LM.B)


def test_escort_lines_come_as_a_pair_not_a_dict():
    # a dict keyed by the singletons cannot hold two lines for coincident
    # singletons, so it is refused rather than read
    s = Vertex(2, 2)
    for psi in ({s: "A", Vertex(1, 2): "B"}, {s: "A", s: "B"}):
        with pytest.raises(ValueError):
            link_pair_escort_singletons(_UL, Vertex(1, 1), Vertex(3, 1), s, s, psi)


@given(
    q=st.sampled_from(_CORNERS),
    idx=st.lists(st.integers(0, 8), min_size=4, max_size=4),
    psi=st.tuples(st.sampled_from("AB"), st.sampled_from("AB")),
)
@settings(deadline=None, max_examples=60)
def test_escort_certificates_obey_the_contract(q, idx, psi):
    vs = sorted(q.vertices)
    s1, t1, s2, s3 = (vs[i] for i in idx)
    lm = landmarks(q)
    lines = {"A": set(lm.A), "B": set(lm.B)}
    try:
        got = link_pair_escort_singletons(q, s1, t1, s2, s3, psi)
    except LemmaDefect:
        # infeasibility must be certified by one of the degeneracy laws
        local = [to_global(q.corner, v) for v in (s1, t1, s2, s3)]
        assert s2 == s3
        assert degenerate_reason(*local, psi) is not None
        return
    link, e2, e3 = got.paths
    assert link[0] == s1 and link[-1] == t1
    assert e2[-1] in lines[psi[0]] and e3[-1] in lines[psi[1]]
    assert e2[-1] != e3[-1]
    assert _edge_sets_disjoint(link, e2, e3)


# ------------------------------------------------------------------ crowded

def test_crowded_variant_preconditions():
    vs = sorted(_UL.vertices)
    with pytest.raises(ValueError):
        crowded_escape(_UL, (vs[:2],), vs[2:5], variant=1)  # load 5 for variant 1
    with pytest.raises(ValueError):
        crowded_escape(_UL, (vs[:2], vs[2:4]), (), variant=3)
    with pytest.raises(ValueError):
        crowded_escape(_UL, (vs[:2],), (vs[0],), variant=3)  # duplicate terminal
    with pytest.raises(ValueError):
        crowded_escape(_UL, (vs[:2], vs[2:4], vs[4:6], vs[6:8]), (), variant=4)
    with pytest.raises(ValueError):
        # more than four pair structures cannot occur: T is four pairs
        crowded_escape(_UL, (vs[:2], vs[2:4]), vs[4:8], variant=1)


def test_crowded_four_pairs_links_at_least_two():
    vs = sorted(_UL.vertices)
    pairs = tuple((vs[i], vs[i + 1]) for i in range(0, 8, 2))
    res = crowded_escape(_UL, pairs, (), variant=1)
    assert len(res.linked) >= 2
    exits = set(_LM.A) | set(_LM.B)
    seen = set()
    for p, d in zip(res.paths.paths, res.demands):
        if d.kind == "pair":
            assert p[0] == d.source and p[-1] == d.target
        else:
            assert p[0] == d.source and p[-1] in exits
            assert p[-1] not in seen
            seen.add(p[-1])


def _b_side_exits(res):
    off_a = set(_LM.B) - set(_LM.A)
    return [
        p[-1]
        for p, d in zip(res.paths.paths, res.demands)
        if d.kind == "escape" and p[-1] in off_a
    ]


def test_crowded_six_terminals_stay_near_a():
    vs = sorted(_UL.vertices)
    res = crowded_escape(_UL, ((vs[0], vs[4]), (vs[1], vs[5]), (vs[2], vs[6])), (), variant=2)
    assert len(res.linked) >= 1
    assert len(_b_side_exits(res)) <= 1


def test_crowded_five_terminals_link_the_pair():
    res = crowded_escape(
        _UL,
        ((_LM.x0, _LM.x2),),
        (Vertex(1, 2), Vertex(2, 1), Vertex(2, 2)),
        variant=3,
    )
    assert res.linked == (0,)
    link = res.paths.paths[0]
    assert link[0] == _LM.x0 and link[-1] == _LM.x2
    assert len(_b_side_exits(res)) <= 1


def test_crowded_second_full_pair_escapes_unlinked():
    # five terminals may also arrive as two full pairs plus a single; only
    # the designated pair is linked and the other one escapes endpoint-wise
    res = crowded_escape(
        _UL,
        ((Vertex(1, 1), Vertex(3, 3)), (Vertex(1, 3), Vertex(3, 1))),
        (Vertex(2, 2),),
        variant=3,
    )
    assert res.linked == (0,)
    kinds = [d.kind for d in res.demands]
    assert kinds == ["pair", "escape", "escape", "escape"]
    assert res.demands[1].source == (1, 3) and res.demands[2].source == (3, 1)


@given(q=st.sampled_from(_CORNERS), data=st.data())
@settings(deadline=None, max_examples=40)
def test_crowded_certificates_obey_side_conditions(q, data):
    vs = data.draw(st.permutations(sorted(q.vertices)))
    variant = data.draw(st.integers(1, 3))
    if variant == 1:
        npairs, nsingles = data.draw(st.sampled_from([(4, 0), (3, 1)]))
    elif variant == 2:
        npairs, nsingles = data.draw(st.sampled_from([(3, 0), (2, 2)]))
    else:
        npairs, nsingles = data.draw(st.sampled_from([(2, 1), (1, 3)]))
    chosen = vs[: 2 * npairs + nsingles]
    pairs = tuple((chosen[2 * i], chosen[2 * i + 1]) for i in range(npairs))
    singles = tuple(chosen[2 * npairs :])
    res = crowded_escape(q, pairs, singles, variant)
    lm = landmarks(q)
    exits = set(lm.A) | set(lm.B)
    ends = []
    for p, d in zip(res.paths.paths, res.demands):
        if d.kind == "escape":
            assert p[-1] in exits
            ends.append(p[-1])
    assert len(ends) == len(set(ends))
    if variant in (2, 3):
        assert len([v for v in ends if v in set(lm.B) - set(lm.A)]) <= 1
    for i in res.linked:
        s, t = pairs[i]
        matching = [p for p, d in zip(res.paths.paths, res.demands) if d.kind == "pair"]
        assert any(p[0] == s and p[-1] == t for p in matching)
