"""Grid model tests: frozen landmark values, adjusted quadrants, symmetries."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridlink.grid import (
    SYMMETRIES,
    AdjustedKind,
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


# ---------------------------------------------------------------- make_grid

def test_full_grid_counts():
    g = make_grid(6, 6)
    assert len(g.present_vertices) == 36
    assert len(g.present_edges) == 60


def test_degenerate_grid():
    g = make_grid(1, 1)
    assert len(g.present_vertices) == 1
    assert len(g.present_edges) == 0


def test_quadrant_sized_grid_counts():
    g = make_grid(3, 3)
    assert len(g.present_vertices) == 9
    assert len(g.present_edges) == 12


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
def test_make_grid_rejects_bad_dimensions(rows, cols):
    with pytest.raises(ValueError):
        make_grid(rows, cols)


@given(st.integers(1, 8), st.integers(1, 8))
def test_grid_edge_count_formula(rows, cols):
    g = make_grid(rows, cols)
    assert len(g.present_edges) == rows * (cols - 1) + cols * (rows - 1)
    for u, v in g.present_edges:
        assert abs(u.row - v.row) + abs(u.col - v.col) == 1


def test_neighbors_sorted_row_col():
    g = make_grid(6, 6)
    assert g.adjacency[Vertex(2, 2)] == ((1, 2), (2, 1), (2, 3), (3, 2))
    assert len(g.adjacency[Vertex(1, 1)]) == 2
    assert len(g.adjacency[Vertex(3, 1)]) == 3


# ---------------------------------------------------------------- quadrants

def test_quadrant_blocks():
    g = make_grid(6, 6)
    ul = quadrant(g, Corner.UL)
    assert ul.vertices == frozenset(Vertex(i, j) for i in (1, 2, 3) for j in (1, 2, 3))
    ur = quadrant(g, "UR")
    assert Vertex(3, 4) in ur.vertices
    assert len(ur.graph.present_edges) == 12


def test_quadrant_rejects_wrong_grid():
    with pytest.raises(ValueError):
        quadrant(make_grid(5, 5), Corner.UL)


# Values fixed by the quadrant conventions: UL reads off directly, the other
# corners are reflections through 7 of one or both coordinates.
LANDMARK_CASES = {
    Corner.UL: dict(x0=(3, 3), x1=(2, 2), b=(2, 3), c=(1, 1), y0=(3, 1), x2=(1, 1)),
    Corner.UR: dict(x0=(3, 4), x1=(2, 5), b=(2, 4), c=(1, 6), y0=(3, 6), x2=(1, 6)),
    Corner.LL: dict(x0=(4, 3), x1=(5, 2), b=(5, 3), c=(6, 1), y0=(4, 1), x2=(6, 1)),
    Corner.LR: dict(x0=(4, 4), x1=(5, 5), b=(5, 4), c=(6, 6), y0=(4, 6), x2=(6, 6)),
}


@pytest.mark.parametrize("corner", list(Corner))
def test_landmark_vertices(corner):
    lm = landmarks(quadrant(make_grid(6, 6), corner))
    want = LANDMARK_CASES[corner]
    assert lm.x0 == want["x0"]
    assert lm.x1 == want["x1"]
    assert lm.b == want["b"]
    assert lm.c == want["c"]
    assert lm.y0 == want["y0"]
    assert lm.x2 == want["x2"]


def test_landmark_lines_ul():
    lm = landmarks(quadrant(make_grid(6, 6), Corner.UL))
    assert lm.A == ((3, 1), (3, 2), (3, 3))
    assert lm.B == ((1, 3), (2, 3), (3, 3))
    assert lm.Z == {(2, 1), (2, 2), (2, 3), (1, 2), (3, 2)}
    assert lm.M == {(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (2, 2)}
    assert lm.S == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert lm.boundary_cycle == (
        (1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1), (2, 1),
    )


@pytest.mark.parametrize("corner", list(Corner))
def test_landmark_line_membership(corner):
    q = quadrant(make_grid(6, 6), corner)
    lm = landmarks(q)
    assert lm.x0 == lm.A[2] == lm.B[2]
    assert lm.b == lm.B[1]
    assert lm.c not in set(lm.A) | set(lm.B)
    assert len(q.parent.adjacency[lm.x2]) == 2
    assert len(q.parent.adjacency[lm.y0]) == 3
    assert set(lm.A) | set(lm.B) | lm.S == q.vertices


def _cycle_is_closed(edges):
    deg: dict = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return set(deg.values()) == {2} and len(deg) == len(edges)


@pytest.mark.parametrize("corner", list(Corner))
def test_central_cycles(corner):
    lm = landmarks(quadrant(make_grid(6, 6), corner))
    assert len(lm.C0) == 4 and _cycle_is_closed(lm.C0)
    assert len(lm.C1) == 12 and _cycle_is_closed(lm.C1)
    c0_vertices = {v for e in lm.C0 for v in e}
    c1_vertices = {v for e in lm.C1 for v in e}
    assert lm.x0 in c0_vertices
    assert lm.x1 in c1_vertices
    assert not c0_vertices & c1_vertices
    # consecutive edges share a vertex, starting from x0 / x1
    assert lm.C0[0][0] == lm.x0 or lm.C0[0][1] == lm.x0
    assert lm.C1[0][0] == lm.x1 or lm.C1[0][1] == lm.x1
    g = make_grid(6, 6)
    for v in c0_vertices:
        assert set(g.adjacency[v]) <= c0_vertices | c1_vertices


@pytest.mark.parametrize("corner", list(Corner))
def test_z_complements_boundary_cycle(corner):
    q = quadrant(make_grid(6, 6), corner)
    lm = landmarks(q)
    cyc = list(lm.boundary_cycle)
    cyc_edges = set(path_edges(cyc + [cyc[0]]))
    z_edges = {e for e in q.graph.present_edges if e[0] in lm.Z and e[1] in lm.Z}
    assert cyc_edges | z_edges == q.graph.present_edges
    assert not cyc_edges & z_edges
    assert lm.x1 not in set(cyc)
    assert lm.Z & set(lm.A) and lm.Z & set(lm.B)


# -------------------------------------------------------- adjusted quadrants

ADJUSTED_SIZES = {
    AdjustedKind.Q0: (9, 10),
    AdjustedKind.Q1: (8, 7),
    AdjustedKind.Q2: (8, 8),
    AdjustedKind.Q3: (8, 7),
    AdjustedKind.Q4: (8, 7),
}

ADJUSTED_N = {
    AdjustedKind.Q0: {(2, 1), (2, 2), (2, 3)},
    AdjustedKind.Q1: {(2, 1), (2, 2), (2, 3)},
    AdjustedKind.Q2: {(2, 1), (2, 2), (2, 3)},
    AdjustedKind.Q3: {(1, 1), (2, 2), (2, 3)},
    AdjustedKind.Q4: {(2, 1), (1, 2), (2, 3)},
}


@pytest.mark.parametrize("kind", list(AdjustedKind))
def test_adjusted_quadrant_shapes(kind):
    adj = adjusted_quadrant(kind)
    nv, ne = ADJUSTED_SIZES[kind]
    assert len(adj.graph.present_vertices) == nv
    assert len(adj.graph.present_edges) == ne
    assert adj.N == ADJUSTED_N[kind]
    # A is present, independent, and attached only to N
    for a in adj.A:
        assert a in adj.graph.present_vertices
        assert set(adj.graph.adjacency[a]) <= adj.N
    for i in range(3):
        for j in range(i + 1, 3):
            assert not adj.graph.has_edge(adj.A[i], adj.A[j])


def test_adjusted_contractions():
    q2 = adjusted_quadrant("Q2")
    assert q2.graph.has_edge((1, 1), (2, 2))
    assert q2.graph.contraction_map[Vertex(1, 2)] == (2, 2)
    q3 = adjusted_quadrant(AdjustedKind.Q3)
    assert q3.graph.has_edge((1, 1), (3, 1))
    assert q3.graph.contraction_map[Vertex(2, 1)] == (1, 1)
    q4 = adjusted_quadrant(AdjustedKind.Q4)
    assert q4.graph.has_edge((1, 2), (3, 2))
    assert q4.graph.contraction_map[Vertex(2, 2)] == (1, 2)
    # idempotence of the contraction maps
    for adj in (q2, q3, q4):
        cmap = adj.graph.contraction_map
        for v in list(cmap) + list(adj.graph.present_vertices):
            rep = cmap.get(v, v)
            assert cmap.get(rep, rep) == rep


def test_q0_degrees_on_a():
    adj = adjusted_quadrant(AdjustedKind.Q0)
    assert [len(adj.graph.adjacency[a]) for a in adj.A] == [1, 1, 1]


# ----------------------------------------------------------------- symmetry

def test_transpose_examples_ul():
    ident, transpose = SYMMETRIES[0], SYMMETRIES[4]
    assert all(ident(v) == v for v in make_grid(6, 6).present_vertices)
    assert transpose(Vertex(1, 3)) == (3, 1)
    assert transpose(Vertex(3, 3)) == (3, 3)
    assert transpose(Vertex(2, 3)) == (3, 2)


def test_symmetries_are_distinct_grid_automorphisms():
    g = make_grid(6, 6)
    images = set()
    for sym in SYMMETRIES:
        assert {sym(v) for v in g.present_vertices} == g.present_vertices
        for u, v in g.present_edges:
            assert g.has_edge(sym(u), sym(v))
        images.add(tuple(sym(v) for v in sorted(g.present_vertices)))
    assert len(images) == 8


# The table entry that transposes each quadrant: the main diagonal for UL
# and LR, the anti-diagonal for UR and LL.
_QUADRANT_TRANSPOSE = {Corner.UL: 4, Corner.LR: 4, Corner.UR: 6, Corner.LL: 6}


@pytest.mark.parametrize("corner", list(Corner))
def test_transpose_is_involution_and_swaps_lines(corner):
    q = quadrant(make_grid(6, 6), corner)
    lm = landmarks(q)
    tr = SYMMETRIES[_QUADRANT_TRANSPOSE[corner]]
    for v in q.vertices:
        assert tr(tr(v)) == v
    assert {tr(a) for a in lm.A} == set(lm.B)
    assert {tr(b) for b in lm.B} == set(lm.A)
    assert tr(lm.x0) == lm.x0
    assert tr(lm.x1) == lm.x1
    # graph automorphism of the quadrant
    g = q.graph
    for u, v in g.present_edges:
        assert g.has_edge(tr(u), tr(v))


def test_to_global_round_trip():
    for corner in Corner:
        for i in range(1, 4):
            for j in range(1, 4):
                g = to_global(corner, (i, j))
                assert to_global(corner, g) == (i, j)


def test_edge_is_canonical():
    assert edge((2, 3), (1, 3)) == ((1, 3), (2, 3))
    assert edge((1, 3), (2, 3)) == edge((2, 3), (1, 3))
