"""Grid model tests: frozen landmark values, adjusted quadrants, symmetries."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridlink.grid import (
    C0_RING,
    C1_EDGES,
    C1_RING,
    SYMMETRIES,
    AdjustedKind,
    Corner,
    Vertex,
    adjusted_quadrant,
    edge,
    landmarks,
    make_grid,
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
    Corner.UL: dict(x0=(3, 3), y0=(3, 1)),
    Corner.UR: dict(x0=(3, 4), y0=(3, 6)),
    Corner.LL: dict(x0=(4, 3), y0=(4, 1)),
    Corner.LR: dict(x0=(4, 4), y0=(4, 6)),
}


@pytest.mark.parametrize("corner", list(Corner))
def test_landmark_vertices(corner):
    lm = landmarks(quadrant(make_grid(6, 6), corner))
    want = LANDMARK_CASES[corner]
    assert lm.x0 == want["x0"]
    assert lm.y0 == want["y0"]


def test_landmark_lines_ul():
    lm = landmarks(quadrant(make_grid(6, 6), Corner.UL))
    assert lm.A == ((3, 1), (3, 2), (3, 3))
    assert lm.B == ((1, 3), (2, 3), (3, 3))


@pytest.mark.parametrize("corner", list(Corner))
def test_landmark_line_membership(corner):
    q = quadrant(make_grid(6, 6), corner)
    lm = landmarks(q)
    assert lm.x0 == lm.A[2] == lm.B[2]
    assert lm.y0 == lm.A[0]
    assert len(q.parent.adjacency[lm.y0]) == 3
    assert set(lm.A) | set(lm.B) <= q.vertices


@pytest.mark.parametrize("corner", list(Corner))
def test_central_cycles(corner):
    q = quadrant(make_grid(6, 6), corner)
    g = q.parent
    for ring in (C0_RING, C1_RING):
        # consecutive ring vertices, the last and the first too, are grid neighbours
        for k in range(len(ring)):
            assert edge(ring[k - 1], ring[k]) in g.present_edges
    assert (len(C0_RING), len(C1_RING)) == (4, 12)
    assert not set(C0_RING) & set(C1_RING)
    assert landmarks(q).x0 in C0_RING
    assert q.rings == tuple(
        tuple(sorted(v for v in ring if v in q.vertices)) for ring in (C0_RING, C1_RING)
    )
    assert q.mating_graph.present_edges == q.graph.present_edges - C1_EDGES
    assert q.mating_graph.present_vertices == q.vertices


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
    # A is present, independent, and its neighbours are the table's
    assert set(adj.A) <= adj.graph.present_vertices
    assert {w for a in adj.A for w in adj.graph.adjacency[a]} == ADJUSTED_N[kind]
    for i in range(3):
        for j in range(i + 1, 3):
            assert edge(adj.A[i], adj.A[j]) not in adj.graph.present_edges


def test_adjusted_contractions():
    # each merged vertex is gone, and its edges join its representative
    q2 = adjusted_quadrant("Q2")
    assert edge((1, 1), (2, 2)) in q2.graph.present_edges
    assert Vertex(1, 2) not in q2.graph.present_vertices
    q3 = adjusted_quadrant(AdjustedKind.Q3)
    assert edge((1, 1), (3, 1)) in q3.graph.present_edges
    assert Vertex(2, 1) not in q3.graph.present_vertices
    q4 = adjusted_quadrant(AdjustedKind.Q4)
    assert edge((1, 2), (3, 2)) in q4.graph.present_edges
    assert Vertex(2, 2) not in q4.graph.present_vertices


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
            assert edge(sym(u), sym(v)) in g.present_edges
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
    assert {tr(v) for v in q.rings[1]} == set(q.rings[1])
    # graph automorphism of the quadrant
    g = q.graph
    for u, v in g.present_edges:
        assert edge(tr(u), tr(v)) in g.present_edges


def test_to_global_round_trip():
    for corner in Corner:
        for i in range(1, 4):
            for j in range(1, 4):
                g = to_global(corner, (i, j))
                assert to_global(corner, g) == (i, j)


def test_edge_is_canonical():
    assert edge((2, 3), (1, 3)) == ((1, 3), (2, 3))
    assert edge((1, 3), (2, 3)) == edge((2, 3), (1, 3))
