"""Line-oriented instance and certificate files.

Coordinates are global ``(row, col)``, 1-based, matching the matrix
convention used throughout.  An instance file opens with a single
``grid R C`` directive and then edits the graph (``remove_edge``,
``contract``, ``forbid_edge``) and states demands in order; demand K of
the file is answered by the ``path K:`` line of a certificate file.
``#`` starts a comment anywhere on a line.  A certificate whose instance
is unsolvable is the single word ``infeasible``.

Certificates round-trip bit-exactly through ``parse_certificate`` /
``serialize_certificate``.
"""

from __future__ import annotations

import re
from typing import Optional

from .grid import GridGraph, Vertex, edge, make_grid
from .routing import Demand, Infeasible, Instance, PathSystem, SolveResult

# The largest grid an instance file may ask for, in vertices.  The solver is
# exact and meant for small graphs; a larger grid is refused before any of
# it is built, so that a typo such as ``grid 100000 100000`` is a parse error
# rather than ten billion vertices.
_MAX_GRID_VERTICES = 10_000

_VERTEX = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
_PATH_LINE = re.compile(r"^path\s+(\d+)\s*:\s*(.*)$")


class ParseError(ValueError):
    """Malformed instance or certificate text, located by line number."""

    def __init__(self, name: str, lineno: int, message: str) -> None:
        super().__init__(f"{name}:{lineno}: {message}")
        self.name = name
        self.lineno = lineno
        self.message = message


def _effective_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _take_vertices(name: str, lineno: int, text: str, want: Optional[int] = None):
    out = [Vertex(int(m.group(1)), int(m.group(2))) for m in _VERTEX.finditer(text)]
    if want is not None and len(out) != want:
        raise ParseError(
            name, lineno, f"expected {want} (row,col) vertices, found {len(out)}"
        )
    return out


def parse_instance(text: str, name: str = "<instance>") -> Instance:
    """Parse an instance file into a routing instance."""
    graph: Optional[GridGraph] = None
    forbidden: dict = {}  # edge -> line that forbade it
    demands: list[tuple[int, Demand]] = []

    def need_graph(lineno: int) -> GridGraph:
        if graph is None:
            raise ParseError(name, lineno, "the grid directive must come first")
        return graph

    def check_present(lineno: int, vs) -> None:
        g = need_graph(lineno)
        for v in vs:
            if v not in g.present_vertices:
                raise ParseError(name, lineno, f"vertex ({v.row},{v.col}) is not in the grid")

    for lineno, line in _effective_lines(text):
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "grid":
            if graph is not None:
                raise ParseError(name, lineno, "duplicate grid directive")
            try:
                rows, cols = (int(tok) for tok in rest.split())
            except ValueError:
                raise ParseError(name, lineno, f"grid wants two integers, got {rest!r}") from None
            if rows < 1 or cols < 1:
                raise ParseError(name, lineno, f"grid dimensions must be positive, got {rows} {cols}")
            if rows * cols > _MAX_GRID_VERTICES:
                raise ParseError(
                    name,
                    lineno,
                    f"grid {rows} {cols} has {rows * cols} vertices, more than {_MAX_GRID_VERTICES}",
                )
            graph = make_grid(rows, cols)
        elif word in ("remove_edge", "forbid_edge", "contract"):
            u, v = _take_vertices(name, lineno, rest, want=2)
            check_present(lineno, (u, v))
            try:
                if word == "remove_edge":
                    graph = graph.without_edges([edge(u, v)])
                elif word == "contract":
                    graph = graph.contracted(u, v)
                else:
                    e = edge(u, v)
                    if e not in graph.present_edges:
                        raise ValueError(f"no edge between {u} and {v}")
                    forbidden[e] = lineno
            except ValueError as exc:
                raise ParseError(name, lineno, str(exc)) from None
        elif word == "demand":
            kind, _, spec = rest.partition(" ")
            spec = spec.strip()
            if kind == "pair":
                s, t = _take_vertices(name, lineno, spec, want=2)
                check_present(lineno, (s, t))
                demands.append((lineno, Demand.pair(s, t)))
            elif kind == "escape":
                head, arrow, tail = spec.partition("->")
                if not arrow:
                    raise ParseError(name, lineno, "escape demand wants 'source -> {exits}'")
                (s,) = _take_vertices(name, lineno, head, want=1)
                body, _, suffix = tail.partition("}")
                if "{" not in body:
                    raise ParseError(name, lineno, "exit set wants braces: {(r,c), ...}")
                exits = _take_vertices(name, lineno, body)
                if not exits:
                    raise ParseError(name, lineno, "exit set is empty")
                check_present(lineno, [s] + exits)
                group: Optional[int] = None
                suffix = suffix.strip()
                if suffix:
                    gword, _, gval = suffix.partition(" ")
                    if gword != "group":
                        raise ParseError(name, lineno, f"unexpected trailing {suffix!r}")
                    try:
                        group = int(gval)
                    except ValueError:
                        raise ParseError(name, lineno, f"group wants an integer, got {gval!r}") from None
                demands.append((lineno, Demand.escape(s, exits, distinct_group=group)))
            else:
                raise ParseError(name, lineno, f"unknown demand kind {kind!r}")
        else:
            raise ParseError(name, lineno, f"unknown directive {word!r}")

    if graph is None:
        raise ParseError(name, max(1, text.count("\n") + 1), "missing grid directive")
    if not demands:
        raise ParseError(name, max(1, text.count("\n") + 1), "no demands")
    # a later contract may have removed a vertex or edge mentioned earlier
    for lineno, d in demands:
        terminals = [d.source] + ([d.target] if d.target else []) + sorted(d.exits or ())
        check_present(lineno, terminals)
    for e, lineno in sorted(forbidden.items()):
        if e not in graph.present_edges:
            raise ParseError(name, lineno, "forbidden edge is no longer in the grid")
    return Instance(graph, tuple(d for _, d in demands), frozenset(forbidden))


def _fmt_vertex(v: Vertex) -> str:
    return f"({v.row},{v.col})"


def serialize_certificate(result: SolveResult) -> str:
    """Render a solver result as certificate text (with trailing newline)."""
    if result is Infeasible:
        return "infeasible\n"
    lines = [
        f"path {k}: " + " ".join(_fmt_vertex(v) for v in p)
        for k, p in enumerate(result.paths)
    ]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, name: str = "<certificate>") -> SolveResult:
    """Parse certificate text into a path system or the infeasible marker."""
    lines = list(_effective_lines(text))
    if len(lines) == 1 and lines[0][1] == "infeasible":
        return Infeasible
    paths = []
    for lineno, line in lines:
        if line == "infeasible":
            raise ParseError(name, lineno, "infeasible must be the sole line")
        m = _PATH_LINE.match(line)
        if not m:
            raise ParseError(name, lineno, f"expected 'path K: (r,c) ...', got {line!r}")
        k = int(m.group(1))
        if k != len(paths):
            raise ParseError(name, lineno, f"expected path {len(paths)}, found path {k}")
        vs = _take_vertices(name, lineno, m.group(2))
        if not vs:
            raise ParseError(name, lineno, f"path {k} has no vertices")
        paths.append(tuple(vs))
    if not paths:
        raise ParseError(name, 1, "empty certificate")
    return PathSystem(tuple(paths))
