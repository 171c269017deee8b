"""Exact solver for edge-disjoint routing instances on small graphs.

Demands are either *pair* demands (route source to target) or *escape*
demands (route source to any vertex of an exit set).  Paths of different
demands may share vertices but never edges; ``forbidden_edges`` are off
limits to everyone.  Escape demands carrying the same ``distinct_group``
id must end at pairwise distinct exits; escape demands without a group
may pile onto one exit freely.

The solver is complete: it returns ``Infeasible`` only when no path system
exists.  It is also deterministic -- demands are routed in input order,
candidate paths are enumerated shortest-first, and neighbours are explored
in (row, col) lexicographic order -- so a given instance always yields the
same certificate.

The search widens a bound on the total extra path length (the *slack*)
one level at a time, IDA* style.  A level that fails without the bound
having cut any branch has searched every simple path system, so it proves
the instance infeasible and the search stops there; it never has to climb
the remaining levels.

Each graph is compiled once per forbidden edge set to vertex indices and
edge bitmasks, and each demand once per compiled graph, to its goal mask
and distance table.  Both are stored on the graph (``GridGraph.compiled_forms``),
so repeated solves on one graph pay only for the search, and the compiled
forms are freed with the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .grid import Edge, GridGraph, Path, Vertex, edge, vertex

PAIR = "pair"
ESCAPE = "escape"

_INF = 10 ** 9


@dataclass(frozen=True)
class Demand:
    """One routing demand; build with ``Demand.pair`` / ``Demand.escape``."""

    kind: str
    source: Vertex
    target: Optional[Vertex] = None
    exits: Optional[frozenset[Vertex]] = None
    distinct_group: Optional[int] = None

    @staticmethod
    def pair(source: Iterable[int], target: Iterable[int]) -> "Demand":
        return Demand(PAIR, vertex(source), target=vertex(target))

    @staticmethod
    def escape(
        source: Iterable[int],
        exits: Iterable[Iterable[int]],
        distinct_group: Optional[int] = None,
    ) -> "Demand":
        xs = frozenset(map(vertex, exits))
        return Demand(ESCAPE, vertex(source), exits=xs, distinct_group=distinct_group)


@dataclass(frozen=True)
class Instance:
    graph: GridGraph
    demands: tuple[Demand, ...]
    forbidden_edges: frozenset[Edge] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "demands", tuple(self.demands))
        object.__setattr__(
            self, "forbidden_edges", frozenset(edge(*e) for e in self.forbidden_edges)
        )


@dataclass(frozen=True)
class PathSystem:
    """One vertex sequence per demand, in demand order."""

    paths: tuple[Path, ...]

    def __post_init__(self):
        # Solver output already holds Vertex values; only other input is rebuilt.
        object.__setattr__(
            self,
            "paths",
            tuple(
                tuple(v if type(v) is Vertex else vertex(v) for v in p)
                for p in self.paths
            ),
        )

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, i: int) -> Path:
        return self.paths[i]

    def edges(self) -> list[Edge]:
        out: list[Edge] = []
        for p in self.paths:
            for k in range(len(p) - 1):
                out.append(edge(p[k], p[k + 1]))
        return out


class InfeasibleType:
    """Singleton sentinel: the instance has no path system (a value, not an error)."""

    _instance: Optional["InfeasibleType"] = None

    def __new__(cls) -> "InfeasibleType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "Infeasible"

    def __reduce__(self):
        return (InfeasibleType, ())


Infeasible = InfeasibleType()

SolveResult = Union[PathSystem, InfeasibleType]


# --------------------------------------------------------------------------
# compiled search state


class _CDemand:
    """A demand compiled against one graph: the same for every solve on it.

    ``goal`` is the mask of the vertices the demand may end at, ``dist`` the
    distance of every vertex to the nearest of them, ``lb`` the source's
    distance, ``step`` the parity step of the path lengths (2 when the graph
    is bipartite and every goal has one colour) and ``max_len`` the longest
    simple path length worth trying.
    """

    __slots__ = ("src", "goal", "dist", "lb", "step", "max_len")

    def __init__(self, src, goal, dist, step, max_len):
        self.src = src
        self.goal = goal
        self.dist = dist
        self.lb = dist[src]
        self.step = step
        self.max_len = max_len


class _Compiled:
    """Graph compiled to indices/bitmasks, shared across solves of one graph.

    Vertex i is bit i of a vertex mask.  Edges are grouped into *lanes*, one
    per distinct index offset k = v - u of an edge {u, v} (u < v): the 6x6
    grid has two (k = 1 and k = 6), the contracted quadrants a few more.  The
    edge {u, u + k} is bit ``lane(k) * nv + u`` of an edge mask, so shifting
    an edge mask right by ``lane(k) * nv`` lines lane k's edges up with their
    low ends, and a whole frontier crosses every edge of a lane with two
    shifts (see ``_flood``).

    Distance tables and compiled demands are cached here too, so each is
    built once per graph and forbidden set.
    """

    def __init__(self, graph: GridGraph, forbidden: frozenset[Edge]):
        self.verts = sorted(graph.present_vertices)
        self.vindex = {v: i for i, v in enumerate(self.verts)}
        self.nv = len(self.verts)
        missing = forbidden - graph.present_edges
        if missing:
            raise ValueError(f"forbidden edges not in graph: {sorted(missing)}")
        pairs = [
            (self.vindex[u], self.vindex[v]) for u, v in graph.present_edges - forbidden
        ]
        offsets = sorted({vi - ui for ui, vi in pairs})
        lane_of = {k: i for i, k in enumerate(offsets)}
        low = [0] * len(offsets)
        # adj[v] = ((w, edge_bit, w_bit), ...) sorted by w, i.e. (row, col) order
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.nv)]
        for ui, vi in pairs:
            lane = lane_of[vi - ui]
            low[lane] |= 1 << ui
            ebit = 1 << (lane * self.nv + ui)
            adj[ui].append((vi, ebit, 1 << vi))
            adj[vi].append((ui, ebit, 1 << ui))
        # lanes[i] = (k, shift, low): lane i's offset, the shift that lines its
        # edge bits up with their low ends, and the mask of those low ends
        self.lanes = tuple(
            (k, lane * self.nv, low[lane]) for lane, k in enumerate(offsets)
        )
        self.adj = [tuple(sorted(a)) for a in adj]
        self.coloring = self._two_color()
        self._dist_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._demands: dict[tuple, _CDemand] = {}

    def _two_color(self) -> Optional[list[int]]:
        color = [-1] * self.nv
        for start in range(self.nv):
            if color[start] >= 0:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                u = queue.pop()
                for w, _, _ in self.adj[u]:
                    if color[w] < 0:
                        color[w] = color[u] ^ 1
                        queue.append(w)
                    elif color[w] == color[u]:
                        return None
        return color

    def free_lanes(self, used: int) -> list[tuple[int, int]]:
        """(k, mask of low ends of lane k's edges not in ``used``) per lane."""
        return [(k, low & ~(used >> shift)) for k, shift, low in self.lanes]

    def distances(self, goals: tuple[int, ...]) -> tuple[int, ...]:
        """BFS distance of every vertex to the nearest goal, cached per goal tuple."""
        dist = self._dist_cache.get(goals)
        if dist is None:
            dist = self._dist_cache[goals] = self.distances_from(goals)
        return dist

    def distances_from(self, goals: Iterable[int]) -> tuple[int, ...]:
        dist = [_INF] * self.nv
        frontier = []
        for g in goals:
            dist[g] = 0
            frontier.append(g)
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w, _, _ in self.adj[u]:
                    if dist[w] > d:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return tuple(dist)

    def demand(self, d: Demand) -> _CDemand:
        """``d`` compiled against this graph, cached; a malformed one raises every time."""
        key = (d.kind, d.source, d.target, d.exits)
        cd = self._demands.get(key)
        if cd is None:
            cd = self._demands[key] = self.compile_demand(d)
        return cd

    def compile_demand(self, d: Demand) -> _CDemand:
        vindex = self.vindex
        if d.source not in vindex:
            raise ValueError(f"demand source {d.source} not in graph")
        src = vindex[d.source]
        if d.kind == PAIR:
            if d.target is None or d.target not in vindex:
                raise ValueError(f"pair target {d.target} not in graph")
            goals = (vindex[d.target],)
        elif d.kind == ESCAPE:
            if not d.exits:
                raise ValueError("escape demand with empty exit set")
            bad = [x for x in d.exits if x not in vindex]
            if bad:
                raise ValueError(f"escape exits not in graph: {sorted(bad)}")
            goals = tuple(sorted(vindex[x] for x in d.exits))
        else:
            raise ValueError(f"unknown demand kind: {d.kind!r}")
        goal = 0
        for g in goals:
            goal |= 1 << g
        step = 1
        if self.coloring is not None and len({self.coloring[g] for g in goals}) == 1:
            step = 2
        # the only simple s,s-path is the trivial one
        max_len = 0 if d.kind == PAIR and goals == (src,) else self.nv - 1
        return _CDemand(src, goal, self.distances(goals), step, max_len)


def _walker(adj, cd: _CDemand, gi: int):
    """The candidate paths of one demand in one search, as ``walk(used, gused, limit)``.

    ``walk`` yields ``(path, edge_mask)`` for every simple path of exactly
    ``limit`` edges from the source to a goal over edges not in ``used``,
    depth first with neighbours in (row, col) order.  A grouped escape (group
    slot ``gi``) may not end at an exit in ``gused[gi]``.  A pair path meets
    its target only at its end, and an ungrouped escape may be cut at its
    first exit, so neither is continued past one.  A vertex farther from the
    goals than the length left is not entered, so a vertex at the last step
    is a goal.  An edge to an unvisited vertex cannot be one of the path's
    own.  In a bipartite graph with goals of one colour the length left and
    that distance always have one parity, so ``_CDemand.step`` is the only
    parity test.
    """
    src, goal, dist = cd.src, cd.goal, cd.dist
    sbit = 1 << src
    stop = goal if gi < 0 else 0

    def walk(used: int, gused: tuple[int, ...], limit: int):
        taken = gused[gi] if gi >= 0 else 0
        if not limit:
            if sbit & goal & ~taken:
                yield (src,), 0
            return
        if stop & sbit:
            return
        path = [src]
        above = []  # (neighbour iterator, vmask, pmask) of each level above
        vmask, pmask, rem = sbit, 0, limit - 1
        nbrs = iter(adj[src])
        while True:
            for w, ebit, wbit in nbrs:
                if vmask & wbit or used & ebit or dist[w] > rem:
                    continue
                if not rem:
                    # distance 0: w is a goal
                    if not taken & wbit:
                        yield (*path, w), pmask | ebit
                elif not stop & wbit:
                    above.append((nbrs, vmask, pmask))
                    path.append(w)
                    vmask |= wbit
                    pmask |= ebit
                    rem -= 1
                    nbrs = iter(adj[w])
                    break
            else:
                if not above:
                    return
                nbrs, vmask, pmask = above.pop()
                path.pop()
                rem += 1

    return walk


def _flood(seen: int, free: list[tuple[int, int]]) -> int:
    """Grow the vertex mask ``seen`` across free edges until it is closed.

    ``free`` is ``_Compiled.free_lanes(used)``.  Per lane, ``(seen & low) << k``
    steps from low ends to high ends and ``(seen >> k) & low`` back, so each
    pass moves the whole frontier one edge along every lane at once.
    """
    while True:
        grown = seen
        for k, low in free:
            grown |= (grown & low) << k | (grown >> k) & low
        if grown == seen:
            return seen
        seen = grown


def _compiled(graph: GridGraph, forbidden: frozenset[Edge]) -> _Compiled:
    """The compiled form of ``graph`` minus ``forbidden``, stored on the graph."""
    forms = graph.compiled_forms
    comp = forms.get(forbidden)
    if comp is None:
        comp = forms[forbidden] = _Compiled(graph, forbidden)
    return comp


class _Search:
    def __init__(self, inst: Instance):
        self.comp = comp = _compiled(inst.graph, inst.forbidden_edges)
        groups = sorted(
            {d.distinct_group for d in inst.demands if d.distinct_group is not None}
        )
        gslot = {g: i for i, g in enumerate(groups)}
        self.demands = [comp.demand(d) for d in inst.demands]
        # group slot per demand, -1 for pairs and ungrouped escapes
        self.gi = [
            gslot[d.distinct_group]
            if d.kind == ESCAPE and d.distinct_group is not None
            else -1
            for d in inst.demands
        ]
        self.walks = [_walker(comp.adj, cd, gi) for cd, gi in zip(self.demands, self.gi)]
        # (source bit, goal mask, group slot) per demand, for _prune_ok
        self.rows = [(1 << cd.src, cd.goal, gi) for cd, gi in zip(self.demands, self.gi)]
        self.nd = len(self.demands)
        self.ngroups = len(groups)
        # failed[(di, used, gused)] = largest slack that still found nothing,
        # or _INF once a search of that subtree found nothing with no cut
        self.failed: dict = {}
        # set when the slack bound truncated a demand's enumeration in the
        # subtree being searched (see _route)
        self.cut = False
        # the slack level the last run stopped at (None: settled before any level)
        self.slack: Optional[int] = None

    # ------------------------------- feasibility prunes after each commit --

    def _prune_ok(self, j0: int, used: int, gused: tuple[int, ...]) -> bool:
        """Can every demand from j0 on still reach a goal over unused edges?

        Each component of the free graph is flooded once; a later demand
        whose source lies in an already flooded component reuses it.  The
        exits still open to one group must then be matchable to its demands.
        """
        free = self.comp.free_lanes(used)
        flooded: list[int] = []
        needs = [[] for _ in gused] if gused else None
        for sbit, goal, gi in self.rows[j0:]:
            for reach in flooded:
                if reach & sbit:
                    break
            else:
                reach = _flood(sbit, free)
                flooded.append(reach)
            avail = goal & reach
            if gi >= 0:
                avail &= ~gused[gi]
                needs[gi].append(avail)
            if not avail:
                return False
        if needs:
            for rows in needs:
                if len(rows) == 2:
                    # Hall's condition for two non-empty rows
                    a, b = rows
                    if a == b and not a & (a - 1):
                        return False
                elif len(rows) > 2 and not _has_matching(rows):
                    return False
        return True

    # ------------------------------------------------------------- search --

    def _route(self, di: int, used: int, gused: tuple[int, ...], slack: int):
        """Route demands di.. within a shared budget of extra path length.

        ``slack`` bounds the total length beyond the per-demand shortest-path
        lower bounds; the driver widens it gradually (IDA* style), so the
        certificate found is minimal-total-length first, lexicographic second.
        Candidate paths of demand di are tried shortest first.

        On failure ``self.cut`` tells whether the slack bound cut any branch
        of this subtree (a memo hit on a finite slack counts as a cut).  A
        subtree that fails with no cut has no solution at any slack: it is
        memoised as ``_INF``, and at the root it proves infeasibility.
        """
        key = (di, used, gused)
        failed_at = self.failed.get(key, -1)
        if failed_at >= slack:
            self.cut |= failed_at < _INF
            return None
        outer, self.cut = self.cut, False
        d = self.demands[di]
        gi = self.gi[di]
        walk = self.walks[di]
        lb = d.lb
        top = lb + slack
        if top < d.max_len:
            self.cut = True
        else:
            top = d.max_len
        last = di + 1 == self.nd
        for limit in range(lb, top + 1, d.step):
            for pverts, pmask in walk(used, gused, limit):
                if last:
                    # nothing is left to prune or route
                    return [pverts]
                nused = used | pmask
                ngused = gused
                if gi >= 0:
                    ngused = gused[:gi] + (gused[gi] | 1 << pverts[-1],) + gused[gi + 1 :]
                if not self._prune_ok(di + 1, nused, ngused):
                    continue
                tail = self._route(di + 1, nused, ngused, slack - (limit - lb))
                if tail is not None:
                    return [pverts] + tail
        self.failed[key] = slack if self.cut else _INF
        self.cut |= outer
        return None

    def run(self) -> SolveResult:
        if not self.nd:
            return PathSystem(())
        gused0 = (0,) * self.ngroups
        if not self._prune_ok(0, 0, gused0):
            return Infeasible
        budget = 0
        for d in self.demands:
            if d.lb >= _INF:
                return Infeasible
            budget += d.max_len - d.lb
        routed = None
        for slack in range(budget + 1):
            self.slack, self.cut = slack, False
            routed = self._route(0, 0, gused0, slack)
            if routed is not None or not self.cut:
                break
        if routed is None:
            return Infeasible
        verts = self.comp.verts
        return PathSystem(tuple(tuple(verts[i] for i in p) for p in routed))


def _has_matching(needs: list[int]) -> bool:
    """Can each row be assigned its own bit?  (tiny bipartite matching)"""
    owner: dict[int, int] = {}

    def assign(r: int, taboo: set[int]) -> bool:
        m = needs[r]
        while m:
            b = m & -m
            m ^= b
            if b in taboo:
                continue
            taboo.add(b)
            if b not in owner or assign(owner[b], taboo):
                owner[b] = r
                return True
        return False

    return all(assign(r, set()) for r in range(len(needs)))


def solve(inst: Instance) -> SolveResult:
    """Route all demands edge-disjointly, or prove it impossible."""
    return _Search(inst).run()


# --------------------------------------------------------------------------
# certificate checking (independent of the solver: works on raw vertices)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    violation: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _bad(msg: str) -> VerifyResult:
    return VerifyResult(False, msg)


def verify(inst: Instance, cert: PathSystem) -> VerifyResult:
    """Check a certificate against an instance; reports the first violated clause."""
    if not isinstance(cert, PathSystem):
        return _bad("not a path system")
    if len(cert.paths) != len(inst.demands):
        return _bad(
            f"path count mismatch: {len(cert.paths)} paths for {len(inst.demands)} demands"
        )
    present = inst.graph.present_vertices
    gedges = inst.graph.present_edges
    seen_edges: set[Edge] = set()
    group_ends: dict[int, set[Vertex]] = {}
    for i, (d, p) in enumerate(zip(inst.demands, cert.paths)):
        if not p:
            return _bad(f"path {i} is empty")
        for v in p:
            if v not in present:
                return _bad(f"path {i}: absent vertex {v}")
        for k in range(len(p) - 1):
            a, b = p[k], p[k + 1]  # Vertex values: PathSystem normalised them
            e = (a, b) if a <= b else (b, a)
            if e not in gedges:
                return _bad(f"path {i}: non-adjacent step {p[k]} -> {p[k + 1]}")
            if e in inst.forbidden_edges:
                return _bad(f"path {i}: forbidden edge {e}")
            if e in seen_edges:
                return _bad(f"path {i}: edge reuse {e}")
            seen_edges.add(e)
        if p[0] != d.source:
            return _bad(f"path {i}: endpoint mismatch, starts at {p[0]} not {d.source}")
        last = p[-1]
        if d.kind == PAIR:
            if last != d.target:
                return _bad(f"path {i}: endpoint mismatch, ends at {last} not {d.target}")
        elif d.kind == ESCAPE:
            if d.exits is None or last not in d.exits:
                return _bad(f"path {i}: exit mismatch, ends at {last} outside exits")
            if d.distinct_group is not None:
                ends = group_ends.setdefault(d.distinct_group, set())
                if last in ends:
                    return _bad(f"path {i}: exit collision at {last}")
                ends.add(last)
        else:
            return _bad(f"demand {i}: unknown kind {d.kind!r}")
    return VerifyResult(True)


# --------------------------------------------------------------------------


def is_weakly_2_linked(graph: GridGraph) -> bool:
    """Do edge-disjoint u1,v1- and u2,v2-paths exist for every choice of the four?

    Terminals need not be distinct.  Demands are unordered and unordered
    within a pair, and a coincident pair (u = v) is routed by a zero-length
    path, so only distinct unordered pairs and unordered pairs-of-pairs are
    checked, after one connectivity pass that settles the degenerate cases.
    """
    verts = sorted(graph.present_vertices)
    if not verts:
        return True
    comp = _compiled(graph, frozenset())
    if any(d >= _INF for d in comp.distances((0,))):
        return False  # disconnected: some single pair already fails
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
    for a in range(len(pairs)):
        for bidx in range(a, len(pairs)):
            inst = Instance(
                graph,
                (Demand.pair(*pairs[a]), Demand.pair(*pairs[bidx])),
            )
            if solve(inst) is Infeasible:
                return False
    return True
