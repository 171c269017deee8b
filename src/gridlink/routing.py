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
        xs = frozenset(vertex(x) for x in exits)
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
    __slots__ = ("kind", "src", "tgt", "exits_mask", "gi", "dist", "step", "max_len")

    def __init__(self, kind, src, tgt, exits_mask, gi):
        self.kind = kind
        self.src = src
        self.tgt = tgt
        self.exits_mask = exits_mask
        self.gi = gi
        self.dist = None
        self.step = 1
        self.max_len = 0


class _Compiled:
    """Graph compiled to indices/bitmasks, shared across solves of one graph.

    Vertex i is bit i of a vertex mask.  Edges are grouped into *lanes*, one
    per distinct index offset k = v - u of an edge {u, v} (u < v): the 6x6
    grid has two (k = 1 and k = 6), the contracted quadrants a few more.  The
    edge {u, u + k} is bit ``lane(k) * nv + u`` of an edge mask, so shifting
    an edge mask right by ``lane(k) * nv`` lines lane k's edges up with their
    low ends, and a whole frontier crosses every edge of a lane with two
    shifts (see ``_flood``).
    """

    def __init__(self, graph: GridGraph, forbidden: frozenset[Edge]):
        self.graph = graph
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


_compile_cache: dict[tuple[int, frozenset], _Compiled] = {}


def _compiled(graph: GridGraph, forbidden: frozenset[Edge]) -> _Compiled:
    key = (id(graph), forbidden)
    hit = _compile_cache.get(key)
    if hit is not None and hit.graph is graph:
        return hit
    comp = _Compiled(graph, forbidden)
    if len(_compile_cache) >= 64:
        _compile_cache.clear()
    _compile_cache[key] = comp
    return comp


class _Search:
    def __init__(self, inst: Instance):
        self.comp = _compiled(inst.graph, inst.forbidden_edges)
        comp = self.comp
        groups = sorted(
            {d.distinct_group for d in inst.demands if d.distinct_group is not None}
        )
        self.gslot = {g: i for i, g in enumerate(groups)}
        self.demands: list[_CDemand] = []
        for d in inst.demands:
            if d.source not in comp.vindex:
                raise ValueError(f"demand source {d.source} not in graph")
            src = comp.vindex[d.source]
            if d.kind == PAIR:
                if d.target is None or d.target not in comp.vindex:
                    raise ValueError(f"pair target {d.target} not in graph")
                cd = _CDemand(PAIR, src, comp.vindex[d.target], 0, -1)
                goals = (cd.tgt,)
            elif d.kind == ESCAPE:
                if not d.exits:
                    raise ValueError("escape demand with empty exit set")
                bad = [x for x in d.exits if x not in comp.vindex]
                if bad:
                    raise ValueError(f"escape exits not in graph: {sorted(bad)}")
                goals = tuple(sorted(comp.vindex[x] for x in d.exits))
                mask = 0
                for g in goals:
                    mask |= 1 << g
                gi = self.gslot[d.distinct_group] if d.distinct_group is not None else -1
                cd = _CDemand(ESCAPE, src, -1, mask, gi)
            else:
                raise ValueError(f"unknown demand kind: {d.kind!r}")
            cd.dist = comp.distances(goals)
            if comp.coloring is not None and len({comp.coloring[g] for g in goals}) == 1:
                cd.step = 2
            if cd.kind == PAIR and cd.src == cd.tgt:
                cd.max_len = 0  # the only simple s,s-path is the trivial one
            else:
                cd.max_len = comp.nv - 1
            self.demands.append(cd)
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

    # ---- candidate paths for one demand, shortest first, lexicographic ----

    def _accepts(self, d: _CDemand, v: int, gused: tuple[int, ...]) -> bool:
        if d.kind == PAIR:
            return v == d.tgt
        if not (d.exits_mask >> v) & 1:
            return False
        return d.gi < 0 or not (gused[d.gi] >> v) & 1

    def _paths_for(self, d: _CDemand, used: int, gused: tuple[int, ...], slack: int):
        lb = d.dist[d.src]
        if lb >= _INF:
            return
        if lb + slack < d.max_len:
            self.cut = True
        shared_exit_stop = d.kind == ESCAPE and d.gi < 0
        for limit in range(lb, min(d.max_len, lb + slack) + 1, d.step):
            for found in self._dfs(
                d, d.src, 0, limit, used, gused, [d.src],
                1 << d.src, 0, shared_exit_stop,
            ):
                yield found + (limit - lb,)

    def _dfs(self, d, v, pos, limit, used, gused, pverts, vmask, pmask, stop_at_exit):
        if pos == limit:
            if self._accepts(d, v, gused):
                yield (tuple(pverts), pmask, v)
            return
        # A simple path meets the pair target only at its end, and a shared
        # escape may be truncated at its first exit, so both cut the branch.
        if d.kind == PAIR:
            if v == d.tgt:
                return
        elif stop_at_exit and (d.exits_mask >> v) & 1:
            return
        dist = d.dist
        rem = limit - pos - 1
        parity = d.step == 2
        blocked = used | pmask
        for w, ebit, wbit in self.comp.adj[v]:
            if vmask & wbit or blocked & ebit:
                continue
            dw = dist[w]
            if dw > rem or (parity and (rem - dw) & 1):
                continue
            pverts.append(w)
            yield from self._dfs(
                d, w, pos + 1, limit, used, gused, pverts,
                vmask | wbit, pmask | ebit, stop_at_exit,
            )
            pverts.pop()

    # ------------------------------- feasibility prunes after each commit --

    def _prune_ok(self, j0: int, used: int, gused: tuple[int, ...]) -> bool:
        """Can every demand from j0 on still reach a goal over unused edges?

        Each component of the free graph is flooded once; a later demand
        whose source lies in an already flooded component reuses it.
        """
        free = self.comp.free_lanes(used)
        flooded: list[int] = []
        group_need: dict[int, list[int]] = {}
        for j in range(j0, self.nd):
            d = self.demands[j]
            sbit = 1 << d.src
            for reach in flooded:
                if reach & sbit:
                    break
            else:
                reach = _flood(sbit, free)
                flooded.append(reach)
            if d.kind == PAIR:
                if not (reach >> d.tgt) & 1:
                    return False
            else:
                avail = d.exits_mask & reach
                if d.gi >= 0:
                    avail &= ~gused[d.gi]
                    group_need.setdefault(d.gi, []).append(avail)
                if not avail:
                    return False
        for needs in group_need.values():
            if len(needs) > 1 and not _has_matching(needs):
                return False
        return True

    # ------------------------------------------------------------- search --

    def _route(self, di: int, used: int, gused: tuple[int, ...], slack: int):
        """Route demands di.. within a shared budget of extra path length.

        ``slack`` bounds the total length beyond the per-demand shortest-path
        lower bounds; the driver widens it gradually (IDA* style), so the
        certificate found is minimal-total-length first, lexicographic second.

        On failure ``self.cut`` tells whether the slack bound cut any branch
        of this subtree (a memo hit on a finite slack counts as a cut).  A
        subtree that fails with no cut has no solution at any slack: it is
        memoised as ``_INF``, and at the root it proves infeasibility.
        """
        if di == self.nd:
            return []
        key = (di, used, gused)
        failed_at = self.failed.get(key, -1)
        if failed_at >= slack:
            self.cut |= failed_at < _INF
            return None
        outer, self.cut = self.cut, False
        d = self.demands[di]
        for pverts, pmask, end, extra in self._paths_for(d, used, gused, slack):
            nused = used | pmask
            ngused = gused
            if d.kind == ESCAPE and d.gi >= 0:
                ngused = tuple(
                    m | (1 << end) if k == d.gi else m for k, m in enumerate(gused)
                )
            if not self._prune_ok(di + 1, nused, ngused):
                continue
            tail = self._route(di + 1, nused, ngused, slack - extra)
            if tail is not None:
                return [pverts] + tail
        self.failed[key] = slack if self.cut else _INF
        self.cut |= outer
        return None

    def run(self) -> SolveResult:
        gused0 = tuple(0 for _ in range(self.ngroups))
        if not self._prune_ok(0, 0, gused0):
            return Infeasible
        budget = 0
        for d in self.demands:
            lb = d.dist[d.src]
            if lb >= _INF:
                return Infeasible
            budget += d.max_len - lb
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
