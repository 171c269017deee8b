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

The search bounds the total extra path length (the *slack*) and widens
the bound IDA* style.  After each committed path the prune checks the
demands left over the free edges: a demand that can reach no goal ends the
branch, and so do free distances whose excess over the demands' static
lower bounds sums to more than the slack left, since no path is shorter
than its free distance.  A demand with a free shortest path is settled by
its table; one without grows from its source a layer at a time until it
meets a goal, and only once the slack is spent is a demand's component of
the free graph flooded to see whether it reaches a goal at all.  Escapes
that need distinct exits are matched to the exits they are known to reach
(the ends of their free shortest paths, or the goals their growth met),
and their components are flooded only when that matching fails.  The paths
are edge-disjoint, so a path system spends at most the free edges less the
demands' lower bounds as slack, and the ladder never climbs above that.

Every branch the slack alone cuts off reports its *gap*, the smallest rise
in the slack at which it would try something new.  A level that fails
next climbs by the least gap it met (Korf's rule), since every level below
that searches the same branches and fails the same way.  A level that
fails with no gap, or whose least gap leads above the edge budget, has
searched every simple path system that fits, so it proves the instance
infeasible and the search stops there.  Skipped levels hold no solution,
so the first certificate found is the one a plain one-level-at-a-time
search finds.

Each graph is compiled once per forbidden edge set to vertex indices and
edge bitmasks, and each demand once per compiled graph, to its goal mask,
distance table and *shortest-path table*: every shortest path from the
source to a goal, in the order the depth-first walk would find them, each
one int holding the path's edge mask with its end vertex's bit above the
edge bits.  Most levels of the search run at a demand's shortest length,
where its candidates are this table filtered by the edges already used, and
the prune asks the same table whether a shortest path is still free.  Both
forms are stored on the graph (``GridGraph.compiled_forms``), so repeated
solves on one graph pay only for the search, and the compiled forms are
freed with the graph.  The walk and the fixed part of the prune's row live
on the compiled demand (``_CDemand.walk``, ``_CDemand.row``), so a solve
adds only each demand's group slot.

The search itself carries edge masks and end bits, never vertex paths;
``run`` traces each demand's path from its source along its edge mask once
it has a solution, by incidence masks: the one edge of the mask at the
current vertex is the next step, and XOR with its two end indices crosses
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .grid import Edge, GridGraph, Path, Vertex, edge, vertex

PAIR = "pair"
ESCAPE = "escape"

_INF = 10 ** 9

# A demand with more shortest paths than this gets no table: its walk at
# the shortest length searches, and the prune floods (a 6x6 pair has at
# most C(10, 5) = 252)
_TABLE_CAP = 1024


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
        if type(self.demands) is not tuple:
            object.__setattr__(self, "demands", tuple(self.demands))
        # an empty set of any type becomes frozenset(), the compiled-forms key
        forbidden = self.forbidden_edges
        if forbidden or type(forbidden) is not frozenset:
            object.__setattr__(self, "forbidden_edges", frozenset(edge(*e) for e in forbidden))


@dataclass(frozen=True)
class PathSystem:
    """One vertex sequence per demand, in demand order."""

    paths: tuple[Path, ...]

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
    simple path length worth trying.  ``table`` holds every shortest path
    from the source to a goal, in the walk's order, as its edge mask with
    its end vertex's bit stored ``eshift`` bits up (None beyond
    ``_TABLE_CAP`` paths).  ``short`` is the union of their edge masks and
    ``near`` of their end bits (both 0 without a table).  ``adj`` and
    ``eshift`` are the graph's (see ``_Compiled``), for ``walk``.  ``row``
    is the demand's part of a prune row, ``(source bit, goal, lb, short,
    near, table)``; a solve adds the group slot.
    """

    __slots__ = ("src", "goal", "dist", "lb", "step", "max_len", "table", "short", "near", "adj",
                 "eshift", "row")

    def __init__(self, src, goal, dist, step, max_len, table, adj, eshift):
        self.src = src
        self.goal = goal
        self.dist = dist
        self.lb = dist[src]
        self.step = step
        self.max_len = max_len
        self.table = table
        self.adj = adj
        self.eshift = eshift
        union = 0
        for m in table or ():
            union |= m
        self.near = union >> eshift
        self.short = union ^ self.near << eshift
        self.row = (1 << src, goal, self.lb, self.short, self.near, table)

    def walk(self, used: int, taken: int, grouped: bool, limit: int):
        """Yield ``(edge_mask, end_bit)`` for every simple path of exactly
        ``limit`` edges from the source to a goal over edges not in ``used``,
        depth first with neighbours in (row, col) order.  A ``grouped``
        escape may not end at an exit in ``taken``.

        At the shortest length the walk filters the table: a path is free
        when its mask meets neither ``used`` nor, above ``eshift``, the
        taken exits, and no adjacency is read.  Longer paths, and the
        shortest ones of a demand without a table, are searched.  A pair
        path meets its target only at its end, and an ungrouped escape may
        be cut at its first exit, so neither is continued past one.  A
        vertex farther from the goals than the length left is not entered,
        so a vertex at the last step is a goal.  An edge to an unvisited
        vertex cannot be one of the path's own.  In a bipartite graph with
        goals of one colour the length left and that distance always have
        one parity, so ``step`` is the only parity test.
        """
        table = self.table
        if limit == self.lb and table is not None:
            eshift = self.eshift
            blocked = used | taken << eshift
            for m in table:
                if not m & blocked:
                    end = m >> eshift
                    yield m ^ end << eshift, end
            return
        src, goal, dist, adj = self.src, self.goal, self.dist, self.adj
        sbit = 1 << src
        if not limit:
            if sbit & goal & ~taken:
                yield 0, sbit
            return
        stop = 0 if grouped else goal
        if stop & sbit:
            return
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
                        yield pmask | ebit, wbit
                elif not stop & wbit:
                    above.append((nbrs, vmask, pmask))
                    vmask |= wbit
                    pmask |= ebit
                    rem -= 1
                    nbrs = iter(adj[w])
                    break
            else:
                if not above:
                    return
                nbrs, vmask, pmask = above.pop()
                rem += 1


class _Compiled:
    """Graph compiled to indices/bitmasks, shared across solves of one graph.

    Vertex i is bit i of a vertex mask.  Edges are grouped into *lanes*, one
    per distinct index offset k = v - u of an edge {u, v} (u < v): the 6x6
    grid has two (k = 1 and k = 6), the contracted quadrants a few more.  The
    edge {u, u + k} is bit ``lane(k) * nv + u`` of an edge mask, so shifting
    an edge mask right by ``lane(k) * nv`` lines lane k's edges up with their
    low ends, and a whole frontier crosses every edge of a lane with two
    shifts (see ``_flood``).  Edge masks use the ``eshift`` bits below the
    end bits of the shortest-path tables.  ``inc[u]`` is the mask of u's
    edges and ``other[ebit]`` the XOR of that edge's two end indices, so
    ``u ^ other[ebit]`` crosses the edge from either end (see ``_trace``).

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
        self.nedges = len(pairs)
        offsets = sorted({vi - ui for ui, vi in pairs})
        lane_of = {k: i for i, k in enumerate(offsets)}
        low = [0] * len(offsets)
        # adj[v] = ((w, edge_bit, w_bit), ...) sorted by w, i.e. (row, col) order
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.nv)]
        self.inc = inc = [0] * self.nv
        self.other = other = {}
        for ui, vi in pairs:
            lane = lane_of[vi - ui]
            low[lane] |= 1 << ui
            ebit = 1 << (lane * self.nv + ui)
            adj[ui].append((vi, ebit, 1 << vi))
            adj[vi].append((ui, ebit, 1 << ui))
            inc[ui] |= ebit
            inc[vi] |= ebit
            other[ebit] = ui ^ vi
        # lanes[i] = (k, shift, low): lane i's offset, the shift that lines its
        # edge bits up with their low ends, and the mask of those low ends
        self.lanes = tuple(
            (k, lane * self.nv, low[lane]) for lane, k in enumerate(offsets)
        )
        self.adj = [tuple(sorted(a)) for a in adj]
        self.eshift = len(offsets) * self.nv
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
        dist = self.distances(goals)
        table = self.shortest_paths(src, dist)
        return _CDemand(src, goal, dist, step, max_len, table, self.adj, self.eshift)

    def shortest_paths(self, src: int, dist: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """Every shortest path from ``src`` to a goal of ``dist``, depth first.

        Each path is its edge mask with its end vertex's bit ``eshift`` bits
        up; neighbours are taken in (row, col) order, so the paths come in
        the order ``_CDemand.walk`` finds them.  Empty when no goal is reachable,
        None beyond ``_TABLE_CAP`` paths.
        """
        table: list[int] = []
        stack = [(src, 0)]
        while stack:
            u, mask = stack.pop()
            d = dist[u] - 1
            if d < 0:
                if len(table) == _TABLE_CAP:
                    return None
                table.append(mask | 1 << u << self.eshift)
                continue
            # each step of a shortest path is one closer to the goals
            stack.extend((w, mask | ebit) for w, ebit, _ in reversed(self.adj[u]) if dist[w] == d)
        return tuple(table)


def _trace(comp: "_Compiled", src: int, mask: int) -> Path:
    """The vertices of the simple path from ``src`` whose edges are ``mask``."""
    verts, inc, other = comp.verts, comp.inc, comp.other
    u, path = src, [verts[src]]
    while mask:
        b = mask & inc[u]
        mask ^= b
        u ^= other[b]
        path.append(verts[u])
    return tuple(path)


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
        ds = inst.demands
        self.demands = cds = [comp.demand(d) for d in ds]
        self.nd = len(cds)
        # group slot per demand, -1 for pairs and ungrouped escapes
        self.gi = gi = [-1] * self.nd
        slots: dict = {}
        for k, d in enumerate(ds):
            if d.distinct_group is not None and d.kind == ESCAPE:
                gi[k] = slots.setdefault(d.distinct_group, len(slots))
        self.ngroups = len(slots)
        # (the compiled demand's row, group slot) per demand, for _prune_ok
        self.rows = list(zip([cd.row for cd in cds], gi))
        # failed[(di, used, gused)] = largest slack that still finds nothing,
        # _INF once a search of that subtree found nothing with no gap
        self.failed: dict = {}
        # the least rise in the slack at which a branch of the subtree being
        # searched would try something new; _INF when nothing was cut off
        # (see _route)
        self.gap = _INF
        # the last slack level the last run searched, having climbed by the
        # gaps (None: settled before any level)
        self.slack: Optional[int] = None

    # ------------------------------- feasibility prunes after each commit --

    def _prune_ok(
        self, j0: int, used: int, gused: tuple[int, ...], slack: Optional[int] = None
    ) -> bool:
        """Can demands j0.. still be routed over unused edges within ``slack``?

        A demand's free distance is the length of its shortest path over the
        free edges to an open goal (for a grouped escape, an exit not in
        ``gused``).  A path is never shorter than that, so when the free
        distances exceed the ``lb`` of their demands by more than ``slack``
        in sum, no solution inside the slack remains and the branch is
        rejected.  The free distance is ``lb`` while one of the demand's
        shortest paths to an open goal is untouched: at once when no edge of
        ``short`` is used and a goal of ``near`` is open, else by a scan of
        the demand's table.  Otherwise the source grows over the free edges
        one layer at a time until it meets an open goal, and the demand is
        settled even when that goal lies beyond the slack; a source that
        stops growing first can reach no goal.  Once one demand's goals lie
        beyond the slack, and always when ``slack`` is None, a demand left
        with no free shortest path needs only reach a goal, which a flood of
        its component of the free graph settles; a demand whose source lies
        in a component already flooded reuses it.

        The exits still open to one group must be matchable to its demands
        (Hall's condition).  Each grouped demand brings a *witness row*, a
        set of open exits it can reach: the open goals of ``near`` when no
        edge of ``short`` is used, the ends of its free table paths when
        some are, the goals the layered growth met, or its component's
        goals when it was flooded.  Every row is a subset of the demand's
        reachable open exits, so a group whose witness rows pass passes;
        only a group whose witness rows fail floods the sources of its
        rows and checks the full rows again.  So the prune floods only for
        a demand with no free shortest path once the slack is spent, and
        for a group that fails on its witnesses; the verdict and the gap
        are those of flooding every grouped demand.

        A rejection that the slack alone caused lowers ``self.gap`` to the
        layers the first demand beyond the slack needed past it: below that
        rise the demands before it spend the same and it still lies beyond.
        An unreachable goal or a failed Hall check rejects at every slack,
        so it leaves ``self.gap`` alone.
        """
        free = None  # the free edges per lane, built on first use
        flooded: list[int] = []
        needs = [[] for _ in gused] if gused else None
        grouped = []  # (group slot, source bit, open goals) of each row of needs
        gap = 0
        eshift = self.comp.eshift
        for (sbit, goal, lb, short, near, table), gi in self.rows[j0:]:
            if gi >= 0:
                taken = gused[gi]
                goal &= ~taken
                # the ends of the free shortest paths to open goals, if any:
                # with them the demand spends none of the slack
                row = goal & near
                if row and used & short:
                    row = _free_ends(table, used | taken << eshift, eshift, row)
            elif goal & near and (not used & short or _any_free(table, used)):
                # a shortest path to a goal is still free: the free distance
                # is lb, so the demand spends none of the slack
                continue
            else:
                row = 0
            if not row:
                if free is None:
                    free = self.comp.free_lanes(used)
                if slack is not None:
                    # reach: the vertices within lb + slack - left edges of the source
                    reach, left = sbit, lb + slack
                    while not reach & goal:
                        grown = reach
                        for k, low in free:
                            grown |= (reach & low) << k | (reach >> k) & low
                        if grown == reach:
                            return False
                        reach, left = grown, left - 1
                    if left >= 0:
                        # free distance lb + slack - left: left is the slack unspent
                        slack = left
                    else:
                        # the goals lie -left layers beyond the slack
                        slack, gap = None, -left
                    row = reach & goal
                else:
                    row = goal & _component(sbit, flooded, free)
                    if not row:
                        return False
                if gi < 0:
                    continue
            needs[gi].append(row)
            grouped.append((gi, sbit, goal))
        if needs:
            for gi, rows in enumerate(needs):
                if _hall(rows):
                    continue
                # widen each row to every open exit its source reaches
                if free is None:
                    free = self.comp.free_lanes(used)
                rows = [goal & _component(sbit, flooded, free) for g, sbit, goal in grouped if g == gi]
                if not _hall(rows):
                    return False
        if gap:
            if gap < self.gap:
                self.gap = gap
            return False
        return True

    # ------------------------------------------------------------- search --

    def _route(self, di: int, used: int, gused: tuple[int, ...], slack: int):
        """Route demands di.. within a shared budget of extra path length.

        Returns the edge mask of each demand's path, or None.

        ``slack`` bounds the total length beyond the per-demand shortest-path
        lower bounds; ``run`` widens it IDA* style, so the certificate
        found is minimal-total-length first, lexicographic second.
        Candidate paths of demand di are tried shortest first, up to
        ``lb + slack`` and ``max_len``.  No path needs its own cap from the
        free edges: at every node of one level, the unused edges less the
        later demands' ``lb`` exceed ``lb + slack`` by the same amount (the
        free edges less every ``lb`` less the level), so ``run``'s edge
        budget caps every path at once.

        On failure ``self.gap`` is the least rise in the slack at which some
        branch of this subtree would try something new, ``_INF`` if none
        would.  Three things cut a branch off: demand di's next length of
        its parity above ``lb + slack``, if it is within ``max_len`` (gap:
        that length less ``lb + slack``); a ``_prune_ok`` rejection the slack
        alone caused; and a memo hit on a finite slack (gap: one more than
        the slack it holds, less this one).  Below the gap every level
        searches the same branches and fails, so ``failed`` holds the
        largest of them, and ``_INF`` when the subtree has no solution at
        any slack; at the root a failure with no gap proves infeasibility.
        The prune is given the slack this path leaves, the same value the
        recursion gets, so it skips only subtrees that hold no solution
        within it, and the first certificate found is the one a search
        without the bound would find.
        """
        key = (di, used, gused)
        failed_at = self.failed.get(key, -1)
        if failed_at >= slack:
            if failed_at < _INF and failed_at + 1 - slack < self.gap:
                self.gap = failed_at + 1 - slack
            return None
        outer, self.gap = self.gap, _INF
        d = self.demands[di]
        gi = self.gi[di]
        grouped = gi >= 0
        taken = gused[gi] if grouped else 0
        walk = d.walk
        lb, step = d.lb, d.step
        top = lb + slack
        if top > d.max_len:
            top = d.max_len
        last = di + 1 == self.nd
        for limit in range(lb, top + 1, step):
            for pmask, end in walk(used, taken, grouped, limit):
                if last:
                    # nothing is left to prune or route
                    return [pmask]
                nused = used | pmask
                ngused = gused
                if grouped:
                    ngused = gused[:gi] + (taken | end,) + gused[gi + 1 :]
                left = slack - (limit - lb)
                if not self._prune_ok(di + 1, nused, ngused, left):
                    continue
                tail = self._route(di + 1, nused, ngused, left)
                if tail is not None:
                    return [pmask] + tail
        gap = self.gap
        # the next length of the demand's parity, if there is one
        nxt = step - slack % step
        if nxt < gap and lb + slack + nxt <= d.max_len:
            gap = nxt
        self.failed[key] = slack + gap - 1 if gap < _INF else _INF
        self.gap = outer if outer < gap else gap
        return None

    def run(self) -> SolveResult:
        if not self.nd:
            return PathSystem(())
        gused0 = (0,) * self.ngroups
        # no bound here: with no edge used every free distance is its lb
        if not self._prune_ok(0, 0, gused0):
            return Infeasible
        # the prune found a goal within reach of every source, so every lb
        # is finite; the paths are edge-disjoint, so their lengths sum to at
        # most the free edges: no solution spends more slack than this
        cds = self.demands
        budget = min(sum([d.max_len for d in cds]), self.comp.nedges) - sum([d.lb for d in cds])
        slack = 0
        while slack <= budget:
            self.slack, self.gap = slack, _INF
            routed = self._route(0, 0, gused0, slack)
            if routed is not None:
                comp = self.comp
                return PathSystem(
                    tuple(_trace(comp, d.src, mask) for d, mask in zip(self.demands, routed))
                )
            slack += self.gap  # _INF, when nothing was cut off, ends the ladder
        return Infeasible


def _any_free(table: tuple[int, ...], blocked: int) -> bool:
    """Does ``table`` hold a path that meets no bit of ``blocked``?"""
    for m in table:
        if not m & blocked:
            return True
    return False


def _free_ends(table: tuple[int, ...], blocked: int, eshift: int, most: int) -> int:
    """The end bits of the paths of ``table`` that meet no bit of ``blocked``.

    The scan stops once it has every bit of ``most``, the most it can find.
    """
    ends = 0
    for m in table:
        if not m & blocked:
            ends |= m >> eshift
            if ends == most:
                break
    return ends


def _component(sbit: int, flooded: list[int], free: list[tuple[int, int]]) -> int:
    """The free graph's component of the vertex ``sbit``: one in ``flooded``,
    else a new flood, which is added to ``flooded``."""
    for reach in flooded:
        if reach & sbit:
            return reach
    reach = _flood(sbit, free)
    flooded.append(reach)
    return reach


def _hall(rows: list[int]) -> bool:
    """Can each of the non-empty ``rows`` be assigned its own bit?"""
    if len(rows) == 2:
        # Hall's condition for two non-empty rows
        a, b = rows
        return a != b or a & (a - 1) != 0
    return len(rows) < 3 or _has_matching(rows)


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
    """Check a certificate against an instance; reports the first violated clause.

    Plain ``(row, col)`` tuples hash and compare as ``Vertex``; messages name a ``Vertex``.
    A vertex of any other shape fails the check with a message naming its path.
    """
    if not isinstance(cert, PathSystem):
        return _bad("not a path system")
    if len(cert.paths) != len(inst.demands):
        return _bad(
            f"path count mismatch: {len(cert.paths)} paths for {len(inst.demands)} demands"
        )
    present = inst.graph.present_vertices
    gedges = inst.graph.present_edges
    forbidden = inst.forbidden_edges
    seen_edges: set[Edge] = set()
    nseen = 0
    group_ends: dict[int, set[Vertex]] = {}
    i = 0
    try:
        for i, (d, p) in enumerate(zip(inst.demands, cert.paths)):
            if not p:
                return _bad(f"path {i} is empty")
            for v in p:
                if v not in present:
                    return _bad(f"path {i}: absent vertex {vertex(v)}")
            for k in range(len(p) - 1):
                a, b = p[k], p[k + 1]
                e = (a, b) if a <= b else (b, a)
                if e not in gedges:
                    return _bad(f"path {i}: non-adjacent step {vertex(a)} -> {vertex(b)}")
                if forbidden and e in forbidden:
                    return _bad(f"path {i}: forbidden edge {edge(a, b)}")
                # a reused edge leaves the set as it was
                seen_edges.add(e)
                if len(seen_edges) == nseen:
                    return _bad(f"path {i}: edge reuse {edge(a, b)}")
                nseen += 1
            if p[0] != d.source:
                return _bad(f"path {i}: endpoint mismatch, starts at {vertex(p[0])} not {d.source}")
            last = p[-1]
            if d.kind == PAIR:
                if last != d.target:
                    return _bad(f"path {i}: endpoint mismatch, ends at {vertex(last)} not {d.target}")
            elif d.kind == ESCAPE:
                if d.exits is None or last not in d.exits:
                    return _bad(f"path {i}: exit mismatch, ends at {vertex(last)} outside exits")
                if d.distinct_group is not None:
                    ends = group_ends.setdefault(d.distinct_group, set())
                    if last in ends:
                        return _bad(f"path {i}: exit collision at {vertex(last)}")
                    ends.add(last)
            else:
                return _bad(f"demand {i}: unknown kind {d.kind!r}")
    except (TypeError, ValueError) as exc:
        # a vertex that is not a hashable (row, col) pair, e.g. a list
        return _bad(f"path {i}: malformed vertex ({exc})")
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
    pairs = [Demand.pair(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
    for a in range(len(pairs)):
        for bidx in range(a, len(pairs)):
            if solve(Instance(graph, (pairs[a], pairs[bidx]))) is Infeasible:
                return False
    return True
