"""Exact solver for edge-disjoint routing instances on small graphs.

A demand routes its source to any vertex of its exit set; a *pair* is the
demand whose one exit is its target.  Paths of different demands may share
vertices but never edges; an edge no path may use is one the instance's
graph lacks (``GridGraph.without_edges``).  Demands carrying the same
``distinct_group`` id must end at pairwise distinct exits; demands without
a group may pile onto one exit freely.

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
the free graph flooded to see whether it reaches a goal at all.  Demands
that need distinct exits are matched to the exits they are known to reach
(the ends of their free shortest paths, or the goals their growth met),
and their components are flooded only when that matching fails.  Within a
bounded slack those known exits are the open goals at each demand's free
distance, so a group matched on its components but not on them sends some
demand at least one edge farther: with no slack left, that is a cut too.
The paths are edge-disjoint, so a path system spends at most the free
edges less the demands' lower bounds as slack, and the ladder never climbs
above that.

Each level of the slack is a plain depth-first search, and only its
least gap passes to the next.  Every branch the slack alone cuts off
reports its *gap*, the smallest rise in the slack at which it would try
something new.  A level that fails next climbs by the least gap it met
(Korf's rule), since every level below that searches the same branches
and fails the same way.  A level that fails with no gap, or whose least
gap leads above the edge budget, has searched every simple path system
that fits, so it proves the instance infeasible and the search stops
there.  Slack 0 is searched over the shortest-path tables (below) unless
the root's prune, bounded at slack 0, rejects it: the ladder then starts
at the gap of a group whose exits cannot be matched without slack, since
every level below that fails at the root, and a rejection with no gap
proves the instance infeasible.  A slack-0 level with no leaf hands the
ladder slack 1, or slack 2 when every demand's path lengths keep one
parity (its ``step``), since no path can grow by less.  Skipped levels
hold no solution, so the first certificate found is the one a plain
one-level-at-a-time search finds.

Each graph is compiled once to vertex indices and edge bitmasks, and each
demand once per compiled graph, to its goal mask, distance table and
*shortest-path table*: every shortest path from the source to a goal,
found by the depth-first walk's own search with no edge used, each one int
holding the path's edge mask with its end vertex's bit above the edge
bits.  Most levels of the search run at a demand's shortest length, where
its candidates are this table filtered by the edges already used, and the
prune asks the same table whether a shortest path is still free.  A longer
length is searched the first time a demand is walked at it; the second
time, the compiled demand tables it too (its *length table*, built by one
search with no edge used), and from then on filters that table.  A length
with more than ``_TABLE_CAP`` paths is remembered and always searched.
The compiled graph, which holds its compiled demands, is stored on the
graph (``GridGraph.compiled_form``), so repeated solves on one graph object
pay only for the search, and the compiled form is freed with the graph.
The walk and the fixed part of the prune's row live on the compiled demand
(``_CDemand.walk``, ``_CDemand.row``), so a solve adds only each demand's
group slot.

Slack 0 is the level of the tables.  First the root settles: in demand
order, each demand takes the first path of its shortest-path table that
meets no edge taken before it (for a grouped demand, and ends at no exit
its group has taken).  When every demand gets one, that is the answer: it
is the first leaf of the slack-0 level, since the walk yields the table's
free paths in order, every prune on the way passes (each later demand
keeps a free shortest path under more used edges than the prune sees),
and the root's prune passes.  Otherwise, once the root's prune passes,
the search carries on from that dead end over the tables alone
(``_Search._resume``): each demand above it, deepest first, tries the
entries after its pick, and one is kept only when every later demand
keeps a free entry (for a grouped demand, one to an open exit) and each
group's free-entry ends pass Hall's condition.  That check is the prune
at slack 0, where a demand with no free entry, or a group that fails on
those ends, lies beyond the slack, so it grows, floods and gaps nothing.
The prune only skips subtrees that hold no leaf, and leaving the picks
unchecked only searches some such subtrees, so the first leaf found is
the one ``_route`` finds at slack 0.  Only an instance with a demand that
has no table leaves slack 0 to ``_route``.  The settlement descends
unchecked and at the root only, and the backtracking state is built only
at its dead end: checking the descent, or settling at every node of the
search, cost more than it saved.

The last demand is settled from its table: once the demand before it has
committed a path, a free shortest path of the last demand (for a grouped
demand, one to an exit not yet taken) completes the certificate, since it
is the path the prune would pass and the walk would yield first.  With no
such path the last demand grows once to its free distance, as the prune
would, and the first path its walk yields at that length completes the
certificate, unless the length lies beyond the slack.

The search itself carries edge masks and end bits, never vertex paths;
``run`` traces each demand's path from its source along its edge mask once
it has a solution, by incidence masks: the one edge of the mask at the
current vertex is the next step, and XOR with its two end indices crosses
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import islice
from typing import Iterable, Optional, Union

from .grid import GridGraph, Path, Vertex, edge, vertex

_INF = 10 ** 9

# A demand with more shortest paths than this gets no table: its walk at
# the shortest length searches, and the prune floods (a 6x6 pair has at
# most C(10, 5) = 252)
_TABLE_CAP = 1024

# The states of a length in ``_CDemand.tables`` that hold no table: walked
# once, and holding more than ``_TABLE_CAP`` paths
_ASKED_ONCE = "asked once"
_BEYOND_CAP = "beyond the cap"


@dataclass(frozen=True)
class Demand:
    """One routing demand: a path from ``source`` to any vertex of ``exits``,
    ending at an exit no other demand of its ``distinct_group`` ends at.
    Build with ``Demand.pair`` / ``Demand.escape``.  A pair is the demand
    with one exit, its target: ``Demand.pair(s, t) is Demand.escape(s, [t])``.

    Those two hand out one shared object per demand value from their caches
    (see ``_shared``), kept for the life of the process, so a demand is built
    (and its exit set hashed) once however often it is named.  Sharing is
    safe because a demand is frozen.  A ``Demand(...)`` built directly is
    equal to the shared one, not it.
    """

    source: Vertex
    exits: frozenset[Vertex]
    distinct_group: Optional[int] = None

    @staticmethod
    def pair(source: Iterable[int], target: Iterable[int]) -> "Demand":
        try:
            return _pair(source, target)
        except TypeError:  # a coordinate given as a list
            return _demand(vertex(source), frozenset((vertex(target),)), None)

    @staticmethod
    def escape(
        source: Iterable[int],
        exits: Iterable[Iterable[int]],
        distinct_group: Optional[int] = None,
    ) -> "Demand":
        # an iterator hashes by identity: key any other iterable by its value
        if type(exits) is not tuple and type(exits) is not frozenset:
            exits = frozenset(map(vertex, exits))
        try:
            return _escape(source, exits, distinct_group)
        except TypeError:
            return _demand(vertex(source), frozenset(map(vertex, exits)), distinct_group)


# Demands are shared at two levels, each kept for the life of the process:
# by their normalised fields (``_shared``), and by the arguments as given to
# ``Demand.pair`` (``_pair``) or ``Demand.escape`` (``_escape``), so that
# every spelling of one value finds the same object and a spelling seen
# before skips the normalising.
_shared = cache(Demand)


def _demand(source: Vertex, exits: frozenset[Vertex], group: Optional[int]) -> Demand:
    """The shared demand with these normalised fields."""
    try:
        return _shared(source, exits, group)
    except TypeError:  # a coordinate that cannot be hashed: build, don't share
        return Demand(source, exits, group)


@cache
def _pair(source: Iterable[int], target: Iterable[int]) -> Demand:
    return _demand(vertex(source), frozenset((vertex(target),)), None)


@cache
def _escape(source: Iterable[int], exits: Iterable[Iterable[int]], group: Optional[int]) -> Demand:
    return _demand(vertex(source), frozenset(map(vertex, exits)), group)


@dataclass(frozen=True)
class Instance:
    graph: GridGraph
    demands: tuple[Demand, ...]

    def __post_init__(self):
        if type(self.demands) is not tuple:
            object.__setattr__(self, "demands", tuple(self.demands))


@dataclass(frozen=True)
class PathSystem:
    """One vertex sequence per demand, in demand order."""

    paths: tuple[Path, ...]

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, i: int) -> Path:
        return self.paths[i]


class InfeasibleType(Enum):
    """The one answer for an instance with no path system (a value, not an
    error): falsy, and a single member, so it pickles to itself."""

    Infeasible = "Infeasible"

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "Infeasible"

    __str__ = __repr__


Infeasible = InfeasibleType.Infeasible

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
    ``_TABLE_CAP`` paths, empty when no goal is reachable); it is built as
    the length table of ``lb``.  ``short`` is the union of their edge masks
    and ``near`` of their end bits (both 0 without a table).  ``adj`` and
    ``eshift`` are the graph's (see ``_Compiled``), for ``walk``.  ``row``
    is the demand's part of a prune row, ``(source bit, goal, lb, short,
    near, table)``; a solve adds the group slot.

    ``table`` also settles the last demand of a search (see
    ``_Search._route``).

    ``tables`` holds the *length tables* of the lengths above ``lb``, keyed
    by ``limit << 1 | grouped`` (None until the first such walk): every
    path of that many edges the walk finds with no edge used and no exit
    taken, in the walk's order and stored as ``table`` stores them.  A
    length gets its table the second time it is walked; until then it
    holds ``_ASKED_ONCE``, and ``_BEYOND_CAP`` when it has more than
    ``_TABLE_CAP`` paths, so that it keeps being searched.  The tables grow
    with the solves on the graph and are freed with it.
    """

    __slots__ = ("src", "goal", "dist", "lb", "step", "max_len", "table", "short", "near", "adj",
                 "eshift", "row", "tables")

    def __init__(self, src, goal, dist, step, max_len, adj, eshift):
        self.src = src
        self.goal = goal
        self.dist = dist
        self.lb = dist[src]
        self.step = step
        self.max_len = max_len
        self.adj = adj
        self.eshift = eshift
        # the shortest length's table, from the walk's own search; a goal out
        # of reach has no shortest path, and no search is started for it
        table = self._length_table(False, self.lb) if self.lb < _INF else ()
        self.table = table = None if table is _BEYOND_CAP else table
        union = 0
        for m in table or ():
            union |= m
        self.near = union >> eshift
        self.short = union ^ self.near << eshift
        self.row = (1 << src, goal, self.lb, self.short, self.near, table)
        self.tables = None

    def walk(self, used: int, taken: int, grouped: bool, limit: int):
        """Iterate ``(edge_mask, end_bit)`` over every simple path of exactly
        ``limit`` edges from the source to a goal over edges not in ``used``,
        depth first with neighbours in (row, col) order.  A ``grouped``
        demand may not end at an exit in ``taken``.

        A length with a table filters it: a path is free when its mask meets
        neither ``used`` nor, above ``eshift``, the taken exits, and no
        adjacency is read.  Used edges only remove paths from the depth-first
        order, and taken exits only remove path ends, so the filtered table
        yields the paths the search would, in its order.  A shortest path
        meets no goal before its end, so ``table`` serves both kinds of walk.
        Any other length is searched (see ``_search``).
        """
        table = self.table if limit == self.lb else self._longer(grouped, limit)
        if table is None:
            return self._search(used, taken, grouped, limit)
        return _free_paths(table, used | taken << self.eshift, self.eshift)

    def _longer(self, grouped: bool, limit: int) -> Optional[tuple[int, ...]]:
        """The length table of ``limit`` edges, built at its second walk;
        None while the length is searched."""
        tables = self.tables
        if tables is None:
            tables = self.tables = {}
        key = limit << 1 | grouped
        table = tables.get(key)
        if table is None:
            tables[key] = _ASKED_ONCE
        elif table is _ASKED_ONCE:
            table = tables[key] = self._length_table(grouped, limit)
        return table if table.__class__ is tuple else None

    def _length_table(self, grouped: bool, limit: int):
        """The paths of ``limit`` edges, searched with nothing used, as a
        table; ``_BEYOND_CAP`` beyond ``_TABLE_CAP`` paths."""
        eshift = self.eshift
        table = []
        for mask, end in self._search(0, 0, grouped, limit):
            if len(table) == _TABLE_CAP:
                return _BEYOND_CAP
            table.append(mask | end << eshift)
        return tuple(table)

    def _search(self, used: int, taken: int, grouped: bool, limit: int):
        """``walk``'s paths, found by a depth-first search of the adjacency.

        An ungrouped demand's path may be cut at its first exit, so it is
        not continued past one.  A vertex farther from the goals than the
        length left is not entered, so a vertex at the last step is a goal.
        An edge to an unvisited vertex cannot be one of the path's own.  In
        a bipartite graph with goals of one colour the length left and that
        distance always have one parity, so ``step`` is the only parity
        test.
        """
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
    built once per graph.
    """

    def __init__(self, graph: GridGraph):
        self.verts = sorted(graph.present_vertices)
        self.vindex = {v: i for i, v in enumerate(self.verts)}
        self.nv = len(self.verts)
        pairs = [(self.vindex[u], self.vindex[v]) for u, v in graph.present_edges]
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
        key = (d.source, d.exits)
        cd = self._demands.get(key)
        if cd is None:
            cd = self._demands[key] = self.compile_demand(d)
        return cd

    def compile_demand(self, d: Demand) -> _CDemand:
        vindex = self.vindex
        if d.source not in vindex:
            raise ValueError(f"demand source {d.source} not in graph")
        src = vindex[d.source]
        if not d.exits:
            raise ValueError("demand with empty exit set")
        bad = [x for x in d.exits if x not in vindex]
        if bad:
            raise ValueError(f"demand exits not in graph: {sorted(bad)}")
        goals = tuple(sorted(vindex[x] for x in d.exits))
        goal = 0
        for g in goals:
            goal |= 1 << g
        step = 1
        if self.coloring is not None and len({self.coloring[g] for g in goals}) == 1:
            step = 2
        # the only simple s,s-path is the trivial one
        max_len = 0 if goals == (src,) else self.nv - 1
        dist = self.distances(goals)
        return _CDemand(src, goal, dist, step, max_len, self.adj, self.eshift)


def _trace(comp: "_Compiled", src: int, mask: int) -> Path:
    """The vertices of the simple path from ``src`` whose edges are ``mask``;
    an end bit above the edge bits, as a table entry stores it, is ignored."""
    verts, inc, other = comp.verts, comp.inc, comp.other
    u, path = src, [verts[src]]
    b = mask & inc[u]
    while b:
        mask ^= b
        u ^= other[b]
        path.append(verts[u])
        b = mask & inc[u]
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


def _compiled(graph: GridGraph) -> _Compiled:
    """The compiled form of ``graph``, stored on the graph."""
    return graph.compiled_form


class _Search:
    def __init__(self, inst: Instance):
        self.comp = comp = _compiled(inst.graph)
        self.eshift = comp.eshift
        demand = comp.demand
        # per demand: the compiled demand, its group slot (-1 without a
        # group) and (the compiled demand's row, group slot) for
        # _prune_ok
        self.demands = cds = []
        self.gi = gi = []
        self.rows = rows = []
        slots: dict = {}
        lbs = longest = 0
        for d in inst.demands:
            cd = demand(d)
            g = -1
            if d.distinct_group is not None:
                g = slots.setdefault(d.distinct_group, len(slots))
            cds.append(cd)
            gi.append(g)
            rows.append((cd.row, g))
            lbs += cd.lb
            longest += cd.max_len
        self.nd = len(cds)
        self.ngroups = len(slots)
        # the paths are edge-disjoint, so their lengths sum to at most the
        # free edges: no solution spends more slack than this (finite once
        # the prune has found a goal within reach of every source)
        self.budget = min(longest, comp.nedges) - lbs
        # the least rise in the slack at which a branch of the level being
        # searched would try something new; _INF when nothing was cut off
        # (see _route)
        self.gap = _INF
        # the last slack level of the last run: 0 for a run that slack 0
        # answered over the tables, settled at the root or not (see
        # _resume), else the last level searched, having climbed by the
        # gaps; None when the root's prune proved the instance infeasible,
        # or lifted the ladder above the edge budget, before any level
        self.slack: Optional[int] = None

    # ------------------------------- feasibility prunes after each commit --

    def _prune_ok(
        self, j0: int, used: int, gused: tuple[int, ...], slack: Optional[int] = None
    ) -> bool:
        """Can demands j0.. still be routed over unused edges within ``slack``?

        A demand's free distance is the length of its shortest path over the
        free edges to an open goal (for a grouped demand, an exit not in
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
        for a group that fails on its witnesses.  With a finite slack every
        witness row is exactly the open exits at its demand's free distance,
        which the slack was charged for, so a group that fails only on its
        witness rows sends some demand at least one edge farther: once the
        slack is spent, the node is rejected.

        A rejection that the slack alone caused lowers ``self.gap`` to the
        layers the first demand beyond the slack needed past it: below that
        rise the demands before it spend the same and it still lies beyond.
        A group that fails only on its witness rows lowers it to 1.  An
        unreachable goal or a failed Hall check on the full rows rejects at
        every slack, so it leaves ``self.gap`` alone.

        A node whose demands all keep a free shortest path builds nothing:
        the free edges, with the list of flooded components, are built at
        their first use, and the witness rows, one list for all groups, at
        the first grouped demand.
        """
        # the free edges per lane, and the components flooded over them
        free = flooded = None
        wit = None  # the witness row of each grouped demand, in order
        gap = 0
        eshift = self.eshift
        for (sbit, goal, lb, short, near, table), gi in self.rows[j0:]:
            if gi >= 0:
                taken = gused[gi]
                goal &= ~taken
                # the ends of the free shortest paths to open goals, if any:
                # with them the demand spends none of the slack
                row = goal & near
                if row and used & short:
                    row = _free_ends(table, used | taken << eshift, eshift)
            elif goal & near and (not used & short or _first_free(table, used)):
                # a shortest path to a goal is still free: the free distance
                # is lb, so the demand spends none of the slack
                continue
            else:
                row = 0
            if not row:
                if free is None:
                    free, flooded = self.comp.free_lanes(used), []
                if slack is not None:
                    reach, far = _grow(sbit, goal, free)
                    if not reach:
                        return False
                    left = lb + slack - far
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
            if wit is None:
                wit = [row]
            else:
                wit.append(row)
        if wit is not None and len(wit) > 1:
            for g, rows in enumerate((wit,) if self.ngroups == 1 else self._by_group(j0, wit)):
                if _hall(rows):
                    continue
                # widen each row of the group to every open exit its source reaches
                if free is None:
                    free, flooded = self.comp.free_lanes(used), []
                taken = gused[g]
                rows = [
                    goal & ~taken & _component(sbit, flooded, free)
                    for (sbit, goal, *_), gi in self.rows[j0:]
                    if gi == g
                ]
                if not _hall(rows):
                    return False
                if slack == 0:
                    # the witness rows are the open goals at the free
                    # distances, so distinct exits spend at least 1 more
                    gap = 1
        if gap:
            if gap < self.gap:
                self.gap = gap
            return False
        return True

    def _by_group(self, j0: int, wit: list[int]) -> list[list[int]]:
        """The witness rows ``wit`` of the grouped demands j0.. split by group slot."""
        slots = [gi for _, gi in self.rows[j0:] if gi >= 0]
        return [[row for row, gi in zip(wit, slots) if gi == g] for g in range(self.ngroups)]

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

        When demand di + 1 is the last, each path of demand di first asks
        the last demand's table for a free shortest path (for a grouped
        demand, one to an exit its group has not taken).  One completes the
        certificate: it is the path the prune would pass and the last
        demand's walk would yield first, so neither is run.  Without one,
        the last demand grows over the free edges to its free distance f
        (``_grow``, the prune's growth).  No goal within reach rejects the
        path; f beyond ``lb + slack`` of the last demand rejects it with the
        gap f - (lb + slack); otherwise no shorter path is free, and the
        first path its walk yields at length f completes the certificate.

        On failure ``self.gap`` has been lowered to the least rise in the
        slack at which some branch of this subtree would try something new,
        and is left alone if none would.  Two things cut a branch off:
        demand di's next length of its parity above ``lb + slack``, if it is
        within ``max_len`` (gap: that length less ``lb + slack``), and a
        rejection the slack alone caused, by ``_prune_ok`` or by the last
        demand's growth.  A rise in the root's slack raises every node's
        slack by as much, so below the least gap a level searches the same
        branches and fails the same way (Korf's rule); at the root a
        failure with no gap proves infeasibility.  The prune is given the
        slack this path leaves, the same value the recursion gets, so it
        skips only subtrees that hold no solution within it, and the first
        certificate found is the one a search without the bound would find.
        """
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
        # the last demand's table, when it comes next, and its group slot
        settle = self.demands[di + 1].table if di + 2 == self.nd else None
        if settle is not None:
            eshift = self.eshift
            sd, sgi = self.demands[di + 1], self.gi[di + 1]
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
                if settle is not None:
                    staken = ngused[sgi] if sgi >= 0 else 0
                    m = _first_free(settle, nused | staken << eshift)
                    if m:
                        return [pmask, m ^ (m >> eshift) << eshift]
                    # no free shortest path: the last demand's first path
                    # lies at its free distance, if that is within the slack
                    reach, far = _grow(1 << sd.src, sd.goal & ~staken, self.comp.free_lanes(nused))
                    if not reach:
                        continue
                    over = far - sd.lb - left
                    if over > 0:
                        if over < self.gap:
                            self.gap = over
                        continue
                    return [pmask, next(sd.walk(nused, staken, sgi >= 0, far))[0]]
                if not self._prune_ok(di + 1, nused, ngused, left):
                    continue
                tail = self._route(di + 1, nused, ngused, left)
                if tail is not None:
                    return [pmask] + tail
        # the next length of the demand's parity, if there is one
        nxt = step - slack % step
        if nxt < self.gap and lb + slack + nxt <= d.max_len:
            self.gap = nxt
        return None

    def _settle(self) -> list[int]:
        """In demand order, each demand takes the first free entry of its
        shortest-path table (for a grouped demand, one to an exit its group
        has not taken).  Returns the entries taken: one per demand when all
        get one, the first leaf of the slack-0 level; else those before the
        first demand with no table or no free entry, the *dead end*.
        """
        eshift = self.eshift
        used = 0
        gused = [0] * self.ngroups
        picks = []
        for cd, gi in zip(self.demands, self.gi):
            table = cd.table
            if table is None:
                return picks
            blocked = used | gused[gi] << eshift if gi >= 0 else used
            # _first_free, inlined: most solves on the grid settle here
            for m in table:
                if not m & blocked:
                    break
            else:
                return picks
            end = m >> eshift
            used |= m ^ end << eshift
            picks.append(m)
            if gi >= 0:
                gused[gi] |= end
        return picks

    def _resume(self, picks: list[int]) -> Optional[list[int]]:
        """The first leaf of the slack-0 level, as table entries, carried on
        from the dead end of ``_settle``, which took ``picks``; None when the
        level has none.  Every demand has a non-empty table (the root's
        prune passed).  Each demand above the dead end, deepest first, tries
        the entries of its table after its pick (see ``_tabled``): the ones
        before it are not free.  The picks were never checked ahead, so a
        subtree the prune would skip may be searched, and holds no leaf.
        """
        eshift = self.eshift
        gis = self.gi
        # the used edges and group exits before each pick
        before = []
        used, gused = 0, (0,) * self.ngroups
        for m, gi in zip(picks, gis):
            before.append((used, gused))
            end = m >> eshift
            used |= m ^ end << eshift
            if gi >= 0:
                gused = gused[:gi] + (gused[gi] | end,) + gused[gi + 1 :]
        for di in range(len(picks) - 1, -1, -1):
            table = self.demands[di].table
            used, gused = before[di]
            tail = self._tabled(di, used, gused, islice(table, table.index(picks[di]) + 1, None))
            if tail is not None:
                return picks[:di] + tail
        return None

    def _tabled(self, di: int, used: int, gused: tuple[int, ...], entries) -> Optional[list[int]]:
        """Route demands di.. at slack 0 over their shortest-path tables,
        demand di trying ``entries`` of its table in order.  Returns the
        table entry of each demand's path, or None.

        This is ``_route`` at slack 0 when every demand has a table: its
        walk yields the free entries of the table, in order, and its prune
        at slack 0 passes exactly when ``_ahead_ok`` does.  Demand di + 1,
        when it is the last, takes the first free entry of its table.
        """
        eshift = self.eshift
        gi = self.gi[di]
        blocked = used
        if gi >= 0:
            taken = gused[gi]
            blocked |= taken << eshift
        nxt = di + 1
        if nxt + 1 == self.nd:
            table = self.demands[nxt].table
            lgi = self.gi[nxt]
            for m in entries:
                if m & blocked:
                    continue
                end = m >> eshift
                lblocked = used | m ^ end << eshift
                if lgi >= 0:
                    lblocked |= (gused[lgi] | end if lgi == gi else gused[lgi]) << eshift
                # _first_free, inlined: most entries tried here are tried for it
                for last in table:
                    if not last & lblocked:
                        return [m, last]
            return None
        for m in entries:
            if m & blocked:
                continue
            end = m >> eshift
            nused = used | m ^ end << eshift
            ngused = gused
            if gi >= 0:
                ngused = gused[:gi] + (taken | end,) + gused[gi + 1 :]
            if self._ahead_ok(nxt, nused, ngused):
                tail = self._tabled(nxt, nused, ngused, self.demands[nxt].table)
                if tail is not None:
                    return [m] + tail
        return None

    def _ahead_ok(self, j0: int, used: int, gused: tuple[int, ...]) -> bool:
        """``_prune_ok(j0, used, gused, 0)`` when every demand has a table:
        does each demand j0.. keep a free table entry (for a grouped demand,
        one to an exit its group has not taken), and do the ends of a
        group's free entries pass Hall's condition?  No flood, no growth
        and no gap: a demand without a free entry lies beyond slack 0, and
        so does a group that fails on those ends.  An ungrouped demand's
        empty table would pass, which the root's prune rules out.
        """
        eshift = self.eshift
        wit = None  # the free-entry ends of each grouped demand, in order
        for (sbit, goal, lb, short, near, table), gi in self.rows[j0:]:
            if gi < 0:
                if used & short and not _first_free(table, used):
                    return False
                continue
            taken = gused[gi]
            row = goal & ~taken & near
            if row and used & short:
                row = _free_ends(table, used | taken << eshift, eshift)
            if not row:
                return False
            if wit is None:
                wit = [row]
            else:
                wit.append(row)
        if wit is not None and len(wit) > 1:
            for rows in (wit,) if self.ngroups == 1 else self._by_group(j0, wit):
                if not _hall(rows):
                    return False
        return True

    def run(self) -> SolveResult:
        if not self.nd:
            return PathSystem(())
        routed = self._settle()
        if len(routed) == self.nd:
            self.slack = 0
        else:
            gused0 = (0,) * self.ngroups
            # with no edge used every free distance is its lb, so at slack 0
            # only a group whose witness rows fail Hall's condition cuts with
            # a gap: the ladder starts there, and a rejection with no gap ends it
            if not self._prune_ok(0, 0, gused0, 0):
                routed, slack = None, self.gap
            elif any(cd.table is None for cd in self.demands):
                routed, slack = None, 0
            else:
                self.slack = 0
                routed = self._resume(routed)
                if routed is None:
                    # no path system spends slack 0: the next level lengthens
                    # some path, by 2 when every demand keeps one parity
                    slack = 1 if any(cd.step == 1 for cd in self.demands) else 2
            if routed is None:
                budget = self.budget
                while True:
                    if slack > budget:
                        return Infeasible
                    self.slack, self.gap = slack, _INF
                    routed = self._route(0, 0, gused0, slack)
                    if routed is not None:
                        break
                    slack += self.gap  # _INF, when nothing was cut off, ends the ladder
        comp = self.comp
        paths = []
        for d, mask in zip(self.demands, routed):
            paths.append(_trace(comp, d.src, mask))
        return PathSystem(tuple(paths))


def _free_paths(table: tuple[int, ...], blocked: int, eshift: int):
    """Yield ``(edge_mask, end_bit)`` of each path of ``table`` that meets no
    bit of ``blocked``, in the table's order."""
    for m in table:
        if not m & blocked:
            end = m >> eshift
            yield m ^ end << eshift, end


def _first_free(table: tuple[int, ...], blocked: int) -> int:
    """The first path of ``table`` that meets no bit of ``blocked``, else 0
    (a table path is never 0: its end bit is set)."""
    for m in table:
        if not m & blocked:
            return m
    return 0


def _free_ends(table: tuple[int, ...], blocked: int, eshift: int) -> int:
    """The end bits of the paths of ``table`` that meet no bit of ``blocked``."""
    ends = 0
    for m in table:
        if not m & blocked:
            ends |= m >> eshift
    return ends


def _grow(reach: int, goal: int, free: list[tuple[int, int]]) -> tuple[int, int]:
    """Grow the vertex mask ``reach`` over free edges a layer at a time until
    it meets ``goal``; returns the grown mask and the number of layers, the
    free distance.  ``(0, _INF)`` when it stops growing first: no goal is
    within reach."""
    far = 0
    while not reach & goal:
        grown = reach
        for k, low in free:
            grown |= (reach & low) << k | (reach >> k) & low
        if grown == reach:
            return 0, _INF
        reach, far = grown, far + 1
    return reach, far


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
    return all(_assign(needs, owner, r, set()) for r in range(len(needs)))


def _assign(needs: list[int], owner: dict[int, int], r: int, taboo: set[int]) -> bool:
    """Give row ``r`` a bit by an augmenting path; ``owner`` maps bits to
    rows.  Not a closure, so that a call leaves no reference cycle."""
    m = needs[r]
    while m:
        b = m & -m
        m ^= b
        if b in taboo:
            continue
        taboo.add(b)
        if b not in owner or _assign(needs, owner, owner[b], taboo):
            owner[b] = r
            return True
    return False


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


_OK = VerifyResult(True)


def verify(inst: Instance, cert: PathSystem) -> VerifyResult:
    """Check a certificate against an instance; reports the first violated clause.

    Plain ``(row, col)`` tuples hash and compare as ``Vertex``; messages name a ``Vertex``.
    A vertex of any other shape fails the check with a message naming its path.

    A path with an absent vertex is scanned to name the first one.  Each
    step of any other path is looked up in the graph's step table
    (``GridGraph.steps``): a step not in it is non-adjacent, and a step
    whose edge bit is already in the mask of the edges walked so far
    reuses that edge.
    """
    if not isinstance(cert, PathSystem):
        return _bad("not a path system")
    if len(cert.paths) != len(inst.demands):
        return _bad(
            f"path count mismatch: {len(cert.paths)} paths for {len(inst.demands)} demands"
        )
    present = inst.graph.present_vertices
    steps = inst.graph.steps
    walked = 0  # the edge bits of the paths checked so far
    group_ends: dict[int, set[Vertex]] = {}
    i = 0
    try:
        for i, (d, p) in enumerate(zip(inst.demands, cert.paths)):
            if not p:
                return _bad(f"path {i} is empty")
            if not present.issuperset(p):
                for v in p:
                    if v not in present:
                        return _bad(f"path {i}: absent vertex {vertex(v)}")
            for k in range(len(p) - 1):
                a, b = p[k], p[k + 1]
                bit = steps.get((a, b))
                if bit is None:
                    return _bad(f"path {i}: non-adjacent step {vertex(a)} -> {vertex(b)}")
                if walked & bit:
                    return _bad(f"path {i}: edge reuse {edge(a, b)}")
                walked |= bit
            if p[0] != d.source:
                return _bad(f"path {i}: endpoint mismatch, starts at {vertex(p[0])} not {d.source}")
            last = p[-1]
            if last not in d.exits:
                return _bad(f"path {i}: exit mismatch, ends at {vertex(last)} outside exits")
            if d.distinct_group is not None:
                ends = group_ends.setdefault(d.distinct_group, set())
                if last in ends:
                    return _bad(f"path {i}: exit collision at {vertex(last)}")
                ends.add(last)
    except (TypeError, ValueError) as exc:
        # a vertex that is not a hashable (row, col) pair, e.g. a list
        return _bad(f"path {i}: malformed vertex ({exc})")
    return _OK
