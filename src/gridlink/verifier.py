"""Campaign driver: one table of campaigns, each with its domain, runner and census.

``_CAMPAIGNS`` holds every campaign: the lemmas L1-L10, P1-matching, the
solver/flow escape agreement and 4-path-pairability.  A campaign enumerates
its domain in a fixed order, hands each instance to its runner, and
re-checks every returned certificate with the independent routing
verifier.  Its row also gives its census, the domain's size and the count
of each documented exceptional tag, and a report conforms only if it
reproduces that census.  A report carries its campaign, worker count and
all, yet its body is a pure function of the campaign's id (and
pairability's sample count and seed): records aggregate in enumeration
order, and the wall-clock ``elapsed`` is excluded from comparisons.

The lemma campaigns run in the upper-left quadrant (its local and global
coordinate systems coincide); the grid's symmetries carry every result to
the other three corners.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import partial
from itertools import combinations, combinations_with_replacement, islice, product, starmap
from random import Random
from typing import Any, Callable, Iterable, Iterator, Optional

from .flow import escape_flow
from .grid import (
    SYMMETRIES,
    Corner,
    Vertex,
    adjusted_quadrant,
    landmarks,
    make_grid,
    quadrant,
    vertex,
)
from .lemmas import (
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
    weak_2_linkages,
)
from .routing import (
    Demand,
    Infeasible,
    Instance,
    solve,
    verify,
)

_GRID = make_grid(6, 6)
_UL = quadrant(_GRID, Corner.UL)
_LM = landmarks(_UL)
_LOCAL = tuple(sorted(_UL.vertices))
_FULL = tuple(sorted(_GRID.present_vertices))
_Q0 = adjusted_quadrant("Q0")
_ADJUSTED = {kind: adjusted_quadrant(kind) for kind in ("Q1", "Q2", "Q3", "Q4")}

_PSI_MAPS = (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B"))

# The lemmas' statements in their own terms (UL-local): the line A is the
# quadrant's row 3 and B its column 3.  The L1-L3 and L10 runners build
# their demands from these, so that each certificate is checked against
# the statement rather than against the lemma's output.
_L10_LINES = {
    "A": frozenset(Vertex(3, j) for j in (1, 2, 3)),
    "B": frozenset(Vertex(i, 3) for i in (1, 2, 3)),
}
_A_SET = _L10_LINES["A"]
_B_OFF_A = _L10_LINES["B"] - _A_SET
# L1-L3: every terminal not linked escapes to a distinct exit on A or B
_A_OR_B = _A_SET | _L10_LINES["B"]

# Lemma 9's two exceptional terminal sets and their admissible linked
# terminals, in quadrant-local coordinates (frozen by the exhaustive run).
T1 = frozenset({Vertex(1, 1), Vertex(2, 1), Vertex(3, 1)})
T2 = frozenset({Vertex(1, 1), Vertex(1, 2), Vertex(1, 3), Vertex(2, 3)})
T1_ADMISSIBLE = frozenset({Vertex(1, 1), Vertex(2, 1)})
T2_ADMISSIBLE = frozenset({Vertex(1, 3), Vertex(2, 3)})


@dataclass(frozen=True)
class Campaign:
    """A verification run: which campaign, which slice of its domain, how wide.

    Every campaign but pairability sweeps its whole domain.  Pairability
    draws ``samples`` seeded placements, or without a sample count sweeps
    the reduced domain.  Every rule on these fields is checked here and
    nowhere else."""

    lemma_id: str
    samples: Optional[int] = None
    seed: Optional[int] = None
    workers: int = 1

    @property
    def strategy(self) -> str:
        """The report's name for the slice: exhaustive, random or reduced."""
        if self.lemma_id != "pairability":
            return "exhaustive"
        return "reduced" if self.samples is None else "random"

    def __post_init__(self) -> None:
        if self.lemma_id not in _CAMPAIGNS:
            raise ValueError(f"unknown campaign id {self.lemma_id!r}")
        # a float passes the range checks and fails mid-run; a bool runs as 0 or 1
        if self.samples is not None and type(self.samples) is not int:
            raise ValueError(f"samples must be an int, got {self.samples!r}")
        # Random("1") draws other placements than Random(1) yet prints as seed 1
        if self.seed is not None and type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if type(self.workers) is not int:
            raise ValueError(f"workers must be an int, got {self.workers!r}")
        if self.strategy == "random":
            if self.seed is None:
                raise ValueError("the random strategy requires an explicit seed")
            if self.samples is None or self.samples < 1:
                raise ValueError("the random strategy requires samples >= 1")
        elif self.seed is not None:
            raise ValueError(
                f"the {self.strategy} strategy draws nothing, so it takes no seed"
            )
        elif self.samples is not None:
            raise ValueError(
                f"the {self.strategy} strategy draws nothing, so it takes no sample count"
            )
        limit = os.cpu_count() or 1  # checked before any process starts
        if not 1 <= self.workers <= limit:
            raise ValueError(f"workers must be between 1 and {limit}, got {self.workers}")


# ----------------------------------------------------------- degenerate laws

def _local_degree(v: Vertex) -> int:
    return 2 + (1 < v.row < 3) + (1 < v.col < 3)


def degenerate_reason(s1, t1, s2, s3, psi) -> Optional[str]:
    """Name the law making this placement infeasible, or None.

    Two local obstructions cover every infeasible instance of the
    link-plus-escorts domain (checked exhaustively): a vertex asked to
    emit more positive-length paths than it has edges, and the pair path
    pinned across a full boundary-distant line with both escorts starting
    at its midpoint.  Every placement outside both laws is feasible.
    """
    s1, t1, s2, s3 = vertex(s1), vertex(t1), vertex(s2), vertex(s3)
    if s2 != s3:
        # Both laws need the escorts to share a start.  A vertex ends at most
        # one path of the pair and one of each escort, and has degree 2 or
        # more, so only the shared start of both escorts can be overloaded;
        # the line cuts start both escorts at one midpoint.
        return None
    line2, line3 = psi
    ends = int((s1 == s2) != (t1 == s2))
    ends += int(s2 not in _L10_LINES[line2]) + int(s2 not in _L10_LINES[line3])
    if ends > _local_degree(s2):
        return f"degree overload at {tuple(s2)}"
    if {s1, t1} == {Vertex(1, 1), Vertex(1, 3)} and s2 == (1, 2) and line2 == line3 == "A":
        return "line cut across the far row"
    if {s1, t1} == {Vertex(1, 1), Vertex(3, 1)} and s2 == (2, 1) and line2 == line3 == "B":
        return "line cut down the far column"
    return None


# ------------------------------------------------------------- enumerations

def _matchings(seq):
    if not seq:
        yield ()
        return
    first, rest = seq[0], list(seq[1:])
    for i, other in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, other),) + tail


def _iter_l1() -> Iterator:
    for chosen in combinations(_LOCAL, 8):
        for pairs in _matchings(list(chosen)):
            yield (pairs, ())
    for chosen in combinations(_LOCAL, 7):
        for single in chosen:
            rest = [v for v in chosen if v != single]
            for pairs in _matchings(rest):
                yield (pairs, (single,))


def _iter_l2() -> Iterator:
    for chosen in combinations(_LOCAL, 6):
        for pairs in _matchings(list(chosen)):
            yield (pairs, ())
        for singles in combinations(chosen, 2):
            rest = [v for v in chosen if v not in singles]
            for pairs in _matchings(rest):
                yield (pairs, singles)


def _iter_l3() -> Iterator:
    for pair in combinations(_LOCAL, 2):
        others = [v for v in _LOCAL if v not in pair]
        for singles in combinations(others, 3):
            yield ((pair,), singles)


def _iter_l4() -> Iterator:
    for k in range(3, 7):
        yield ("strip", k)
    for k in range(3, 7):
        yield ("lshape", k)


def _iter_l5() -> Iterator:
    for s1, s2 in product(_LOCAL, repeat=2):
        for alpha in (0, 1):
            yield (s1, s2, alpha)


def _iter_l6() -> Iterator:
    for a, b, c in combinations(_LOCAL, 3):
        yield (a, b, c)
        yield (a, c, b)
        yield (b, c, a)


def _iter_l7() -> Iterator:
    for triple in combinations(_LOCAL, 3):
        yield ("i",) + triple
    for triple in combinations(_LOCAL, 3):
        for z in (_LM.x0, _LM.y0):
            yield ("ii",) + triple + (z,)


def _iter_l8() -> Iterator:
    for kind in ("Q1", "Q2", "Q3", "Q4"):
        for triple in combinations(sorted(_ADJUSTED[kind].graph.present_vertices), 3):
            yield ("i", kind) + triple
    for s1, t1, s2 in product(_LOCAL, repeat=3):
        yield ("ii", s1, t1, s2)
    for triple in combinations(_LOCAL, 3):
        yield ("iii",) + triple
    for doubled in _LOCAL:
        if doubled in _A_SET:
            continue
        for third in _LOCAL:
            if third != doubled:
                yield ("iii", doubled, doubled, third)


def _iter_l9() -> Iterator:
    for k in (1, 2, 3, 4):
        for T in combinations(_LOCAL, k):
            for s in T:
                yield (T, s)


def _iter_l10() -> Iterator:
    for s1, t1, s2, s3 in product(_LOCAL, repeat=4):
        for psi in _PSI_MAPS:
            yield (s1, t1, s2, s3, psi)


def _iter_p1_matching() -> Iterator:
    """Every clamp catalog configuration that applies to an L10 placement.

    The catalog does not depend on the line map, so placements are taken
    without one: (s1, t1, s2, s3)."""
    for inst in product(_LOCAL, repeat=4):
        for config in catalog_configurations(*inst):
            yield (inst, config)


def _iter_escape_family() -> Iterator:
    """All-escape instances implied by the L8 and L9 domains: the Fig. 4
    shared-escape triples, the distinct-exit multisets, and every escape
    remainder T - {s} from the projection lemma."""
    for inst in _iter_l8():
        if inst[0] == "i":
            yield (inst[1], inst[2:], False)
        elif inst[0] == "iii":
            yield ("Q0", inst[1:], True)
    seen = set()
    for T, s in _iter_l9():
        rest = tuple(sorted(set(T) - {s}))
        if rest and rest not in seen:
            seen.add(rest)
            yield ("Q0", rest, False)


def sample_pairability(rng: Random) -> tuple[tuple[Vertex, Vertex], ...]:
    """Draw eight distinct vertices (partial Fisher-Yates over the grid)
    and pair them consecutively."""
    pool = list(_FULL)
    for i in range(8):
        j = rng.randrange(i, len(pool))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(zip(pool[0:8:2], pool[1:8:2]))


def iter_pairability_reduced() -> Iterator[tuple[tuple[Vertex, Vertex], ...]]:
    """All four-pair placements whose vertex set is minimal in its orbit
    under the grid's eight symmetries.  This stream has on the order of
    4 x 10^8 members; it exists for the opt-in exhaustive run only."""
    for combo in combinations(_FULL, 8):
        if any(tuple(sorted(t(v) for v in combo)) < combo for t in SYMMETRIES[1:]):
            continue
        yield from _matchings(list(combo))


def enumerate_instances(
    lemma_id: str, samples: Optional[int] = None, seed: Optional[int] = None
) -> Iterable:
    """The campaign's instances: its whole domain, as a list, or
    pairability's ``samples`` seeded uniform draws (a list), or without a
    sample count its lazy reduced sweep ``iter_pairability_reduced()``."""
    strategy = Campaign(lemma_id, samples, seed).strategy  # validates the arguments
    if strategy == "random":
        rng = Random(seed)
        return [sample_pairability(rng) for _ in range(samples)]
    instances = _CAMPAIGNS[lemma_id][0]()
    return instances if strategy == "reduced" else list(instances)


# ------------------------------------------------------------------ runners
#
# Each runner takes one instance and returns None when the lemma's claim is
# witnessed and independently re-verified, or a (tag, instance, detail)
# record otherwise.  A lemma operation answers as ``solve`` does, with a
# ``PathSystem`` or the falsy ``Infeasible``, and the runner's ``if not`` says
# what a missing one is: a "defect", an L9 "refusal" or an L10 "degenerate"
# placement (the last two are documented in the campaign table).  ``_check``
# verifies certificates against demands built from the instance and the
# statement, never from the lemma's output, and fails ``Infeasible`` itself
# (so L8, reading nothing first, needs no ``if``).  What a runner must read
# off a certificate, it reads off its paths: a frame's are the mating paths
# of s1 and s2, then the third terminal's, so the anchor is where the first
# ends and the framed pair and third terminal are where they start; a
# crowded quadrant's are the linked pairs, then the escapes in pair order,
# then the singles, so the linked pairs are those whose target starts no
# path.

_NO_CERTIFICATE = "no certificate"


def _check(inst, graph, demands, paths):
    if verify(Instance(graph, demands), paths):
        return None
    return ("defect", inst, "certificate failed the independent check")


def _defect(inst, got, detail):
    """The defect record of an answer a runner rejected on an end it read
    before ``verify`` saw it.  A vertex that is not a ``(row, col)`` pair of
    ints (a list, say) can fail such a read, or fail it misleadingly, so the
    record names the first one, as ``verify`` would; else it gives
    ``detail``.  A runner asks only once an end has failed it, so a
    well-formed answer never pays for the scan."""
    for i, p in enumerate(got):
        for v in p:
            if not (isinstance(v, tuple) and len(v) == 2 and all(type(c) is int for c in v)):
                return ("defect", inst, f"path {i}: malformed vertex {v!r}")
    return ("defect", inst, detail)


def _run_crowded(inst, variant):
    pairs, singles = inst
    got = crowded_escape(_UL, pairs, singles, variant)
    if not got:
        return ("defect", inst, _NO_CERTIFICATE)
    try:
        starts = {p[0] for p in got if p}  # an empty path is left to ``verify``
    except TypeError:  # an unhashable start
        return _defect(inst, got, "unreadable path start")
    linked = [i for i, (_, t) in enumerate(pairs) if t not in starts]
    if len(linked) < (2 if variant == 1 else 1):
        return ("defect", inst, "too few pairs linked")
    rest = [v for i, pair in enumerate(pairs) if i not in linked for v in pair] + list(singles)
    demands = [Demand.pair(*pairs[i]) for i in linked] + [
        Demand.escape(v, _A_OR_B, distinct_group=0) for v in rest
    ]
    found = _check(inst, _UL.graph, demands, got)
    if found or variant == 1:
        return found
    if sum(p[-1] in _B_OFF_A for p in got.paths[len(linked):]) > 1:
        return ("defect", inst, "more than one exit off A")
    return None


def _l4_graph(kind: str, k: int):
    if kind == "strip":
        return make_grid(3, k)
    g = make_grid(k, k)
    return g.without_vertices([v for v in g.present_vertices if v.row > 2 and v.col > 2])


def _run_l4(inst):
    graph = _l4_graph(*inst)
    answers = weak_2_linkages(graph)
    # every choice of two pairs of distinct vertices, in the operation's order
    pairs = combinations(sorted(graph.present_vertices), 2)
    for first, second in combinations_with_replacement(pairs, 2):
        got = next(answers, Infeasible)
        if not got:
            return ("defect", inst, "graph is not weakly 2-linked")
        found = _check(inst, graph, (Demand.pair(*first), Demand.pair(*second)), got)
        if found:
            return found
    return None


def _unreadable(inst, got, count):
    """A defect record unless ``got`` is ``count`` non-empty paths, whose
    ends a frame runner reads before ``verify`` sees them; else None."""
    if not got:
        return ("defect", inst, _NO_CERTIFICATE)
    if len(got.paths) != count or not all(got.paths):
        return ("defect", inst, f"answer is not {count} non-empty paths")
    return None


def _run_l5(inst):
    s1, s2, alpha = inst
    got = build_frame(_UL, s1, s2, alpha)
    bad = _unreadable(inst, got, 2)
    if bad:
        return bad
    anchor = got[0][-1]
    if anchor not in _UL.rings[alpha]:
        return _defect(inst, got, f"anchor {anchor} is not on C{alpha}")
    demands = (Demand.pair(s1, anchor), Demand.pair(s2, anchor))
    return _check(inst, _UL.mating_graph, demands, got)


def _check_framing(got, inst, terms, alpha=None, third_targets=None):
    """Check a framing of the three terminals ``terms`` against the statement:
    two of them mate to an anchor on C_alpha, the third to ``third_targets``.
    Without ``alpha`` (L6) C_alpha is the ring that holds the anchor, and the
    third terminal mates to the other ring."""
    bad = _unreadable(inst, got, 3)
    if bad:
        return bad
    a, b, c = starts = tuple(p[0] for p in got)
    # the three terminals are distinct, so they are the starts when each is
    # one; unlike sorting, this cannot fail on a start that is a list
    if any(t not in starts for t in terms):
        return _defect(inst, got, "framed pair and third are not the instance's terminals")
    anchor = got[0][-1]
    if alpha is None:
        alpha = int(anchor not in _UL.rings[0])  # C0 and C1 share no vertex
        third_targets = _UL.rings[1 - alpha]
    if anchor not in _UL.rings[alpha]:
        return _defect(inst, got, f"anchor {anchor} is not on C{alpha}")
    demands = (Demand.pair(a, anchor), Demand.pair(b, anchor), Demand.escape(c, third_targets))
    return _check(inst, _UL.mating_graph, demands, got)


def _run_l6(inst):
    return _check_framing(frame_two_mate_third(_UL, *inst), inst, inst)


def _run_l7(inst):
    terms = inst[1:4]
    if inst[0] == "i":
        return _check_framing(frame_c0_mate_c1(_UL, *terms), inst, terms, 0, _UL.rings[1])
    z = inst[4]
    return _check_framing(frame_c1_mate_corner(_UL, *terms, z), inst, terms, 1, (z,))


def _run_l8(inst):
    tag = inst[0]
    adj = _ADJUSTED[inst[1]] if tag == "i" else _Q0
    if tag == "i":
        terms = inst[2:]
        got = escape_three_shared(adj, *terms)
        demands = tuple(Demand.escape(t, adj.A) for t in terms)
    elif tag == "ii":
        s1, t1, s2 = inst[1:]
        got = link_and_escape(adj, s1, t1, s2)
        demands = (Demand.pair(s1, t1), Demand.escape(s2, adj.A))
    else:
        terms = inst[1:]
        got = escape_three_distinct(adj, *terms)
        demands = tuple(Demand.escape(t, adj.A, distinct_group=0) for t in terms)
    return _check(inst, adj.graph, demands, got)


def _run_l9(inst):
    T, s = inst
    got = project_with_b_link(_Q0, T, s)
    if not got:
        return ("refusal", inst, "no projection with this linked terminal")
    demands = (Demand.pair(s, Vertex(2, 3)),) + tuple(
        Demand.escape(t, _Q0.A) for t in sorted(set(T) - {s})
    )
    return _check(inst, _Q0.graph, demands, got)


def _run_l10(inst):
    s1, t1, s2, s3, psi = inst
    reason = degenerate_reason(s1, t1, s2, s3, psi)
    got = link_pair_escort_singletons(_UL, s1, t1, s2, s3, psi)
    if not got:
        if reason:
            return ("degenerate", inst, reason)
        return ("defect", inst, "infeasible with no certifying law")
    if reason:
        return ("defect", inst, f"feasible although a law predicts otherwise: {reason}")
    demands = (
        Demand.pair(s1, t1),
        Demand.escape(s2, _L10_LINES[psi[0]], distinct_group=0),
        Demand.escape(s3, _L10_LINES[psi[1]], distinct_group=0),
    )
    return _check(inst, _UL.graph, demands, got)


def _run_p1_matching(item):
    inst, (name, p1, y2, y3, pi0) = item
    try:
        got = clamp_matching(list(p1), y2, y3, pi0)
    except ValueError as exc:
        return ("defect", inst, f"catalog clamps violate the matching precondition: {exc}")
    valid = [
        (first, second)
        for first, second in ((y2, y3), (y3, y2))
        if pi0[0] in first.vertices and pi0[1] in second.vertices
    ]
    if got is None:
        if valid:
            return ("defect", inst, f"{name}: no match although an assignment exists")
        return None
    if got not in valid:
        return ("defect", inst, f"{name}: assignment misses a singleton")
    return None


def _run_escape_agreement(item):
    kind, terms, distinct = item
    adj = _Q0 if kind == "Q0" else _ADJUSTED[kind]
    group = 0 if distinct else None
    inst = Instance(
        adj.graph,
        tuple(Demand.escape(t, adj.A, distinct_group=group) for t in terms),
    )
    by_search = solve(inst)
    by_flow = escape_flow(adj.graph, terms, adj.A, distinct)
    if (by_search is Infeasible) != (by_flow is Infeasible):
        return ("defect", item, "solver and flow oracle disagree")
    if by_search is not Infeasible:
        if not verify(inst, by_search) or not verify(inst, by_flow):
            return ("defect", item, "certificate failed the independent check")
    return None


def _run_pairability(pairs):
    inst = Instance(_GRID, tuple(starmap(Demand.pair, pairs)))
    sol = solve(inst)
    if sol is Infeasible:
        return ("counterexample", pairs, "no 4-pair linkage")
    if not verify(inst, sol):
        return ("defect", pairs, "certificate failed the independent check")
    return None


# Every campaign: (enumerate its domain, run one instance, the domain's size,
# each documented exceptional tag -> its count).  Pairability's size is None:
# it draws samples, or sweeps its reduced domain lazily.
_CAMPAIGNS: dict[str, tuple[Callable[[], Iterator], Callable, Optional[int], dict[str, int]]] = {
    "L1": (_iter_l1, partial(_run_crowded, variant=1), 4725, {}),
    "L2": (_iter_l2, partial(_run_crowded, variant=2), 5040, {}),
    "L3": (_iter_l3, partial(_run_crowded, variant=3), 1260, {}),
    "L4": (_iter_l4, _run_l4, 8, {}),
    "L5": (_iter_l5, _run_l5, 162, {}),
    "L6": (_iter_l6, _run_l6, 252, {}),
    "L7": (_iter_l7, _run_l7, 252, {}),
    "L8": (_iter_l8, _run_l8, 1085, {}),
    "L9": (_iter_l9, _run_l9, 837, {"refusal": 67}),
    "L10": (_iter_l10, _run_l10, 26244, {"degenerate": 100}),
    "P1-matching": (_iter_p1_matching, _run_p1_matching, 5751, {}),
    "escape-agreement": (_iter_escape_family, _run_escape_agreement, 485, {}),
    "pairability": (iter_pairability_reduced, _run_pairability, None, {}),
}
LEMMA_IDS = tuple(_CAMPAIGNS)[:-1]  # every campaign but pairability


# ----------------------------------------------------------------- campaign

@dataclass(frozen=True)
class LemmaReport:
    """One run of a campaign: the campaign, the instances it checked, and
    each exceptional record in enumeration order; ``feasible`` is derived.
    ``elapsed`` is wall-clock seconds, excluded from report comparisons."""

    campaign: Campaign
    instances_checked: int
    exceptional: tuple[Any, ...] = ()
    elapsed: float = 0.0

    @property
    def feasible(self) -> int:
        return self.instances_checked - len(self.exceptional)

    @property
    def clean(self) -> bool:
        return not self.exceptional


def drive(campaign: Campaign, runner: Callable, instances: Iterable) -> LemmaReport:
    """Run every instance and aggregate the runner's records, in enumeration order.

    A record is None for a witnessed claim, else a (tag, instance, detail)
    triple; the runner alone decides which.  Results stream from ``map``
    with one worker and from ``_pooled`` otherwise.  Only the runs are
    timed: a finite campaign builds its instance list before calling this.
    """
    workers = campaign.workers
    checked, exceptional = 0, []
    start = time.perf_counter()
    for rec in map(runner, instances) if workers == 1 else _pooled(runner, instances, workers):
        checked += 1
        if rec is not None:
            exceptional.append(rec)
    return LemmaReport(campaign, checked, tuple(exceptional), time.perf_counter() - start)


class WorkerDied(RuntimeError):
    """A campaign's worker process ended before it returned its results."""


def _run_chunk(run: Callable, chunk: list) -> list:
    return [run(item) for item in chunk]


def _pooled(run: Callable, instances: Iterable, workers: int) -> Iterator:
    """``map(run, instances)`` over ``workers`` processes, in order.

    Instances go out in chunks of 64 (few for Ctrl-C to wait on, enough to
    keep the pickling cheap), at most two per worker at a time, so a lazy
    stream is read only as fast as it is run.  A worker that dies raises
    ``WorkerDied`` here instead of leaving its chunk unanswered.  Workers
    are spawned, not forked, since the pool's own threads run in this
    process, and they ignore Ctrl-C: the parent alone stops, and cancels
    the chunks not yet started.
    """
    # imported here, where a pool runs: at module level they add about 1.5 MB
    # to the peak RSS of a campaign with one worker
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    items = iter(instances)
    chunks = iter(lambda: list(islice(items, 64)), [])
    pool = ProcessPoolExecutor(
        workers,
        multiprocessing.get_context("spawn"),
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        window = deque(pool.submit(_run_chunk, run, c) for c in islice(chunks, 2 * workers))
        while window:
            done = window.popleft().result()
            window.extend(pool.submit(_run_chunk, run, c) for c in islice(chunks, 1))
            yield from done
    except BrokenProcessPool:
        raise WorkerDied("a worker process died before the campaign finished") from None
    finally:
        pool.shutdown(cancel_futures=True)


def run_campaign(campaign: Campaign) -> LemmaReport:
    """Enumerate the campaign's instances and drive them through its runner."""
    instances = enumerate_instances(campaign.lemma_id, campaign.samples, campaign.seed)
    return drive(campaign, _CAMPAIGNS[campaign.lemma_id][1], instances)


def verify_lemma(lemma_id: str, strategy: str = "exhaustive", workers: int = 1) -> LemmaReport:
    """Run one lemma's exhaustive campaign and aggregate its report.

    A lemma always runs exhaustively.  ``strategy`` accepts only
    "exhaustive": the campaign benchmark (``perfbench/workloads.py``) still
    passes it positionally, so it stays until that benchmark changes."""
    if strategy != "exhaustive":
        raise ValueError(f"a lemma campaign is exhaustive, got strategy {strategy!r}")
    if lemma_id == "pairability":
        raise ValueError("pairability is not a lemma: use pairability_check")
    return run_campaign(Campaign(lemma_id, workers=workers))


# placements a pairability run draws when no sample count is given
PAIRABILITY_SAMPLES = 100000


def pairability_check(
    samples: int = PAIRABILITY_SAMPLES, seed: Optional[int] = None, workers: int = 1
) -> LemmaReport:
    """Solve ``samples`` seeded 4-pair placements on the full grid and
    report counterexamples.  The reduced exhaustive sweep is the campaign
    ``Campaign("pairability")``, with no sample count."""
    if samples is None:
        raise ValueError("pairability_check draws samples: give a sample count")
    return run_campaign(Campaign("pairability", samples, seed, workers))


def escape_agreement_check(workers: int = 1) -> LemmaReport:
    """Cross-check the backtracking solver against the flow oracle on the
    all-escape family; any disagreement is a defect."""
    return run_campaign(Campaign("escape-agreement", workers=workers))


# ------------------------------------------------------------- L9 families

def exceptional_families(report: LemmaReport):
    """Terminal sets whose working linked-terminal count drops below the
    guaranteed min(3, |T|), with their working sets, from an L9 report."""
    if report.campaign.lemma_id != "L9":
        raise ValueError(f"expected an L9 report, got {report.campaign.lemma_id!r}")
    refused = defaultdict(set)
    for tag, (T, s), _ in report.exceptional:
        if tag == "refusal":
            refused[frozenset(T)].add(s)
    families = []
    for T, bad in refused.items():
        working = frozenset(T) - bad
        if len(working) < min(3, len(T)):
            families.append((T, working))
    return tuple(sorted(families, key=lambda fam: sorted(fam[0])))


def report_conforms(report: LemmaReport) -> bool:
    """Does the report reproduce its campaign's documented census?

    It must check exactly the domain's size, where the campaign table gives
    one, or else the sample count its campaign asked for (the reduced
    sweep has neither), and carry exactly the documented exceptional tags
    with their counts: none for most campaigns, L9's 67 refusals, L10's
    100 degenerate placements.  L9's refusals must moreover yield exactly the two known
    families, with their admissible linked terminals, and none may fall on
    a set avoiding A and the far corner.
    """
    campaign = report.campaign
    _, _, size, documented = _CAMPAIGNS[campaign.lemma_id]
    size = campaign.samples if size is None else size
    if size is not None and report.instances_checked != size:
        return False
    if Counter(tag for tag, _, _ in report.exceptional) != documented:
        return False
    if campaign.lemma_id != "L9":
        return True
    blocked = set(_A_SET) | {Vertex(1, 1)}
    if any(not set(T) & blocked for _, (T, _s), _ in report.exceptional):
        return False
    return dict(exceptional_families(report)) == {T1: T1_ADMISSIBLE, T2: T2_ADMISSIBLE}


# ------------------------------------------------------------------ reports

_EXCLUDED_MARK = "# the line below is wall-clock time, excluded from byte comparisons"


def _fmt_vertices(vs) -> str:
    return " ".join(f"({v[0]},{v[1]})" for v in vs)


def _fmt_value(obj) -> str:
    if isinstance(obj, tuple) and obj and all(
        isinstance(x, tuple) and len(x) == 2 and all(isinstance(c, int) for c in x)
        for x in obj
    ):
        return _fmt_vertices(obj)
    if isinstance(obj, tuple):
        return "[" + ", ".join(_fmt_value(x) for x in obj) + "]"
    return str(obj)


def format_report(report: LemmaReport) -> str:
    """Render a campaign report; identical inputs give identical bytes."""
    campaign = report.campaign
    documented = _CAMPAIGNS[campaign.lemma_id][3]
    tags = Counter(tag for tag, _, _ in report.exceptional)
    defects = sum(n for tag, n in tags.items() if tag not in documented)
    lines = [
        f"campaign: {campaign.lemma_id}",
        f"strategy: {campaign.strategy}",
        f"seed: {campaign.seed if campaign.seed is not None else 'none'}",
        f"instances: {report.instances_checked}",
        f"feasible: {report.feasible}",
    ]
    for tag in sorted(tags):
        lines.append(f"exceptional[{tag}]: {tags[tag]}")
    lines.append(f"defects: {defects}")
    conforming = report_conforms(report)
    lines.append(f"status: {'conforming' if conforming else 'defective'}")
    if campaign.lemma_id == "L9" and conforming:
        for terms, working in sorted(
            exceptional_families(report), key=lambda fam: fam[0] != T1
        ):
            label = "T1" if terms == T1 else "T2"
            lines.append(
                f"family {label}: {_fmt_vertices(sorted(terms))}"
                f" | working {_fmt_vertices(sorted(working))}"
            )
    if campaign.lemma_id == "L10":
        reasons = Counter(
            detail for tag, _, detail in report.exceptional if tag == "degenerate"
        )
        for reason in sorted(reasons):
            lines.append(f"degenerate[{reason}]: {reasons[reason]}")
    for tag, inst, detail in report.exceptional:
        if tag not in documented:
            lines.append(f"defect: {tag} instance={_fmt_value(inst)} detail={detail}")
    lines.append(_EXCLUDED_MARK)
    lines.append(f"elapsed_seconds: {report.elapsed:.3f}")
    return "\n".join(lines) + "\n"


def report_body(text: str) -> str:
    """The comparable part of a report: everything above the timing mark."""
    return text.split(_EXCLUDED_MARK, 1)[0]
