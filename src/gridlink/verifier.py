"""Campaign driver: exhaustive lemma sweeps and the 4-path-pairability check.

Every lemma's quantified domain is enumerated in a fixed order, each
instance is handed to its lemma operation, and every returned certificate
is re-checked with the independent routing verifier.  Reports aggregate in
enumeration order regardless of worker count, so a report is a pure
function of (lemma id, strategy, seed); wall-clock time lives in the
``elapsed`` field, which consumers must exclude from comparisons.

Campaigns run in the upper-left quadrant (its local and global coordinate
systems coincide); the grid's symmetries carry every result to the other
three corners.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from multiprocessing import Pool
from random import Random
from typing import Callable, Iterable, Iterator, Optional

from .flow import escape_flow
from .grid import (
    C0_RING,
    C1_RING,
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
    LemmaDefect,
    LemmaReport,
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
from .routing import (
    Demand,
    Infeasible,
    Instance,
    PathSystem,
    is_weakly_2_linked,
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
_C1_IN_Q = frozenset(
    e for e in _LM.C1 if e[0] in _UL.vertices and e[1] in _UL.vertices
)
# the vertices of C0 and C1 inside the quadrant, sorted: where L5-L7 anchor
_RING_IN_Q = {
    alpha: tuple(sorted(v for v in ring if v in _UL.vertices))
    for alpha, ring in enumerate((C0_RING, C1_RING))
}

# The lemmas' statements in their own terms (UL-local): the line A is the
# quadrant's row 3 and B its column 3.  Every demand an L1-L3 or L10
# instance can name is built once from these, so that each certificate is
# checked against the statement rather than against the lemma's output.
_L10_LINES = {
    "A": frozenset(Vertex(3, j) for j in (1, 2, 3)),
    "B": frozenset(Vertex(i, 3) for i in (1, 2, 3)),
}
_A_SET = _L10_LINES["A"]
_B_OFF_A = _L10_LINES["B"] - _A_SET
_L10_PAIRS = {(s, t): Demand.pair(s, t) for s in _LOCAL for t in _LOCAL}
_L10_ESCORTS = {
    (s, line): Demand.escape(s, exits, distinct_group=0)
    for s in _LOCAL
    for line, exits in _L10_LINES.items()
}
# L1-L3: every terminal not linked escapes to a distinct exit on A or B
_CROWDED_ESCAPES = {
    s: Demand.escape(s, _L10_LINES["A"] | _L10_LINES["B"], distinct_group=0) for s in _LOCAL
}

STRATEGIES = ("exhaustive", "reduced", "random")

# Lemma 9's two exceptional terminal sets and their admissible linked
# terminals, in quadrant-local coordinates (frozen by the exhaustive run).
T1 = frozenset({Vertex(1, 1), Vertex(2, 1), Vertex(3, 1)})
T2 = frozenset({Vertex(1, 1), Vertex(1, 2), Vertex(1, 3), Vertex(2, 3)})
T1_ADMISSIBLE = frozenset({Vertex(1, 1), Vertex(2, 1)})
T2_ADMISSIBLE = frozenset({Vertex(1, 3), Vertex(2, 3)})


@dataclass(frozen=True)
class Campaign:
    """A verification run: which lemma, which slice of its domain, how wide.

    Every rule on these fields is checked here and nowhere else."""

    lemma_id: str
    strategy: str = "exhaustive"
    samples: Optional[int] = None
    seed: Optional[int] = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.lemma_id not in LEMMA_IDS and self.lemma_id != "pairability":
            raise ValueError(f"unknown lemma id {self.lemma_id!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.lemma_id == "pairability" and self.strategy == "exhaustive":
            raise ValueError("pairability has no exhaustive strategy: use random or reduced")
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
        _check_workers(self.workers)


def _check_workers(workers: int) -> None:
    """Reject a worker count outside 1..cpu_count before any process starts."""
    limit = os.cpu_count() or 1
    if not 1 <= workers <= limit:
        raise ValueError(f"workers must be between 1 and {limit}, got {workers}")


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
    line2, line3 = psi
    for v in {s1, t1, s2, s3}:
        ends = int((s1 == v) != (t1 == v))
        ends += int(s2 == v and v not in _L10_LINES[line2])
        ends += int(s3 == v and v not in _L10_LINES[line3])
        if ends > _local_degree(v):
            return f"degree overload at {tuple(v)}"
    if s2 == s3:
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


# ------------------------------------------------------- symmetry reduction

_t = SYMMETRIES[4]  # the transpose: maps the UL quadrant onto itself, swapping A and B

_SWAP_LINE = {"A": "B", "B": "A"}


def _canon_crowded(inst):
    pairs, singles = inst
    return (
        tuple(sorted(tuple(sorted(p)) for p in pairs)),
        tuple(sorted(singles)),
    )


def transpose_instance(lemma_id: str, inst):
    """Image of an instance under the quadrant transpose, or None when the
    lemma's domain is not closed under it (b, y0, the B-side condition and
    the Fig. 4 graphs all break the symmetry)."""
    if lemma_id == "L1":
        pairs, singles = inst
        return (
            tuple((_t(s), _t(t)) for s, t in pairs),
            tuple(_t(v) for v in singles),
        )
    if lemma_id == "L5":
        s1, s2, alpha = inst
        return (_t(s1), _t(s2), alpha)
    if lemma_id == "L6":
        a, b, c = (_t(v) for v in inst)
        return (min(a, b), max(a, b), c)
    if lemma_id == "L7" and inst[0] == "i":
        return ("i",) + tuple(sorted(_t(v) for v in inst[1:]))
    if lemma_id == "L10":
        s1, t1, s2, s3, (p2, p3) = inst
        return (_t(s1), _t(t1), _t(s2), _t(s3), (_SWAP_LINE[p2], _SWAP_LINE[p3]))
    return None


def _is_representative(lemma_id: str, inst) -> bool:
    image = transpose_instance(lemma_id, inst)
    if image is None:
        return True
    if lemma_id == "L1":
        return _canon_crowded(inst) <= _canon_crowded(image)
    return inst <= image


def enumerate_instances(
    lemma_id: str,
    strategy: str = "exhaustive",
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Iterable:
    """The campaign's instances: all of them, transpose-orbit
    representatives, or seeded uniform draws (with replacement).

    A lemma's instances and pairability's seeded draws come as a list; the
    reduced pairability sweep is the lazy ``iter_pairability_reduced()``.
    """
    Campaign(lemma_id, strategy, samples, seed)  # validates the arguments
    if lemma_id == "pairability":
        if strategy == "reduced":
            return iter_pairability_reduced()
        rng = Random(seed)
        return [sample_pairability(rng) for _ in range(samples)]
    base = _CAMPAIGNS[lemma_id][0]()
    if strategy == "exhaustive":
        return list(base)
    if strategy == "reduced":
        return [inst for inst in base if _is_representative(lemma_id, inst)]
    pool = list(base)
    rng = Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(samples)]


# ------------------------------------------------------------------ runners
#
# Each runner takes one instance and returns None when the lemma's claim is
# witnessed and independently re-verified, or a (tag, instance, detail)
# record otherwise.  "defect" contradicts the lemma; the documented
# exceptional outcomes below, "refusal" (L9) and "degenerate" (L10), do not.
# ``drive`` records a LemmaDefect raised by any runner as a defect; only L10
# catches its own, since a placement it cannot route is data (degenerate).
# Certificates are verified by ``_check`` against demands built from the
# instance and the statement's constants, never from the lemma's output.

_DOCUMENTED_TAGS = ("refusal", "degenerate")


def _guarded(runner, inst):
    try:
        return runner(inst)
    except LemmaDefect as exc:
        return ("defect", inst, str(exc))


def _check(inst, graph, demands, paths, forbidden=frozenset()):
    if verify(Instance(graph, demands, forbidden), paths):
        return None
    return ("defect", inst, "certificate failed the independent check")


def _run_crowded(inst, variant):
    pairs, singles = inst
    res = crowded_escape(_UL, pairs, singles, variant)
    linked = res.linked
    if len(set(linked)) != len(linked) or not set(linked) <= set(range(len(pairs))):
        return ("defect", inst, "linked indices are not distinct pairs of the instance")
    if len(linked) < (2 if variant == 1 else 1):
        return ("defect", inst, "too few pairs linked")
    rest = [v for i, pair in enumerate(pairs) if i not in linked for v in pair] + list(singles)
    demands = [_L10_PAIRS[pairs[i]] for i in linked] + [_CROWDED_ESCAPES[v] for v in rest]
    found = _check(inst, _UL.graph, demands, res.paths)
    if found or variant == 1:
        return found
    if sum(p[-1] in _B_OFF_A for p in res.paths.paths[len(linked):]) > 1:
        return ("defect", inst, "more than one exit off A")
    return None


def _l4_graph(kind: str, k: int):
    if kind == "strip":
        return make_grid(3, k)
    g = make_grid(k, k)
    return g.without_vertices([v for v in g.present_vertices if v.row > 2 and v.col > 2])


def _run_l4(inst):
    kind, k = inst
    if is_weakly_2_linked(_l4_graph(kind, k)):
        return None
    return ("defect", inst, "graph is not weakly 2-linked")


def _run_l5(inst):
    s1, s2, alpha = inst
    f = build_frame(_UL, s1, s2, alpha)
    if f.anchor not in _RING_IN_Q[alpha]:
        return ("defect", inst, f"anchor {f.anchor} is not on C{alpha}")
    demands = (Demand.pair(s1, f.anchor), Demand.pair(s2, f.anchor))
    return _check(inst, _UL.graph, demands, PathSystem(f.mating_paths), _C1_IN_Q)


def _check_framing(res, inst, terms, third_targets):
    """Check a framing of the three terminals ``terms`` against the statement."""
    a, b = res.framed_pair
    if sorted((a, b, res.third)) != sorted(terms):
        return ("defect", inst, "framed pair and third are not the instance's terminals")
    if res.frame.anchor not in _RING_IN_Q.get(res.alpha, ()):
        return ("defect", inst, f"anchor {res.frame.anchor} is not on C{res.alpha}")
    demands = (
        Demand.pair(a, res.frame.anchor),
        Demand.pair(b, res.frame.anchor),
        Demand.escape(res.third, third_targets),
    )
    paths = PathSystem(res.frame.mating_paths + (res.mating_path,))
    return _check(inst, _UL.graph, demands, paths, _C1_IN_Q)


def _run_l6(inst):
    res = frame_two_mate_third(_UL, *inst)
    return _check_framing(res, inst, inst, _RING_IN_Q.get(1 - res.alpha, ()))


def _run_l7(inst):
    terms = inst[1:4]
    if inst[0] == "i":
        res = frame_c0_mate_c1(_UL, *terms)
        if res.alpha != 0:
            return ("defect", inst, "frame is not on C0")
        return _check_framing(res, inst, terms, _RING_IN_Q[1])
    z = inst[4]
    res = frame_c1_mate_corner(_UL, *terms, z)
    if res.alpha != 1:
        return ("defect", inst, "frame is not on C1")
    return _check_framing(res, inst, terms, (z,))


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
    try:
        got = link_pair_escort_singletons(_UL, s1, t1, s2, s3, psi)
    except LemmaDefect:
        got = None
    if got is None:
        if reason:
            return ("degenerate", inst, reason)
        return ("defect", inst, "infeasible with no certifying law")
    if reason:
        return ("defect", inst, f"feasible although a law predicts otherwise: {reason}")
    demands = (_L10_PAIRS[s1, t1], _L10_ESCORTS[s2, psi[0]], _L10_ESCORTS[s3, psi[1]])
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
    if got is NoMatch:
        if valid:
            return ("defect", inst, f"{name}: NoMatch although an assignment exists")
        return None
    if got not in valid:
        return ("defect", inst, f"{name}: assignment misses a singleton")
    return None


_CAMPAIGNS: dict[str, tuple[Callable[[], Iterator], Callable]] = {
    "L1": (_iter_l1, partial(_run_crowded, variant=1)),
    "L2": (_iter_l2, partial(_run_crowded, variant=2)),
    "L3": (_iter_l3, partial(_run_crowded, variant=3)),
    "L4": (_iter_l4, _run_l4),
    "L5": (_iter_l5, _run_l5),
    "L6": (_iter_l6, _run_l6),
    "L7": (_iter_l7, _run_l7),
    "L8": (_iter_l8, _run_l8),
    "L9": (_iter_l9, _run_l9),
    "L10": (_iter_l10, _run_l10),
    "P1-matching": (_iter_p1_matching, _run_p1_matching),
}
LEMMA_IDS = tuple(_CAMPAIGNS)


# ----------------------------------------------------------------- campaign

def drive(
    lemma_id: str,
    runner: Callable,
    instances: Iterable,
    workers: int,
    strategy: str = "exhaustive",
    seed: Optional[int] = None,
) -> LemmaReport:
    """Run every instance and aggregate the results, in enumeration order.

    Results stream from ``map`` with one worker and from ``Pool.imap``
    otherwise.  A ``LemmaDefect`` raised by the runner is recorded as a
    defect.  Only the runs are timed: a finite campaign builds its
    instance list before calling this.
    """
    _check_workers(workers)
    chunk = max(1, len(instances) // (workers * 8)) if isinstance(instances, list) else 64
    run = partial(_guarded, runner)
    checked, exceptional = 0, []
    start = time.perf_counter()
    with (Pool(workers) if workers > 1 else nullcontext()) as pool:
        results = map(run, instances) if pool is None else pool.imap(run, instances, chunk)
        for rec in results:
            checked += 1
            if rec is not None:
                exceptional.append(rec)
    return LemmaReport(
        lemma_id=lemma_id,
        instances_checked=checked,
        feasible=checked - len(exceptional),
        exceptional=tuple(exceptional),
        elapsed=time.perf_counter() - start,
        strategy=strategy,
        seed=seed,
    )


def run_campaign(campaign: Campaign) -> LemmaReport:
    """Look up the campaign's runner, enumerate its instances, drive them."""
    # pairability is the one campaign outside the lemma table
    _, runner = _CAMPAIGNS.get(campaign.lemma_id, (None, _run_pairability))
    instances = enumerate_instances(
        campaign.lemma_id, campaign.strategy, campaign.samples, campaign.seed
    )
    return drive(
        campaign.lemma_id, runner, instances, campaign.workers, campaign.strategy, campaign.seed
    )


def verify_lemma(
    lemma_id: str,
    strategy: str = "exhaustive",
    workers: int = 1,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> LemmaReport:
    """Run one lemma's campaign and aggregate its report."""
    return run_campaign(Campaign(lemma_id, strategy, samples, seed, workers))


# ------------------------------------------------------------- L9 families

def exceptional_families(report: LemmaReport):
    """Terminal sets whose working linked-terminal count drops below the
    guaranteed min(3, |T|), with their working sets, from an L9 report."""
    if report.lemma_id != "L9":
        raise ValueError(f"expected an L9 report, got {report.lemma_id!r}")
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
    """Does the report match the lemma's documented truth?

    For most lemmas that means no exceptional entries at all.  L9 must
    yield exactly the two known families (with their admissible linked
    terminals, and no refusal on sets avoiding A and the far corner); L10
    must classify every infeasible placement under a degeneracy law.
    """
    if report.lemma_id == "L9":
        if any(tag != "refusal" for tag, _, _ in report.exceptional):
            return False
        blocked = set(_A_SET) | {Vertex(1, 1)}
        for _, (T, _s), _ in report.exceptional:
            if not set(T) & blocked:
                return False
        families = dict(exceptional_families(report))
        return families == {T1: T1_ADMISSIBLE, T2: T2_ADMISSIBLE}
    if report.lemma_id == "L10":
        return all(tag == "degenerate" for tag, _, _ in report.exceptional)
    return not report.exceptional


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
    tags = Counter(tag for tag, _, _ in report.exceptional)
    defects = sum(n for tag, n in tags.items() if tag not in _DOCUMENTED_TAGS)
    lines = [
        f"campaign: {report.lemma_id}",
        f"strategy: {report.strategy}",
        f"seed: {report.seed if report.seed is not None else 'none'}",
        f"instances: {report.instances_checked}",
        f"feasible: {report.feasible}",
    ]
    for tag in sorted(tags):
        lines.append(f"exceptional[{tag}]: {tags[tag]}")
    lines.append(f"defects: {defects}")
    conforming = report_conforms(report)
    lines.append(f"status: {'conforming' if conforming else 'defective'}")
    if report.lemma_id == "L9" and conforming:
        for terms, working in sorted(
            exceptional_families(report), key=lambda fam: fam[0] != T1
        ):
            label = "T1" if terms == T1 else "T2"
            lines.append(
                f"family {label}: {_fmt_vertices(sorted(terms))}"
                f" | working {_fmt_vertices(sorted(working))}"
            )
    if report.lemma_id == "L10":
        reasons = Counter(
            detail for tag, _, detail in report.exceptional if tag == "degenerate"
        )
        for reason in sorted(reasons):
            lines.append(f"degenerate[{reason}]: {reasons[reason]}")
    for tag, inst, detail in report.exceptional:
        if tag not in _DOCUMENTED_TAGS:
            lines.append(f"defect: {tag} instance={_fmt_value(inst)} detail={detail}")
    lines.append(_EXCLUDED_MARK)
    lines.append(f"elapsed_seconds: {report.elapsed:.3f}")
    return "\n".join(lines) + "\n"


def report_body(text: str) -> str:
    """The comparable part of a report: everything above the timing mark."""
    return text.split(_EXCLUDED_MARK, 1)[0]


# ------------------------------------------------------------- pairability

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


# Ordered pair demands on the full grid, built the first time a placement
# names them (at most 36 x 35), so that placements share them.
_GRID_PAIRS: dict[tuple[Vertex, Vertex], Demand] = {}


def _grid_pair(st: tuple[Vertex, Vertex]) -> Demand:
    d = _GRID_PAIRS.get(st)
    if d is None:
        d = _GRID_PAIRS[st] = Demand.pair(*st)
    return d


def _run_pairability(pairs):
    inst = Instance(_GRID, tuple(map(_grid_pair, pairs)))
    sol = solve(inst)
    if sol is Infeasible:
        return ("counterexample", pairs, "no 4-pair linkage")
    if not verify(inst, sol):
        return ("defect", pairs, "certificate failed the independent check")
    return None


def pairability_check(
    samples: int = 100000, seed: Optional[int] = None, workers: int = 1
) -> LemmaReport:
    """Solve ``samples`` seeded 4-pair placements on the full grid and
    report counterexamples.  The reduced exhaustive sweep is the campaign
    ``Campaign("pairability", "reduced")``."""
    return run_campaign(Campaign("pairability", "random", samples, seed, workers))


# ------------------------------------------------- solver/flow cross-check

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


def escape_agreement_check(workers: int = 1) -> LemmaReport:
    """Cross-check the backtracking solver against the flow oracle on the
    all-escape family; any disagreement is a defect."""
    return drive(
        "escape-agreement", _run_escape_agreement, list(_iter_escape_family()), workers
    )
