"""Campaign enumeration, reports, and the pairability sampler."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from collections import Counter
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import islice, repeat
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridlink
import gridlink.lemmas
from gridlink import verifier
from gridlink.grid import (
    C0_RING,
    C1_RING,
    SYMMETRIES,
    Corner,
    Vertex,
    landmarks,
    make_grid,
    path_edges,
    quadrant,
)
import gridlink.lemmas.crowded as crowded
import gridlink.lemmas.escapes as escapes
import gridlink.lemmas.linkage as linkage
from gridlink.lemmas import catalog_configurations
from gridlink.cli import main
from gridlink.flow import escape_flow
from gridlink.routing import Demand, Infeasible, Instance, PathSystem, solve
from gridlink.verifier import (
    T1,
    T1_ADMISSIBLE,
    T2,
    T2_ADMISSIBLE,
    Campaign,
    LemmaReport,
    _run_pairability,
    degenerate_reason,
    drive,
    enumerate_instances,
    escape_agreement_check,
    exceptional_families,
    format_report,
    iter_pairability_reduced,
    pairability_check,
    report_conforms,
    sample_pairability,
    verify_lemma,
)

_EXPECTED_COUNTS = {
    "L1": 4725,
    "L2": 5040,
    "L3": 1260,
    "L4": 8,
    "L5": 162,
    "L6": 252,
    "L7": 252,
    "L8": 1085,
    "L9": 837,
    "L10": 26244,
    "P1-matching": 5751,
    "escape-agreement": 485,
}
# the exceptional tags each statement predicts, where it predicts any
_DOCUMENTED = {"L9": {"refusal": 67}, "L10": {"degenerate": 100}}


# ------------------------------------------------------------- enumeration

def test_public_names_resolve():
    for package in (gridlink, gridlink.lemmas):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)


@pytest.mark.parametrize("lemma_id", sorted(_EXPECTED_COUNTS))
def test_exhaustive_instance_counts(lemma_id):
    n = sum(1 for _ in enumerate_instances(lemma_id))
    assert n == _EXPECTED_COUNTS[lemma_id]


def test_p1_matching_checks_each_l10_configuration_once():
    items = [repr(item) for item in enumerate_instances("P1-matching")]
    assert len(set(items)) == len(items)
    per_line_map = {
        repr((inst[:4], config))
        for inst in enumerate_instances("L10")
        for config in catalog_configurations(*inst[:4])
    }
    assert set(items) == per_line_map


def test_unknown_lemma_rejected():
    with pytest.raises(ValueError):
        list(enumerate_instances("L11"))


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign("L12")
    with pytest.raises(ValueError, match="requires an explicit seed"):
        Campaign("pairability", samples=10)
    with pytest.raises(ValueError, match="requires samples >= 1"):
        Campaign("pairability", samples=0, seed=4)
    with pytest.raises(ValueError):
        Campaign("L5", workers=0)
    with pytest.raises(ValueError, match="takes no seed"):
        Campaign("L5", seed=3)
    with pytest.raises(ValueError, match="takes no seed"):
        Campaign("pairability", seed=3)
    with pytest.raises(ValueError, match="takes no sample count"):
        Campaign("L5", samples=3)
    Campaign("pairability", samples=10, seed=4)


def test_pairability_has_no_exhaustive_campaign():
    # a lemma runs exhaustively; pairability draws samples, or without a
    # sample count sweeps its reduced domain, and is not a lemma
    assert Campaign("L5").strategy == "exhaustive"
    assert Campaign("pairability", samples=10, seed=4).strategy == "random"
    assert Campaign("pairability").strategy == "reduced"
    with pytest.raises(ValueError, match="not a lemma"):
        verify_lemma("pairability")
    with pytest.raises(ValueError, match="exhaustive"):
        verify_lemma("L5", "random")


def test_reduced_pairability_stream_is_lazy():
    stream = enumerate_instances("pairability")
    assert isinstance(stream, Iterator)  # a list would hold ~4 x 10^8 placements
    assert list(islice(stream, 50)) == list(islice(iter_pairability_reduced(), 50))


def test_worker_and_sample_counts_must_be_ints():
    # a float passed the range checks and failed mid-run; a bool ran
    for workers in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="workers must be an int"):
            Campaign("L5", workers=workers)
    for samples in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="samples must be an int"):
            Campaign("pairability", samples=samples, seed=1)


def test_a_seed_must_be_an_int():
    # Random("1") draws other placements than Random(1), and a report of
    # either would print "seed: 1"
    for seed in ("1", True, 1.0):
        with pytest.raises(ValueError, match="seed must be an int"):
            Campaign("pairability", samples=3, seed=seed)
    assert Campaign("pairability", samples=3, seed=1).seed == 1


def test_worker_counts_outside_the_cpu_range_are_rejected():
    # only the rejection path: no process pool is ever started here
    for workers in (0, -1, (os.cpu_count() or 1) + 1):
        with pytest.raises(ValueError, match="workers"):
            Campaign("L5", workers=workers)
        with pytest.raises(ValueError, match="workers"):
            pairability_check(samples=2, seed=1, workers=workers)


# -------------------------------------------------------------- degeneracy

def test_degenerate_reason_flags_the_far_corner_overload():
    c = Vertex(1, 1)
    for psi in (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")):
        assert degenerate_reason(c, Vertex(2, 2), c, c, psi) is not None


def test_degenerate_reason_overload_depends_on_the_lines():
    v = Vertex(1, 3)
    assert degenerate_reason(v, Vertex(2, 2), v, v, ("A", "A")) is not None
    # v lies on B, so a B-escort can leave with no edge at all
    assert degenerate_reason(v, Vertex(2, 2), v, v, ("B", "A")) is None
    assert degenerate_reason(Vertex(3, 1), Vertex(2, 2), Vertex(3, 1), Vertex(3, 1), ("B", "B")) is not None


def test_degenerate_reason_flags_the_two_line_cuts():
    assert degenerate_reason(
        Vertex(1, 1), Vertex(1, 3), Vertex(1, 2), Vertex(1, 2), ("A", "A")
    ) == "line cut across the far row"
    assert degenerate_reason(
        Vertex(1, 1), Vertex(3, 1), Vertex(2, 1), Vertex(2, 1), ("B", "B")
    ) == "line cut down the far column"
    # same picture, different lines: feasible
    assert degenerate_reason(
        Vertex(1, 1), Vertex(1, 3), Vertex(1, 2), Vertex(1, 2), ("A", "B")
    ) is None


def _full_laws(s1, t1, s2, s3, psi):
    """The two degeneracy laws as stated: every terminal is tested for an
    overload, whether or not the escorts share a start."""
    lines = {
        "A": {Vertex(3, j) for j in (1, 2, 3)},
        "B": {Vertex(i, 3) for i in (1, 2, 3)},
    }
    line2, line3 = psi
    for v in {s1, t1, s2, s3}:
        ends = int((s1 == v) != (t1 == v))
        ends += int(s2 == v and v not in lines[line2])
        ends += int(s3 == v and v not in lines[line3])
        if ends > 2 + (1 < v.row < 3) + (1 < v.col < 3):
            return f"degree overload at {tuple(v)}"
    if s2 == s3:
        if {s1, t1} == {Vertex(1, 1), Vertex(1, 3)} and s2 == (1, 2) and line2 == line3 == "A":
            return "line cut across the far row"
        if {s1, t1} == {Vertex(1, 1), Vertex(3, 1)} and s2 == (2, 1) and line2 == line3 == "B":
            return "line cut down the far column"
    return None


def test_degenerate_reason_equals_the_full_laws_on_the_whole_l10_domain():
    # degenerate_reason answers None at once when the escorts start apart;
    # over all 26,244 placements it must name what the full laws name.
    reasons = Counter()
    for s1, t1, s2, s3, psi in verifier._iter_l10():
        want = _full_laws(s1, t1, s2, s3, psi)
        assert degenerate_reason(s1, t1, s2, s3, psi) == want, (s1, t1, s2, s3, psi)
        if want is not None:
            assert s2 == s3
            reasons[want.split(" at ")[0]] += 1
    assert reasons == {"degree overload": 96, "line cut across the far row": 2,
                       "line cut down the far column": 2}


@settings(deadline=None, max_examples=60)
@given(
    idx=st.tuples(*(st.integers(min_value=0, max_value=8),) * 4),
    psi=st.tuples(st.sampled_from("AB"), st.sampled_from("AB")),
)
def test_degenerate_laws_commute_with_the_transpose(idx, psi):
    # the transpose maps the UL quadrant onto itself and swaps the lines A and B
    transpose, swap = SYMMETRIES[4], {"A": "B", "B": "A"}
    vs = sorted(Vertex(r, c) for r in (1, 2, 3) for c in (1, 2, 3))
    s1, t1, s2, s3 = (vs[i] for i in idx)
    here = degenerate_reason(s1, t1, s2, s3, tuple(psi))
    there = degenerate_reason(
        *(transpose(v) for v in (s1, t1, s2, s3)), tuple(swap[p] for p in psi)
    )
    assert (here is None) == (there is None)


# ---------------------------------------------------------------- reports

def test_fast_campaigns_conform():
    for lemma_id in ("L4", "L5", "L6", "L7", "L8"):
        report = verify_lemma(lemma_id)
        assert report.clean
        assert report_conforms(report)
        assert report.instances_checked == _EXPECTED_COUNTS[lemma_id]


def test_projection_campaign_yields_the_two_known_families():
    report = verify_lemma("L9")
    assert not report.clean  # refusals are expected ...
    assert report_conforms(report)  # ... and accounted for
    families = dict(exceptional_families(report))
    assert families == {T1: T1_ADMISSIBLE, T2: T2_ADMISSIBLE}


def test_l10_checks_each_certificate_against_the_statement(monkeypatch):
    # The statement's lines are the quadrant's landmark lines ...
    lm = landmarks(quadrant(make_grid(6, 6), Corner.UL))
    assert verifier._L10_LINES == {"A": frozenset(lm.A), "B": frozenset(lm.B)}
    # ... and a lemma that escorts to the other line is caught.
    real = verifier.link_pair_escort_singletons
    other = {"A": "B", "B": "A"}

    def wrong_lines(q, s1, t1, s2, s3, psi):
        return real(q, s1, t1, s2, s3, tuple(other[p] for p in psi))

    monkeypatch.setattr(verifier, "link_pair_escort_singletons", wrong_lines)
    inst = (Vertex(1, 1), Vertex(1, 2), Vertex(2, 2), Vertex(2, 1), ("A", "A"))
    assert verifier._run_l10(inst) == (
        "defect",
        inst,
        "certificate failed the independent check",
    )


_UL = quadrant(make_grid(6, 6), Corner.UL)


def _moved_anchor(got, anchors):
    """``got`` with its mating paths re-solved to the first of ``anchors``
    that routes, and its third terminal's path, if any, kept.

    The mating paths avoid the C1 edges and the kept path, so the
    certificate verifies for the demands it answers.
    """
    kept = got.paths[2:]
    taken = frozenset(e for p in kept for e in path_edges(p))
    # C1's edges, derived here from the ring itself
    c1 = frozenset(path_edges(C1_RING + C1_RING[:1])) & _UL.graph.present_edges
    graph = _UL.graph.without_edges(c1 | taken)
    for w in anchors:
        sol = solve(Instance(graph, (Demand.pair(got[0][0], w), Demand.pair(got[1][0], w))))
        if sol:
            return PathSystem(sol.paths + kept)
    return got


_FRAMINGS = [
    ("L5", "build_frame"),
    ("L6", "frame_two_mate_third"),
    ("L7", "frame_c0_mate_c1"),
    ("L7", "frame_c1_mate_corner"),
]


@pytest.mark.parametrize(
    "lemma_id, op, mutant",
    [
        case + (m,)
        for case in _FRAMINGS
        for m in ("wrong terminal", "off-cycle anchor", "over C1", "no paths", "an empty path")
    ]
    + [("L6", "frame_two_mate_third", "anchor on neither ring")],
)
def test_frame_campaigns_check_the_statement(monkeypatch, lemma_id, op, mutant):
    # A framing operation that frames another terminal, anchors off
    # C_alpha or rides a C1 edge still returns a certificate that verifies on
    # the quadrant; the campaign must check it against the instance, the
    # grid's own rings and the quadrant less its C1 edges.  An answer with
    # no paths, or an empty one, has no ends to read: a defect, not a crash.
    real = getattr(verifier, op)
    last = 1 if op == "build_frame" else 2  # position of the last terminal

    def wrong_terminal(q, *args):
        other = next(v for v in sorted(q.vertices) if v not in args[: last + 1])
        return real(q, *args[:last], other, *args[last + 1 :])

    def off_cycle_anchor(q, *args):
        # the anchor moves to the other ring; L6's third terminal then
        # mates to the frame's own ring
        got = real(q, *args)
        other = C1_RING if got[0][-1] in C0_RING else C0_RING
        return _moved_anchor(got, sorted(v for v in other if v in q.vertices))

    def anchor_on_neither_ring(q, *args):
        off_rings = [v for v in sorted(q.vertices) if v not in C0_RING + C1_RING]
        return _moved_anchor(real(q, *args), off_rings)

    def over_c1(q, *args):
        # the operation alone solves on the whole quadrant: the runner
        # reads the mating graph of its own quadrant, which stays as it is
        whole = replace(q)
        whole.__dict__["mating_graph"] = q.graph
        return real(whole, *args)

    mutated = {
        "wrong terminal": wrong_terminal,
        "off-cycle anchor": off_cycle_anchor,
        "anchor on neither ring": anchor_on_neither_ring,
        "over C1": over_c1,
        "no paths": lambda q, *args: PathSystem(()),
        "an empty path": lambda q, *args: PathSystem(((),) + real(q, *args).paths[1:]),
    }[mutant]
    monkeypatch.setattr(verifier, op, mutated)
    report = verify_lemma(lemma_id)
    assert any(tag == "defect" for tag, _, _ in report.exceptional)
    assert not report_conforms(report)


def _escape_with_shared_exits(adj, *terms):
    return solve(Instance(adj.graph, tuple(Demand.escape(t, adj.A) for t in terms)))


@pytest.mark.parametrize(
    "lemma_id, owner, name, mutant",
    [
        ("L8", verifier, "escape_three_distinct", _escape_with_shared_exits),
        ("L9", escapes, "_B_LINK", Vertex(1, 3)),
    ],
    ids=["L8-shared exits", "L9-b moved"],
)
def test_escape_campaigns_check_the_statement(monkeypatch, lemma_id, owner, name, mutant):
    # L8 (iii) answered with shared exits, or L9 linking to another b,
    # returns a certificate that verifies for its own demands; the campaign
    # must check it against the statement's distinct exits and b = (2, 3).
    monkeypatch.setattr(owner, name, mutant)
    report = verify_lemma(lemma_id)
    assert any(tag == "defect" for tag, _, _ in report.exceptional)
    assert not report_conforms(report)


def test_crowded_campaigns_check_the_statement(monkeypatch):
    # A crowded lemma that leaves out its last escaping terminal still
    # returns a certificate for the demands it built itself; the campaign
    # must build its demands from the instance.
    real = crowded._escape_order
    monkeypatch.setattr(crowded, "_escape_order", lambda *args: real(*args)[:-1])
    for lemma_id in ("L1", "L2", "L3"):
        with_single = [inst for inst in enumerate_instances(lemma_id) if inst[1]][:20]
        report = drive(Campaign(lemma_id), verifier._CAMPAIGNS[lemma_id][1], with_single)
        assert report.feasible == 0
        assert {tag for tag, _, _ in report.exceptional} == {"defect"}
        assert not report_conforms(report)


def test_a_crowded_answer_with_an_empty_path_is_a_defect(monkeypatch):
    # the runner reads where the paths start before verify sees them
    real = verifier.crowded_escape
    monkeypatch.setattr(
        verifier, "crowded_escape", lambda *args: PathSystem(((),) + real(*args).paths[1:])
    )
    inst = enumerate_instances("L3")[0]
    assert verifier._run_crowded(inst, 3) == (
        "defect",
        inst,
        "certificate failed the independent check",
    )


def _listed(answer, first_only):
    """``answer`` with every vertex of its paths a list, not a tuple, or
    with only the start of its first path a list."""

    def mutant(*args):
        paths = answer(*args).paths
        if first_only:
            return PathSystem(((list(paths[0][0]),) + paths[0][1:],) + paths[1:])
        return PathSystem(tuple(tuple(map(list, p)) for p in paths))

    return mutant


@pytest.mark.parametrize(
    "lemma_id, op, first_only",
    [("L3", "crowded_escape", False)]
    + [case + (False,) for case in _FRAMINGS]
    + [("L3", "crowded_escape", True), ("L6", "frame_two_mate_third", True)],
    ids=["L3", "L5", "L6", "L7-i", "L7-ii", "L3-one list start", "L6-one list start"],
)
def test_an_answer_with_list_vertices_is_a_defect_that_names_one(
    monkeypatch, lemma_id, op, first_only
):
    # the runners read path ends before verify sees them: a list start
    # cannot join a set or be sorted among tuples, and a list anchor lies
    # on no ring, so the record names the malformed vertex, as verify does,
    # instead of crashing or blaming the anchor
    listed, answers = _listed(getattr(verifier, op), first_only), []
    monkeypatch.setattr(verifier, op, lambda *args: answers.append(listed(*args)) or answers[-1])
    iterate, runner, _, _ = verifier._CAMPAIGNS[lemma_id]
    inst = next(i for i in iterate() if op != "frame_c1_mate_corner" or i[0] == "ii")
    record = runner(inst)
    first = answers[0][0][0]
    assert isinstance(first, list)
    assert record == ("defect", inst, f"path 0: malformed vertex {first!r}")


def test_l4_checks_every_two_pair_certificate(monkeypatch):
    # an L4 operation whose every answer is one single-vertex path per
    # demand answers every choice "feasibly"; the runner must verify each
    # answer against the two pairs it asked for
    monkeypatch.setattr(
        linkage, "solve", lambda inst: PathSystem(tuple((d.source,) for d in inst.demands))
    )
    report = verify_lemma("L4")
    assert Counter(tag for tag, _, _ in report.exceptional) == {"defect": 8}
    assert all(d == "certificate failed the independent check" for _, _, d in report.exceptional)
    assert "status: defective" in format_report(report).splitlines()


def _link_first_pair_only(q, pairs, singles, variant):
    """A crowded answer linking pair 0 alone and escaping every other
    terminal to distinct exits anywhere on A or B."""
    lm = landmarks(q)
    exits = set(lm.A) | set(lm.B)
    rest = [v for pair in pairs[1:] for v in pair] + list(singles)
    demands = (Demand.pair(*pairs[0]),) + tuple(
        Demand.escape(v, exits, distinct_group=0) for v in rest
    )
    return solve(Instance(q.graph, demands))


@pytest.mark.parametrize("lemma_id", ["L1", "L2", "L3"])
def test_crowded_campaigns_check_the_side_conditions(monkeypatch, lemma_id):
    # Linking pair 0 alone is too few for L1, and escaping anywhere on A or
    # B may leave A twice in L2 and L3.  Such a certificate verifies for the
    # demands it answers; only the statement's own clause can catch it.
    monkeypatch.setattr(verifier, "crowded_escape", _link_first_pair_only)
    instances = enumerate_instances(lemma_id)
    if lemma_id == "L1":
        instances = [inst for inst in instances if inst[1]]  # the seven-terminal ones
    report = drive(Campaign(lemma_id), verifier._CAMPAIGNS[lemma_id][1], instances)
    details = Counter(detail for _, _, detail in report.exceptional)
    if lemma_id == "L1":
        # every seven-terminal instance where five terminals can escape
        assert details == {"too few pairs linked": 3660, "no certificate": 120}
    else:
        assert set(details) == {"more than one exit off A"}
    assert not report_conforms(report)


_OPERATIONS = {
    "L1": ("crowded_escape",),
    "L5": ("build_frame",),
    "L6": ("frame_two_mate_third",),
    "L7": ("frame_c0_mate_c1", "frame_c1_mate_corner"),
    "L8": ("escape_three_shared", "link_and_escape", "escape_three_distinct"),
    "L10": ("link_pair_escort_singletons",),
}


@pytest.mark.parametrize("lemma_id", sorted(_OPERATIONS))
def test_a_lemma_operation_answering_infeasible_is_a_defect(monkeypatch, lemma_id):
    # the runner alone turns a missing certificate into a record: a defect,
    # except where an L10 law certifies the placement as degenerate
    for op in _OPERATIONS[lemma_id]:
        monkeypatch.setattr(verifier, op, lambda *args: Infeasible)
    report = verify_lemma(lemma_id)
    instances = enumerate_instances(lemma_id)
    assert [inst for _, inst, _ in report.exceptional] == instances
    tags = Counter(tag for tag, _, _ in report.exceptional)
    if lemma_id == "L10":
        assert tags == {"defect": len(instances) - 100, "degenerate": 100}
    else:
        assert tags == {"defect": len(instances)}
    assert "status: defective" in format_report(report).splitlines()


def _reusing_an_edge(answer):
    """``answer`` with its first path walking back over its last edge and
    returning: one edge twice."""

    def mutant(*args):
        got = answer(*args)
        first = got.paths[0]
        return PathSystem((first + first[-2:],) + got.paths[1:])

    return mutant


@pytest.mark.parametrize(
    "campaign, name, mutant, tag, count, detail",
    [
        ("L4", "weak_2_linkages", lambda graph: repeat(Infeasible), "defect", 8, "graph is not weakly 2-linked"),
        ("P1-matching", "clamp_matching", lambda *args: None, "defect", 2868, "no match although"),
        (
            "escape-agreement",
            "escape_flow",
            lambda *args, **kwargs: Infeasible,
            "defect",
            485,
            "solver and flow oracle disagree",
        ),
        (
            "escape-agreement",
            "escape_flow",
            _reusing_an_edge(escape_flow),
            "defect",
            485,
            "certificate failed the independent check",
        ),
        ("pairability", "solve", lambda inst: Infeasible, "counterexample", 20, "no 4-pair linkage"),
        ("pairability", "solve", _reusing_an_edge(solve), "defect", 20, "certificate failed"),
    ],
    ids=["L4-never linked", "P1-no match", "escape-flow infeasible", "escape-flow reused edge",
         "pairability-infeasible", "pairability-reused edge"],
)
def test_every_runner_reads_defective_under_its_mutant(
    monkeypatch, capsys, campaign, name, mutant, tag, count, detail
):
    # the runners no other test can make fail: a wrong answer from the
    # function each one trusts must show up as a record and fail the report
    monkeypatch.setattr(verifier, name, mutant)
    if campaign == "escape-agreement":
        report = escape_agreement_check()
        assert main(["lemma", "escape-agreement"]) == 1
        assert "status: defective" in capsys.readouterr().out.splitlines()
    elif campaign == "pairability":
        report = pairability_check(samples=20, seed=1)
        assert main(["pairability", "--samples", "20", "--seed", "1"]) == 1
        assert "status: defective" in capsys.readouterr().out.splitlines()
    else:
        report = verify_lemma(campaign)
    assert Counter(t for t, _, _ in report.exceptional) == {tag: count}
    assert all(detail in d for _, _, d in report.exceptional)
    assert "status: defective" in format_report(report).splitlines()


def test_exceptional_families_rejects_foreign_reports():
    report = verify_lemma("L5")
    with pytest.raises(ValueError):
        exceptional_families(report)


def test_report_conforms_spots_bad_reports():
    clean = LemmaReport(Campaign("L5"), 162)
    assert report_conforms(clean)
    dirty = LemmaReport(Campaign("L5"), 162, (("defect", None, "x"),))
    assert not report_conforms(dirty)
    # an L9 refusal on a set avoiding A and the far corner breaks claim (i),
    # even in place of another refusal and with the two families intact
    real = verify_lemma("L9")
    assert report_conforms(real)
    free = (Vertex(1, 2), Vertex(1, 3), Vertex(2, 1), Vertex(2, 2))
    records = list(real.exceptional)
    i = next(i for i, (_, (T, _), _) in enumerate(records) if frozenset(T) not in (T1, T2))
    records[i] = ("refusal", (free, Vertex(2, 2)), "no projection")
    swapped = replace(real, exceptional=tuple(records))
    assert dict(exceptional_families(swapped)) == {T1: T1_ADMISSIBLE, T2: T2_ADMISSIBLE}
    assert not report_conforms(swapped)
    # an L10 entry not certified by a law is a defect, not an exception
    stray = ("defect", None, "infeasible with no certifying law")
    assert not report_conforms(LemmaReport(Campaign("L10"), 26244, (stray,)))
    # and a law-certified placement short of the documented 100 is a lost one
    degenerate = ("degenerate", None, "degree overload at (1, 1)")
    assert not report_conforms(LemmaReport(Campaign("L10"), 26244, (degenerate,) * 99))


def test_the_campaign_table_holds_the_documented_census():
    table = verifier._CAMPAIGNS
    assert {cid: row[2] for cid, row in table.items()} == {**_EXPECTED_COUNTS, "pairability": None}
    assert {cid: row[3] for cid, row in table.items() if row[3]} == _DOCUMENTED


@pytest.mark.parametrize("campaign", sorted(_EXPECTED_COUNTS) + ["pairability"])
def test_a_report_off_the_domain_size_does_not_conform(campaign):
    # the census, not only the tags: one instance lost or one too many; a
    # sampled pairability run's census is the sample count it asked for
    sampled = Campaign("pairability", samples=20, seed=1)
    size = _EXPECTED_COUNTS.get(campaign, sampled.samples)
    if campaign == "L9":
        report = verify_lemma("L9")  # its refusals must form the two families
    else:
        documented = _DOCUMENTED.get(campaign, {})
        records = tuple((tag, None, "") for tag, n in documented.items() for _ in range(n))
        report = LemmaReport(sampled if campaign == "pairability" else Campaign(campaign), size, records)
    assert report_conforms(report)
    for off in (-1, 1):
        assert not report_conforms(replace(report, instances_checked=size + off))


def test_reports_do_not_depend_on_worker_count():
    # L3's runner is a partial of the crowded runner: it must cross the pool too
    for lemma_id in ("L9", "L3"):
        one = verify_lemma(lemma_id, workers=1)
        two = verify_lemma(lemma_id, workers=2)
        assert two.campaign == replace(one.campaign, workers=2)
        assert replace(two, campaign=one.campaign, elapsed=0.0) == replace(one, elapsed=0.0)


def test_driver_streams_a_generator_alike_for_one_and_two_workers():
    reports = [
        drive(
            Campaign("pairability", workers=w),
            _run_pairability,
            islice(iter_pairability_reduced(), 50),
        )
        for w in (1, 2)
    ]
    assert reports[0].instances_checked == 50
    one, two = reports
    assert one.campaign.strategy == "reduced" and one.campaign.seed is None
    assert two.campaign == replace(one.campaign, workers=2)
    assert replace(two, campaign=one.campaign, elapsed=0.0) == replace(one, elapsed=0.0)


def _dies_on_3(item):
    if item == 3:
        os._exit(1)


def _nothing(item):
    return None


def test_a_dead_worker_ends_the_campaign_instead_of_hanging():
    raised = []

    def campaign():
        try:
            drive(Campaign("L5", workers=2), _dies_on_3, list(range(8)))
        except verifier.WorkerDied as exc:
            raised.append(exc)

    thread = threading.Thread(target=campaign, daemon=True)
    thread.start()
    thread.join(30)
    assert not thread.is_alive() and len(raised) == 1


def test_two_workers_read_a_lazy_stream_as_they_run_it():
    # chunks of 64 go out at most two per worker at a time, so an endless
    # stream is read ahead of its results by a bounded amount
    read = []

    def stream():
        for k in range(10 ** 9):
            read.append(k)
            yield k

    results = verifier._pooled(_nothing, stream(), 2)
    assert list(islice(results, 5)) == [None] * 5
    assert len(read) <= 64 * 5
    results.close()


def test_two_workers_take_a_list_in_chunks_of_at_most_64(monkeypatch):
    sizes = []
    real = ProcessPoolExecutor.submit

    def submit(self, fn, run, chunk):
        sizes.append(len(chunk))
        return real(self, fn, run, chunk)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    assert list(verifier._pooled(_nothing, list(range(2000)), 2)) == [None] * 2000
    assert sum(sizes) == 2000 and max(sizes) <= 64


def test_importing_gridlink_loads_no_pool_machinery():
    # _pooled imports these where a pool runs: at module level they add
    # about 1.5 MB to the peak RSS of a campaign with one worker
    src = os.path.dirname(os.path.dirname(gridlink.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, gridlink, gridlink.verifier, gridlink.cli\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ------------------------------------------------------------- pairability

@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_sampler_draws_four_disjoint_pairs(seed):
    inst = sample_pairability(Random(seed))
    assert len(inst) == 4
    flat = [v for p in inst for v in p]
    assert len(set(flat)) == 8
    assert all(1 <= v.row <= 6 and 1 <= v.col <= 6 for v in flat)
    again = sample_pairability(Random(seed))
    assert again == inst


def test_pairability_requires_a_seed():
    with pytest.raises(ValueError):
        pairability_check(samples=10)
    with pytest.raises(ValueError):
        pairability_check(samples=0, seed=1)
    # no sample count would be the reduced sweep, ~4 x 10^8 placements
    with pytest.raises(ValueError, match="give a sample count"):
        pairability_check(samples=None)


def test_sampled_pairability_run_is_clean_and_reproducible():
    first = pairability_check(samples=300, seed=20260822)
    again = pairability_check(samples=300, seed=20260822, workers=2)
    assert first.clean
    assert first.instances_checked == first.feasible == 300
    assert again.campaign == replace(first.campaign, workers=2)
    assert replace(again, campaign=first.campaign, elapsed=0.0) == replace(first, elapsed=0.0)


# -------------------------------------------------------------- dual route

def test_solver_and_flow_agree_on_the_escape_family():
    report = escape_agreement_check()
    assert report.clean
    assert report.instances_checked == 485
