"""Campaign enumeration, reports, and the pairability sampler."""

from __future__ import annotations

import os
import threading
from collections import Counter
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import islice
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
from gridlink.lemmas import Frame, catalog_configurations
from gridlink.cli import main
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
}


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


def test_worker_counts_outside_the_cpu_range_are_rejected():
    # only the rejection path: no process pool is ever started here
    for workers in (0, -1, (os.cpu_count() or 1) + 1):
        with pytest.raises(ValueError, match="workers"):
            Campaign("L5", workers=workers)
        with pytest.raises(ValueError, match="workers"):
            drive("L5", None, [], workers)
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


def _moved_anchor(frame, s1, s2, taken=frozenset()):
    """``frame`` re-solved at an anchor on the other cycle, still labelled C_alpha.

    Its own cycle is the other cycle, so ``Frame`` accepts the anchor, and its
    mating paths avoid the C1 edges and ``taken``, so the certificate verifies.
    """
    lm = landmarks(_UL)
    other = 1 - frame.alpha
    forbidden = frozenset(e for e in lm.C1 if set(e) <= _UL.vertices) | taken
    for w in sorted(v for v in (C0_RING, C1_RING)[other] if v in _UL.vertices):
        sol = solve(Instance(_UL.graph, (Demand.pair(s1, w), Demand.pair(s2, w)), forbidden))
        if sol:
            return Frame(frame.alpha, (lm.C0, lm.C1)[other], w, (sol[0], sol[1]))
    return frame


@pytest.mark.parametrize("mutant", ["wrong terminal", "off-cycle anchor"])
@pytest.mark.parametrize(
    "lemma_id, op",
    [
        ("L5", "build_frame"),
        ("L6", "frame_two_mate_third"),
        ("L7", "frame_c0_mate_c1"),
        ("L7", "frame_c1_mate_corner"),
    ],
)
def test_frame_campaigns_check_the_statement(monkeypatch, lemma_id, op, mutant):
    # A framing operation that frames another terminal, or anchors off
    # C_alpha, still returns a certificate that verifies; the campaign must
    # check it against the instance and the grid's own rings.
    real = getattr(verifier, op)
    last = 1 if op == "build_frame" else 2  # position of the last terminal

    def wrong_terminal(q, *args):
        other = next(v for v in sorted(q.vertices) if v not in args[: last + 1])
        return real(q, *args[:last], other, *args[last + 1 :])

    def off_cycle_anchor(q, *args):
        res = real(q, *args)
        if op == "build_frame":
            return _moved_anchor(res, *args[:2])
        taken = frozenset(path_edges(res.mating_path))
        return replace(res, frame=_moved_anchor(res.frame, *res.framed_pair, taken))

    mutated = wrong_terminal if mutant == "wrong terminal" else off_cycle_anchor
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
        report = drive(lemma_id, verifier._CAMPAIGNS[lemma_id][1], with_single, 1)
        assert report.feasible == 0
        assert {tag for tag, _, _ in report.exceptional} == {"defect"}
        assert not report_conforms(report)


@pytest.mark.parametrize("linked", [(0, 0), (0, 1)])
def test_crowded_campaigns_check_the_linked_pairs(monkeypatch, linked):
    # L3 has one pair: a repeated index or an index past it is not a pair
    real = verifier.crowded_escape
    monkeypatch.setattr(
        verifier, "crowded_escape", lambda *args: replace(real(*args), linked=linked)
    )
    inst = enumerate_instances("L3")[0]
    assert verifier._run_crowded(inst, 3) == (
        "defect",
        inst,
        "linked indices are not distinct pairs of the instance",
    )


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


def _reused_edge(inst):
    # the first path walks back over its last edge and returns: one edge twice
    sol = solve(inst)
    first = sol.paths[0]
    return PathSystem((first + first[-2:],) + sol.paths[1:])


@pytest.mark.parametrize(
    "campaign, name, mutant, tag, count, detail",
    [
        ("L4", "is_weakly_2_linked", lambda graph: False, "defect", 8, "graph is not weakly 2-linked"),
        ("P1-matching", "clamp_matching", lambda *args: None, "defect", 2868, "no match although"),
        (
            "escape-agreement",
            "escape_flow",
            lambda *args, **kwargs: Infeasible,
            "defect",
            485,
            "solver and flow oracle disagree",
        ),
        ("pairability", "solve", lambda inst: Infeasible, "counterexample", 20, "no 4-pair linkage"),
        ("pairability", "solve", _reused_edge, "defect", 20, "certificate failed"),
    ],
    ids=["L4-never linked", "P1-no match", "escape-flow infeasible", "pairability-infeasible",
         "pairability-reused edge"],
)
def test_every_runner_reads_defective_under_its_mutant(
    monkeypatch, capsys, campaign, name, mutant, tag, count, detail
):
    # the runners no other test can make fail: a wrong answer from the
    # function each one trusts must show up as a record and fail the report
    monkeypatch.setattr(verifier, name, mutant)
    if campaign == "escape-agreement":
        report = escape_agreement_check()
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
    clean = LemmaReport("L5", 162, 162)
    assert report_conforms(clean)
    dirty = LemmaReport("L5", 162, 161, (("defect", None, "x"),))
    assert not report_conforms(dirty)
    # an L9 refusal on a set avoiding A and the far corner breaks claim (i)
    free_refusal = ("refusal", (((Vertex(2, 2)),), Vertex(2, 2)), "no projection")
    assert not report_conforms(LemmaReport("L9", 837, 836, (free_refusal,)))
    # an L10 entry not certified by a law is a defect, not an exception
    stray = ("defect", None, "infeasible with no certifying law")
    assert not report_conforms(LemmaReport("L10", 26244, 26243, (stray,)))


def test_reports_do_not_depend_on_worker_count():
    # L3's runner is a partial of the crowded runner: it must cross the pool too
    for lemma_id in ("L9", "L3"):
        one = verify_lemma(lemma_id, workers=1)
        two = verify_lemma(lemma_id, workers=2)
        assert replace(one, elapsed=0.0) == replace(two, elapsed=0.0)


def test_driver_streams_a_generator_alike_for_one_and_two_workers():
    reports = [
        drive("pairability", _run_pairability, islice(iter_pairability_reduced(), 50), w, "reduced")
        for w in (1, 2)
    ]
    assert reports[0].instances_checked == 50
    assert reports[0].strategy == "reduced" and reports[0].seed is None
    assert replace(reports[0], elapsed=0.0) == replace(reports[1], elapsed=0.0)


def _dies_on_3(item):
    if item == 3:
        os._exit(1)


def _nothing(item):
    return None


def test_a_dead_worker_ends_the_campaign_instead_of_hanging():
    raised = []

    def campaign():
        try:
            drive("x", _dies_on_3, list(range(8)), 2)
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
    assert replace(first, elapsed=0.0) == replace(again, elapsed=0.0)


# -------------------------------------------------------------- dual route

def test_solver_and_flow_agree_on_the_escape_family():
    report = escape_agreement_check()
    assert report.clean
    assert report.instances_checked == 485
