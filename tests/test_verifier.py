"""Campaign enumeration, reduction, reports, and the pairability sampler."""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
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
    Corner,
    Vertex,
    landmarks,
    make_grid,
    path_edges,
    quadrant,
)
import gridlink.lemmas.crowded as crowded
from gridlink.lemmas import Frame, LemmaDefect, LemmaReport, catalog_configurations
from gridlink.routing import Demand, Instance, solve
from gridlink.verifier import (
    T1,
    T1_ADMISSIBLE,
    T2,
    T2_ADMISSIBLE,
    Campaign,
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
    transpose_instance,
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
    with pytest.raises(ValueError):
        list(enumerate_instances("L5", strategy="surprising"))


@pytest.mark.parametrize(
    "lemma_id,reduced_count",
    [("L5", 90), ("L6", 132), ("L7", 215), ("L10", 13122)],
)
def test_reduction_picks_one_representative_per_orbit(lemma_id, reduced_count):
    full = list(enumerate_instances(lemma_id))
    reduced = list(enumerate_instances(lemma_id, strategy="reduced"))
    assert len(reduced) == reduced_count
    covered = set()
    for inst in reduced:
        covered.add(inst)
        covered.add(transpose_instance(lemma_id, inst))
    assert covered >= set(full)
    # no orbit is represented twice
    reduced_set = set(reduced)
    doubled = [
        inst
        for inst in reduced
        if transpose_instance(lemma_id, inst) != inst
        and transpose_instance(lemma_id, inst) in reduced_set
    ]
    assert not doubled


@pytest.mark.parametrize("lemma_id", ["L2", "L3", "L4", "L8", "L9"])
def test_lemmas_without_a_usable_transpose_run_in_full(lemma_id):
    # b, y0, the off-A side condition and the adjusted graphs all break the
    # symmetry, so "reduced" must not drop instances there
    full = list(enumerate_instances(lemma_id))
    reduced = list(enumerate_instances(lemma_id, strategy="reduced"))
    assert reduced == full


def test_random_strategy_is_seeded_and_validated():
    a = list(enumerate_instances("L5", strategy="random", samples=25, seed=11))
    b = list(enumerate_instances("L5", strategy="random", samples=25, seed=11))
    c = list(enumerate_instances("L5", strategy="random", samples=25, seed=12))
    assert a == b
    assert len(a) == 25
    assert a != c
    with pytest.raises(ValueError):
        list(enumerate_instances("L5", strategy="random", samples=25))
    with pytest.raises(ValueError):
        list(enumerate_instances("L5", strategy="random", seed=3))


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign("L12")
    with pytest.raises(ValueError):
        Campaign("L5", strategy="quick")
    with pytest.raises(ValueError):
        Campaign("L5", strategy="random", samples=10)
    with pytest.raises(ValueError):
        Campaign("L5", strategy="random", seed=4)
    with pytest.raises(ValueError):
        Campaign("L5", workers=0)
    with pytest.raises(ValueError, match="takes no seed"):
        Campaign("L5", seed=3)
    with pytest.raises(ValueError, match="takes no seed"):
        Campaign("pairability", strategy="reduced", seed=3)
    with pytest.raises(ValueError, match="takes no sample count"):
        Campaign("L5", samples=3)
    with pytest.raises(ValueError, match="takes no sample count"):
        Campaign("pairability", strategy="reduced", samples=3)
    Campaign("pairability", strategy="random", samples=10, seed=4)


def test_pairability_has_no_exhaustive_campaign():
    with pytest.raises(ValueError, match="exhaustive"):
        Campaign("pairability")
    with pytest.raises(ValueError, match="exhaustive"):
        enumerate_instances("pairability")
    Campaign("pairability", strategy="reduced")


def test_reduced_pairability_stream_is_lazy():
    stream = enumerate_instances("pairability", "reduced")
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
    vs = sorted(Vertex(r, c) for r in (1, 2, 3) for c in (1, 2, 3))
    s1, t1, s2, s3 = (vs[i] for i in idx)
    image = transpose_instance("L10", (s1, t1, s2, s3, tuple(psi)))
    here = degenerate_reason(s1, t1, s2, s3, tuple(psi))
    there = degenerate_reason(*image[:4], image[4])
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


def test_random_escort_slice_conforms():
    report = verify_lemma("L10", strategy="random", samples=400, seed=5)
    assert report_conforms(report)
    assert report.instances_checked == 400
    assert report.strategy == "random" and report.seed == 5


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


def test_driver_records_a_lemma_defect_as_a_defect(monkeypatch):
    def boom(q, T, s):
        raise LemmaDefect("boom")

    monkeypatch.setattr(verifier, "project_with_b_link", boom)
    report = verify_lemma("L9")
    assert report.exceptional == tuple(("defect", inst, "boom") for inst in enumerate_instances("L9"))
    assert len(report.exceptional) == 837
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
