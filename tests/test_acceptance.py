"""Acceptance gate: the ten campaign-level claims, one test per criterion.

Each test prints a single ``criterion N: PASS`` line with its evidence and
enforces the stated wall-clock budget, so ``pytest -v tests/test_acceptance.py``
reads as a checklist.  Budgets are generous on purpose: they assume an
8-worker box, and everything here clears them single-threaded.
"""

from __future__ import annotations

import time
from collections import Counter
from hashlib import sha256

import pytest

from gridlink.cli import format_report, report_body
from gridlink.grid import make_grid
from gridlink.lemmas import is_weakly_2_linked
from gridlink.verifier import (
    T1,
    T1_ADMISSIBLE,
    T2,
    T2_ADMISSIBLE,
    degenerate_reason,
    enumerate_instances,
    escape_agreement_check,
    exceptional_families,
    pairability_check,
    report_conforms,
    verify_lemma,
)

_PAIRABILITY_SEED = 1
_PAIRABILITY_SAMPLES = 100000

# sha256 of each campaign's report body (pairability's at the sample count
# and seed above): a change to any body must come with a new digest here
_PINNED_BODIES = {
    "L1": "e65a92074b9082f256bc48dc0fc6c63e2aace5439f209e3a22b331a5a0c1289b",
    "L2": "2eb4240260a032e70b96501ffe5e03e3fa032f8b8c8deb10ba095264fe0b8d2f",
    "L3": "c7e52f19332832737fc7a474efb488c51f02ddd481401d69b369c0d99773075a",
    "L4": "0f6ade9d2e5698e49f62937f47748a463f6c906486eb4c0e6096ce53e370bbb3",
    "L5": "80f3258ee682128d421c01ca24352f1bc9706264e5d44eb1c4b286e19639af1b",
    "L6": "9f0e00571723566bff6849f259e145f5f45dceef919aa847f80dbc7d11d8c0fd",
    "L7": "3bf3e3994b2bb25653e86654be5d0c930285992893cc102b9a456ed01812b586",
    "L8": "fb64aa3a2728fc6ff216e28a272fdbdf8ad9c9f7acb98b3a466fac152e80c387",
    "L9": "b27a2762600f5d74d58b48adcf511dc586f2254b63f4618d730bda40da03e6e8",
    "L10": "6e1098800603d8283b59470443f4c912ce81cc35139cea638b31e475d07e0ed4",
    "P1-matching": "e7ddf282ff0acb3c6e587fb2b79213c870974c5542693c637780d48eb31834ab",
    "escape-agreement": "01fce70ab19287b6bdb482ead26483e845878c4f5c4bfa62a54fe12c904b5d8e",
    "pairability": "fc57d2d66b48be28dea09d151cf771c27bbbcc312898f043e5d2359a70fc1d66",
}


def _passed(n: int, budget: float, elapsed: float, evidence: str) -> None:
    print(f"criterion {n}: PASS — {evidence} ({elapsed:.1f}s < {budget:.0f}s)")


def _assert_body_pinned(report) -> None:
    body = report_body(format_report(report))
    lemma_id = report.campaign.lemma_id
    assert sha256(body.encode()).hexdigest() == _PINNED_BODIES[lemma_id], (lemma_id, body)


@pytest.fixture(scope="module")
def first_pairability_run():
    start = time.perf_counter()
    report = pairability_check(samples=_PAIRABILITY_SAMPLES, seed=_PAIRABILITY_SEED)
    return report, time.perf_counter() - start


def test_criterion_01_weak_two_linkage_of_the_small_graphs():
    budget, start = 60.0, time.perf_counter()
    report = verify_lemma("L4")
    assert report.clean, report.exceptional
    assert report.instances_checked == 8
    _assert_body_pinned(report)
    assert not is_weakly_2_linked(make_grid(1, 3))
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(1, budget, elapsed, "8 graphs weakly 2-linked, the 1x3 path rejected")


def test_criterion_02_frames_for_all_terminal_pairs():
    budget, start = 10.0, time.perf_counter()
    report = verify_lemma("L5")
    assert report.clean, report.exceptional
    assert report.instances_checked == 162
    _assert_body_pinned(report)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(2, budget, elapsed, "162 frames built and independently verified")


def test_criterion_03_framings_with_a_mated_third():
    budget, start = 60.0, time.perf_counter()
    l6 = verify_lemma("L6")
    l7 = verify_lemma("L7")
    assert l6.clean, l6.exceptional
    assert l7.clean, l7.exceptional
    assert l6.instances_checked == 252
    assert l7.instances_checked == 252
    _assert_body_pinned(l6)
    _assert_body_pinned(l7)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(3, budget, elapsed, "252 + 252 framings, every certificate re-verified")


def test_criterion_04_escapes_on_the_adjusted_quadrants():
    budget, start = 120.0, time.perf_counter()
    families = Counter(inst[0] for inst in enumerate_instances("L8"))
    assert families == {"i": 224, "ii": 729, "iii": 132}
    report = verify_lemma("L8")
    assert report.clean, report.exceptional
    assert report.instances_checked == 1085
    _assert_body_pinned(report)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(4, budget, elapsed, "shared 224, link+escape 729, distinct-exit 132: all feasible")


def test_criterion_05_projection_exceptional_family():
    budget, start = 300.0, time.perf_counter()
    report = verify_lemma("L9")
    assert report.instances_checked == 837
    assert report_conforms(report), report.exceptional[:5]
    families = dict(exceptional_families(report))
    assert families == {T1: T1_ADMISSIBLE, T2: T2_ADMISSIBLE}
    _assert_body_pinned(report)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(5, budget, elapsed, "exceptional sets exactly T1 and T2, admissible choices as stated")


def test_criterion_06_escorted_link_census_and_matching_agreement():
    # The verbatim claim (100% of all 9^4 x 4 ordered placements) is false:
    # the full sweep leaves exactly 100 infeasible placements, every one a
    # coincident-singleton degeneracy certified by a local law (degree
    # overload or a cut line), and the laws predict nothing else.  The
    # criterion is therefore pinned to that exact census, both directions.
    budget, start = 600.0, time.perf_counter()
    report = verify_lemma("L10")
    assert report.instances_checked == 26244
    assert report.feasible == 26144
    tags = Counter(tag for tag, _, _ in report.exceptional)
    assert tags == {"degenerate": 100}
    reasons = Counter(detail.split(" at ")[0] for _, _, detail in report.exceptional)
    assert reasons["degree overload"] == 96
    assert sum(n for r, n in reasons.items() if r.startswith("line cut")) == 4
    for _, inst, _ in report.exceptional:
        s1, t1, s2, s3, psi = inst
        assert s2 == s3
        assert degenerate_reason(s1, t1, s2, s3, psi) is not None
    matching = verify_lemma("P1-matching")
    assert matching.clean, matching.exceptional[:3]
    assert matching.instances_checked > 0
    _assert_body_pinned(report)
    _assert_body_pinned(matching)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(
        6,
        budget,
        elapsed,
        f"26144/26244 feasible, 100 law-certified degeneracies; "
        f"matching agreed on {matching.instances_checked} clamp configurations",
    )


def test_criterion_07_crowded_quadrants():
    budget, start = 1800.0, time.perf_counter()
    expected = {"L1": 4725, "L2": 5040, "L3": 1260}
    for lemma_id, count in expected.items():
        report = verify_lemma(lemma_id)
        assert report.clean, (lemma_id, report.exceptional[:3])
        assert report.instances_checked == count
        _assert_body_pinned(report)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(7, budget, elapsed, "4725 + 5040 + 1260 crowded placements, side conditions included")


def test_criterion_08_pairability_campaign(first_pairability_run):
    budget = 3600.0
    report, elapsed = first_pairability_run
    assert report.instances_checked == _PAIRABILITY_SAMPLES
    assert report.clean, report.exceptional[:3]
    assert report.campaign.seed == _PAIRABILITY_SEED
    _assert_body_pinned(report)
    assert elapsed < budget
    _passed(8, budget, elapsed, "100000 sampled 4-pair instances, 0 infeasible")


def test_criterion_09_solver_and_flow_agree():
    budget, start = 600.0, time.perf_counter()
    report = escape_agreement_check()
    assert report.clean, report.exceptional[:3]
    assert report.instances_checked == 485
    _assert_body_pinned(report)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(9, budget, elapsed, "485 all-escape instances, zero solver/flow mismatches")


def test_criterion_10_reports_are_deterministic(first_pairability_run):
    budget, start = 3600.0, time.perf_counter()
    first, _ = first_pairability_run
    second = pairability_check(samples=_PAIRABILITY_SAMPLES, seed=_PAIRABILITY_SEED)
    assert report_body(format_report(first)) == report_body(format_report(second))
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(10, budget, elapsed, "repeat run with the same seed gave a byte-identical report body")
