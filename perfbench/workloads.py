"""The four campaign workloads and the census each of their campaigns must reproduce.

A workload is a list of campaigns, each run through a public entry point of
``gridlink.verifier`` with ``workers=1``.  Only ``pairability`` draws its
instances from the seed; the other three sweep a lemma's whole domain, so
every seed gives them the same inputs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from gridlink import verifier
from gridlink.cli import format_report, report_body

PAIRABILITY_SAMPLES = 10_000


class Campaign(NamedTuple):
    label: str
    run: Callable[[int], object]  # seed -> LemmaReport
    instances: int
    exceptional: dict  # documented exceptional tag -> count
    degenerate: dict = {}  # L10: reason prefix -> count
    families: tuple = ()  # L9: labels of the exceptional families


def _lemma(lemma_id: str, instances: int, **census) -> Campaign:
    return Campaign(
        lemma_id,
        lambda seed: verifier.verify_lemma(lemma_id, "exhaustive", workers=1),
        instances,
        **census,
    )


WORKLOADS: dict[str, list[Campaign]] = {
    "pairability": [
        Campaign(
            "pairability",
            lambda seed: verifier.pairability_check(
                samples=PAIRABILITY_SAMPLES, seed=seed, workers=1
            ),
            PAIRABILITY_SAMPLES,
            exceptional={},
        ),
    ],
    "escort": [
        _lemma(
            "L10",
            26244,
            exceptional={"degenerate": 100},
            degenerate={"degree overload": 96, "line cut": 4},
        ),
    ],
    "crowded": [
        _lemma("L1", 4725, exceptional={}),
        _lemma("L2", 5040, exceptional={}),
        _lemma("L3", 1260, exceptional={}),
    ],
    "frames-escapes": [
        _lemma("L5", 162, exceptional={}),
        _lemma("L6", 252, exceptional={}),
        _lemma("L7", 252, exceptional={}),
        _lemma("L8", 1085, exceptional={}),
        _lemma("L9", 837, exceptional={"refusal": 67}, families=("T1", "T2")),
        Campaign(
            "escape-agreement",
            lambda seed: verifier.escape_agreement_check(workers=1),
            485,
            exceptional={},
        ),
    ],
}


def _fields(body: str) -> dict[str, str]:
    out = {}
    for line in body.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def census_errors(campaign: Campaign, report) -> list[str]:
    """Where the rendered report body departs from the documented census.

    Lines the census does not mention are ignored, so a report that gains
    lines (work counters, say) still passes while its counts hold.
    """
    fields = _fields(report_body(format_report(report)))
    want = {
        "campaign": campaign.label,
        "instances": str(campaign.instances),
        "feasible": str(campaign.instances - sum(campaign.exceptional.values())),
        "defects": "0",
        "status": "conforming",
    }
    errors = [
        f"{key}: {fields.get(key)!r}, documented {value!r}"
        for key, value in want.items()
        if fields.get(key) != value
    ]
    tags = {
        key[len("exceptional["):-1]: int(value)
        for key, value in fields.items()
        if key.startswith("exceptional[")
    }
    if tags != campaign.exceptional:
        errors.append(f"exceptional {tags}, documented {campaign.exceptional}")
    for prefix, count in campaign.degenerate.items():
        got = sum(
            int(value)
            for key, value in fields.items()
            if key.startswith("degenerate[" + prefix)
        )
        if got != count:
            errors.append(f"degenerate[{prefix}] {got}, documented {count}")
    families = tuple(sorted(key[len("family "):] for key in fields if key.startswith("family ")))
    if families != campaign.families:
        errors.append(f"families {families}, documented {campaign.families}")
    return errors
