"""The names perfbench calls in gridlink still resolve, checked without running a campaign.

The benchmark under ``perfbench/`` wraps gridlink functions by module and
name and calls the campaign entry points with fixed arguments, so a change
to one of those names or signatures fails here instead of in a benchmark
run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from gridlink import cli, verifier

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Import ``perfbench/<name>.py`` by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_gridlink():
    layers = _load("spans")._LAYERS
    assert layers
    for _, module, attr in layers:
        assert callable(getattr(importlib.import_module("gridlink." + module), attr, None)), (
            module,
            attr,
        )


def test_the_workloads_entry_points_accept_their_arguments():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"pairability", "escort", "crowded", "frames-escapes"}
    inspect.signature(verifier.verify_lemma).bind("L10", "exhaustive", workers=1)
    inspect.signature(verifier.pairability_check).bind(
        samples=workloads.PAIRABILITY_SAMPLES, seed=1, workers=1
    )
    inspect.signature(verifier.escape_agreement_check).bind(workers=1)
    assert callable(cli.format_report) and callable(cli.report_body)


def test_the_workloads_census_is_the_campaign_table():
    # perfbench keeps its own literal census; it must not drift from gridlink's
    checked = 0
    for campaigns in _load("workloads").WORKLOADS.values():
        for campaign in campaigns:
            if campaign.label != "pairability":  # sampled: its size is the sample count
                _, _, size, documented = verifier._CAMPAIGNS[campaign.label]
                assert (campaign.instances, campaign.exceptional) == (size, documented), campaign
                checked += 1
    assert checked == 10
