"""Campaign benchmark for gridlink.

    python3 perfbench/run.py --workload escort --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each sweep of the workload runs in a
fresh interpreter (``perfbench/sweep.py``) with ``workers=1``, and each
campaign is checked against its documented census.

``--trace 0`` repeats sweeps until the next one would overrun ``--seconds``
and reports the end-to-end metrics: instances per second of campaign time
over all sweeps, set-up time (median import time plus median time spent
in the entry points outside ``report.elapsed``) and peak RSS (median).
Both times are scaled to the reference host's speed by a gridlink-independent
calibration loop timed before and after every sweep; the unscaled figures
are printed next to them.  ``--trace 1`` runs four sweeps, untraced and traced in turn, and reports
the per-layer metrics of the traced ones, the tracing overhead and the
calibration time; it fails if the two traced sweeps disagree on any call
count or on the certificate digest, and says whether the counts still
match those of the seed commit.  Spans go to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP = os.path.join(HERE, "sweep.py")
SRC_PACKAGE = os.path.join(os.path.dirname(HERE), "src", "gridlink")
SPANS_DIR = ".perfbench"
# The keys of workloads.WORKLOADS, repeated so that this process never imports gridlink.
WORKLOADS = ("pairability", "escort", "crowded", "frames-escapes")
DEADLINE_S = 170.0
IMPORT_SAMPLES = 5
# Median calibration time on the reference host (2 cores, Python 3.11) in a
# quiet period.  Times are scaled by it; see end_to_end.
CALIB_REF_S = 0.065
# Over 317 sweeps on the reference host, log campaign rate fell by 0.52
# (0.46-0.64 by workload) per unit rise in log calibration time, with
# correlation -0.7: the calibration reacts to the host about twice as
# strongly as gridlink does, so it is weighted by that regression slope.
CALIB_WEIGHT = 0.5

# Per-sweep call counts at the seed commit; pairability's scale with the
# sample count, and are given for the 10,000 samples a sweep draws.
SEED_ANCHORS = {
    "pairability": {"routing.solve.calls": 10000, "routing.solve.infeasible_calls": 0,
                    "routing.verify.calls": 10000},
    "escort": {"routing.solve.calls": 18980, "routing.solve.infeasible_calls": 100,
               "routing.verify.calls": 47664, "grid.landmarks.calls": 26244},
    "crowded": {"routing.solve.calls": 12506, "routing.solve.infeasible_calls": 1481,
                "routing.verify.calls": 11025},
    "frames-escapes": {"routing.solve.calls": 3096, "routing.solve.infeasible_calls": 251,
                       "routing.verify.calls": 3652, "flow.escape_flow.calls": 485},
}

_COUNT_SUFFIXES = (".calls", ".infeasible_calls", ".defects")


def unit_of(name: str) -> str:
    if name.endswith("instances_per_s"):
        return "1/s"
    if name.endswith(_COUNT_SUFFIXES):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_call"):
        return "1/call"
    if name.endswith("_mb"):
        return "MB"
    return "ratio"


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.start = perf_counter()

    def sweep(self, *extra: str) -> dict:
        remaining = DEADLINE_S - (perf_counter() - self.start)
        if remaining <= 0:
            raise SystemExit("error: out of time before the sweep could start")
        cmd = [sys.executable, SWEEP, *extra]
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: sweep overran the {DEADLINE_S:.0f} s limit") from None
        if done.returncode != 0:
            raise SystemExit(f"error: sweep exited with code {done.returncode}")
        out = json.loads(done.stdout.splitlines()[-1])
        out["ended"] = perf_counter() - self.start
        return out

    def workload_sweep(self, trace: int, spans: str | None = None) -> dict:
        extra = ["--workload", self.workload, "--seed", str(self.seed), "--trace", str(trace)]
        if spans:
            extra += ["--spans", spans]
        started = perf_counter()
        out = self.sweep(*extra)
        out["took"] = perf_counter() - started
        per = " ".join(f"{c['label']}={c['elapsed']:.3f}s" for c in out["campaigns"])
        print(
            f"sweep{' traced' if trace else ''}: {_rate(out):.1f} instances/s, "
            f"import {out['import_s']:.3f} s, calibration "
            f"{1e3 * statistics.median(out['calib_s']):.1f} ms, {per}",
            flush=True,
        )
        return out


def _rate(sweep: dict) -> float:
    camps = sweep["campaigns"]
    return sum(c["instances"] for c in camps) / sum(c["elapsed"] for c in camps)


def _errors(sweeps: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for sweep in sweeps:
        for camp in sweep["campaigns"]:
            attempted += camp["instances"]
            if camp["errors"]:
                failed += camp["instances"]
                messages += [f"{camp['label']}: {e}" for e in camp["errors"]]
    return attempted, failed, messages


def end_to_end(runner: Runner, sweeps: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the same before scaling to the reference host.

    The host's speed drifts by up to a factor of two over minutes, so times
    are scaled to read as if measured on the reference host: each sweep's
    campaign time by its own slowdown, (calibration / ``CALIB_REF_S``) **
    ``CALIB_WEIGHT``, and set-up time by the run's median slowdown.
    """
    imports = [s["import_s"] for s in sweeps]
    while len(imports) < IMPORT_SAMPLES:
        imports.append(runner.sweep("--import-only")["import_s"])
    outside = [sum(c["wall"] - c["elapsed"] for c in s["campaigns"]) for s in sweeps]
    instances = sum(c["instances"] for s in sweeps for c in s["campaigns"])
    elapsed = [sum(c["elapsed"] for c in s["campaigns"]) for s in sweeps]
    slowdown = [
        (statistics.median(s["calib_s"]) / CALIB_REF_S) ** CALIB_WEIGHT for s in sweeps
    ]
    raw = {
        "instances_per_s": instances / sum(elapsed),
        "setup_s": statistics.median(imports) + statistics.median(outside),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sweeps),
    }
    scaled = {
        "instances_per_s": instances / sum(e / k for e, k in zip(elapsed, slowdown)),
        "setup_s": raw["setup_s"] / statistics.median(slowdown),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return scaled, raw


def per_layer(runner: Runner) -> tuple[dict[str, float], list[str], list[dict]]:
    """Untraced and traced sweeps in turn; the traced ones' layer metrics."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    sweeps, traced = [], []
    for k in range(2):
        sweeps.append(runner.workload_sweep(0))
        traced.append(runner.workload_sweep(1, os.path.join(SPANS_DIR, f"{runner.workload}-{k}.jsonl")))
    first, second = (t["layers"] for t in traced)
    problems = [
        f"{name} differs between traced sweeps: {first[name]:g} vs {second[name]:g}"
        for name in first
        if name.endswith(_COUNT_SUFFIXES) and first[name] != second[name]
    ]
    if traced[0]["digest"] != traced[1]["digest"]:
        problems.append("certificate digest differs between traced sweeps")
    print(f"certificate digest: {traced[0]['digest']}")

    layers = {
        name: first[name] if name.endswith(_COUNT_SUFFIXES) else (first[name] + second[name]) / 2
        for name in first
    }
    moved = [
        f"{name} {layers[name]:g} (seed commit {want})"
        for name, want in SEED_ANCHORS[runner.workload].items()
        if layers[name] != want
    ]
    print("call counts vs seed commit: " + ("match" if not moved else "; ".join(moved)))

    untraced_rate = statistics.median(_rate(s) for s in sweeps)
    traced_rate = statistics.median(_rate(t) for t in traced)
    layers["bench.untraced_instances_per_s"] = untraced_rate
    layers["bench.traced_instances_per_s"] = traced_rate
    layers["bench.trace_overhead"] = untraced_rate / traced_rate - 1
    layers["bench.calib_ms"] = 1e3 * statistics.median(
        c for s in sweeps + traced for c in s["calib_s"]
    )
    return layers, problems, sweeps + traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(SRC_PACKAGE):
        print(f"error: no gridlink sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    if args.trace:
        layers, problems, sweeps = per_layer(runner)
    else:
        problems = []
        sweeps = [runner.workload_sweep(0)]
        while sweeps[-1]["ended"] + sweeps[-1]["took"] <= args.seconds:
            sweeps.append(runner.workload_sweep(0))
    scaled, raw = end_to_end(runner, [s for s in sweeps if "layers" not in s])
    metrics = layers if args.trace else scaled

    attempted, failed, messages = _errors(sweeps)
    for name, value in scaled.items():
        print(f"{name}: {value:.6g} {unit_of(name)} (as measured: {raw[name]:.6g})")
    print(f"failed_ratio: {failed / attempted:.6g} ({failed} of {attempted} instances)")
    if args.trace:
        for name, value in layers.items():
            print(f"{name}: {value:.6g} {unit_of(name)}")
    for message in messages + problems:
        print(f"FAILED {message}")

    print(json.dumps({
        "correct": not messages and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
