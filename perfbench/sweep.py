"""One sweep of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/sweep.py --workload escort --seed 1 --trace 0
    python3 perfbench/sweep.py --import-only

Each sweep runs in its own process, so every sweep pays gridlink's import
and no cache can carry answers from one sweep into the next.  The JSON line
holds the import time, a gridlink-independent calibration time taken before
and after the campaigns, per-campaign timings and census errors, the peak
RSS and, with ``--trace 1``, the per-layer statistics and certificate
digest.  Spans are written to ``--spans`` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CALIB_REPEATS = 3


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload shaped like the solver's:
    breadth-first search with integer bitmasks over a 6x6 grid."""
    nbr = []
    for r in range(6):
        for c in range(6):
            i, m = r * 6 + c, 0
            if r:
                m |= 1 << (i - 6)
            if r < 5:
                m |= 1 << (i + 6)
            if c:
                m |= 1 << (i - 1)
            if c < 5:
                m |= 1 << (i + 1)
            nbr.append(m)
    start = perf_counter()
    for _ in range(150):
        for s in range(36):
            seen, front, dist = 1 << s, [s], {s: 0}
            while front:
                nxt = []
                for u in front:
                    m = nbr[u] & ~seen
                    seen |= m
                    while m:
                        low = m & -m
                        v = low.bit_length() - 1
                        m ^= low
                        dist[v] = dist[u] + 1
                        nxt.append(v)
                front = nxt
    return perf_counter() - start


def _import_gridlink() -> float:
    sys.path.insert(0, SRC)
    start = perf_counter()
    import gridlink

    took = perf_counter() - start
    if os.path.dirname(os.path.abspath(gridlink.__file__)) != os.path.join(SRC, "gridlink"):
        raise ImportError(f"gridlink was imported from {gridlink.__file__}, not from {SRC}")
    return took


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the trace's spans here as JSON lines")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    import_s = _import_gridlink()
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    from workloads import WORKLOADS, census_errors

    campaigns = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    calib = [calibrate() for _ in range(CALIB_REPEATS)]
    done = []
    for campaign in campaigns:
        start = perf_counter()
        try:
            if tracer is None:
                report = campaign.run(args.seed)
            else:
                report = tracer.campaign(campaign.run, args.seed)
        except Exception:
            report = None
            traceback.print_exc()
        took = perf_counter() - start
        done.append({
            "label": campaign.label,
            "instances": campaign.instances,
            "elapsed": took if report is None else report.elapsed,
            "wall": took,
            "errors": ["raised; see the traceback on stderr"] if report is None
            else census_errors(campaign, report),
        })
    calib += [calibrate() for _ in range(CALIB_REPEATS)]

    out = {
        "import_s": import_s,
        "calib_s": calib,
        "campaigns": done,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.stats()
        out["digest"] = tracer.digest()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
