"""Spans around gridlink's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every ``gridlink``
module that binds it (``gridlink.verifier.solve``,
``gridlink.lemmas.crowded.solve``, ``gridlink.lemmas.clamps.landmarks`` and
so on), so calls made inside the package are caught too.  Spans live in
memory as ``(name, start, end, parent, status)`` and are summarised or
written out after the sweep.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import sys
from time import perf_counter

from gridlink.fileio import serialize_certificate
from gridlink.routing import Infeasible

CAMPAIGN = "verifier.campaign"
SOLVE = "routing.solve"

LEMMA_OPS = (
    "link_pair_escort_singletons",
    "clamp_matching",
    "crowded_escape",
    "build_frame",
    "frame_two_mate_third",
    "frame_c0_mate_c1",
    "frame_c1_mate_corner",
    "escape_three_shared",
    "link_and_escape",
    "escape_three_distinct",
    "project_with_b_link",
)

# (span name, module under gridlink, function)
_LAYERS = (
    (SOLVE, "routing", "solve"),
    ("routing.verify", "routing", "verify"),
    ("grid.landmarks", "grid", "landmarks"),
    ("flow.escape_flow", "flow", "escape_flow"),
    ("verifier.degenerate_reason", "verifier", "degenerate_reason"),
) + tuple(("lemmas." + op, "lemmas", op) for op in LEMMA_OPS)

_TIMED = tuple(name for name, _, _ in _LAYERS if not name.startswith("lemmas."))

# span status: returned, raised, returned Infeasible
OK, RAISED, INFEASIBLE = 0, 1, 2


class Tracer:
    """Records one span per traced call, and keeps what ``solve`` returned."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]
        self.certificates: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = self.certificates.append if name == SOLVE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, perf_counter(), parent, RAISED)
                stack.pop()
                raise
            spans[idx] = (
                name,
                start,
                perf_counter(),
                parent,
                INFEASIBLE if result is Infeasible else OK,
            )
            stack.pop()
            if keep is not None:
                keep(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a gridlink module binds it."""
        wrappers = {}
        for name, module, attr in _LAYERS:
            fn = getattr(importlib.import_module("gridlink." + module), attr)
            wrappers[id(fn)] = self._wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "gridlink" and not modname.startswith("gridlink."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def campaign(self, run, *args):
        """Run a campaign entry point inside a ``verifier.campaign`` span."""
        return self._wrap(CAMPAIGN, run)(*args)

    def digest(self) -> str:
        """SHA-256 over every certificate ``solve`` returned, in call order."""
        h = hashlib.sha256()
        for cert in self.certificates:
            h.update(serialize_certificate(cert).encode())
        return h.hexdigest()

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, status.  A span's
        id is its line number from 0; a parent of -1 means none."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def stats(self) -> dict[str, float]:
        """Per-layer metrics named ``<module>.<function>.<stat>``."""
        spans = self.spans
        children = [0.0] * len(spans)
        solves_below = [0] * len(spans)
        members: dict[str, list[int]] = {}
        raised: dict[str, int] = {}
        infeasible: list[float] = []
        for idx, (name, start, end, parent, status) in enumerate(spans):
            members.setdefault(name, []).append(idx)
            if parent >= 0:
                children[parent] += end - start
            if status == RAISED:
                raised[name] = raised.get(name, 0) + 1
            if name == SOLVE:
                if status == INFEASIBLE:
                    infeasible.append(end - start)
                up = parent
                while up >= 0:
                    solves_below[up] += 1
                    up = spans[up][3]

        def took(name: str) -> list[float]:
            return [spans[i][2] - spans[i][1] for i in members.get(name, [])]

        out: dict[str, float] = {}
        for name in _TIMED:
            out[name + ".calls"] = len(members.get(name, []))
            out[name + ".busy_s"] = sum(took(name))
        solve = sorted(took(SOLVE))
        out[SOLVE + ".p50_ms"] = _percentile(solve, 0.50) * 1e3
        out[SOLVE + ".p99_ms"] = _percentile(solve, 0.99) * 1e3
        out[SOLVE + ".infeasible_calls"] = len(infeasible)
        out[SOLVE + ".infeasible_ratio"] = len(infeasible) / len(solve) if solve else 0.0
        out[SOLVE + ".infeasible_busy_s"] = sum(infeasible)
        out[CAMPAIGN + ".self_s"] = sum(
            spans[i][2] - spans[i][1] - children[i] for i in members.get(CAMPAIGN, [])
        )
        for op in LEMMA_OPS:
            name = "lemmas." + op
            mine = members.get(name, [])
            calls = len(mine)
            out[name + ".calls"] = calls
            out[name + ".self_s"] = sum(
                spans[i][2] - spans[i][1] - children[i] for i in mine
            )
            out[name + ".solve_per_call"] = (
                sum(solves_below[i] for i in mine) / calls if calls else 0.0
            )
            out[name + ".solve_free_ratio"] = (
                sum(1 for i in mine if not solves_below[i]) / calls if calls else 0.0
            )
            out[name + ".defects"] = raised.get(name, 0)
        return out


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]

