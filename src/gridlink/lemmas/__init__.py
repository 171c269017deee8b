"""Quadrant routing lemmas: frames, escapes, clamps, crowded quadrants.

Each operation rejects bad terminals with ``ValueError``, then answers as
``solve`` does, with a certificate or ``Infeasible`` (``clamp_matching``:
an assignment or None); the campaigns decide what a missing one means.
"""

from .frames import (
    Frame,
    FramingResult,
    build_frame,
    frame_c0_mate_c1,
    frame_c1_mate_corner,
    frame_two_mate_third,
)
from .escapes import (
    escape_three_distinct,
    escape_three_shared,
    link_and_escape,
    project_with_b_link,
)
from .clamps import (
    Clamp,
    catalog_configurations,
    clamp_matching,
    link_pair_escort_singletons,
)
from .crowded import CrowdedResult, crowded_escape

__all__ = [
    "Clamp",
    "CrowdedResult",
    "Frame",
    "FramingResult",
    "build_frame",
    "catalog_configurations",
    "clamp_matching",
    "crowded_escape",
    "escape_three_distinct",
    "escape_three_shared",
    "frame_c0_mate_c1",
    "frame_c1_mate_corner",
    "frame_two_mate_third",
    "link_and_escape",
    "link_pair_escort_singletons",
    "project_with_b_link",
]
