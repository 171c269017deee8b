"""Quadrant routing lemmas: frames, escapes, clamps, crowded quadrants.

Each operation rejects bad terminals with ``ValueError``, then answers as
``solve`` does, with a ``PathSystem`` or ``Infeasible`` (``clamp_matching``:
an assignment or None); the campaigns decide what a missing one means.  The
paths come in demand order.  A frame's are the mating paths of s1 and s2,
then the third terminal's; a crowded quadrant's are the linked pairs, then
the escapes in pair order, then the singles.
"""

from .frames import (
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
from .crowded import crowded_escape

__all__ = [
    "Clamp",
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
