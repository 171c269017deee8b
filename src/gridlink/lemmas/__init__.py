"""Quadrant routing lemmas: frames, escapes, clamps, crowded quadrants, and
the weak 2-linkage of strips and L-shapes.

Each operation rejects bad terminals with ``ValueError``, then answers as
``solve`` does, with a ``PathSystem`` or ``Infeasible`` (``clamp_matching``:
an assignment or None; ``weak_2_linkages``: one such answer per choice of
two pairs); the campaigns decide what a missing one means.  The
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
from .linkage import is_weakly_2_linked, weak_2_linkages

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
    "is_weakly_2_linked",
    "link_and_escape",
    "link_pair_escort_singletons",
    "project_with_b_link",
    "weak_2_linkages",
]
