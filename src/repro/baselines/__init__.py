"""Comparison baselines (S8 of DESIGN.md): the [EN16b]/[LPP16]-style
composite tree routing and a landmark routing scheme."""

from .en16_tree import (
    CompositeLabel,
    CompositeTable,
    En16Build,
    En16TreeScheme,
    build_en16_tree_scheme,
)
from .landmark import build_landmark_scheme, choose_landmarks
from .tree_cover import (
    TreeCoverScheme,
    build_tree_cover_scheme,
    route_cover,
)

__all__ = [
    "CompositeLabel",
    "CompositeTable",
    "En16Build",
    "En16TreeScheme",
    "build_en16_tree_scheme",
    "build_landmark_scheme",
    "build_tree_cover_scheme",
    "route_cover",
    "TreeCoverScheme",
    "choose_landmarks",
]
