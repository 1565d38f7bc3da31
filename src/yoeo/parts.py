"""Part taxonomy and per-class canonical joint-axis conventions.

Semantic class ids: 0 = background/body, 1 = drawer, 2 = hinge_lid,
3 = hinge_handle. Drawers slide along the part-frame +x direction;
hinged parts (lids, handles) pivot about a +y axis running along the
box edge at +x, -z — the edge that stays attached to the body.
"""

from __future__ import annotations

import numpy as np

from .npcs import JointAxis

BACKGROUND_CLASS = 0
DRAWER = 1
HINGE_LID = 2
HINGE_HANDLE = 3
NUM_CLASSES = 4

KIND_TO_CLASS = {"drawer": DRAWER, "hinge_lid": HINGE_LID, "hinge_handle": HINGE_HANDLE}
CLASS_TO_KIND = {v: k for k, v in KIND_TO_CLASS.items()}

# Per-kind articulation limits: meters for prismatic, radians for revolute.
ARTICULATION_LIMITS = {
    "drawer": (0.0, 0.3),
    "hinge_lid": (0.0, np.pi / 2),
    "hinge_handle": (0.0, np.pi / 2),
}


def joint_axis_in_part_frame(kind: str, extents: np.ndarray) -> JointAxis:
    """Joint axis in the part's rest frame (box centered at the origin)."""
    ex, _, ez = np.asarray(extents, dtype=np.float64).reshape(3)
    if kind == "drawer":
        return JointAxis(np.zeros(3), np.array([1.0, 0.0, 0.0]), "prismatic")
    if kind in ("hinge_lid", "hinge_handle"):
        return JointAxis(
            np.array([ex / 2.0, 0.0, -ez / 2.0]), np.array([0.0, 1.0, 0.0]), "revolute"
        )
    raise ValueError(f"unknown part kind {kind!r}")


def canonical_joint_axis(semantic_class: int, canonical_extents: np.ndarray) -> JointAxis:
    """Class-level joint-axis prior expressed in the canonical unit cube.

    :func:`joint_axis_in_part_frame` shifted so the box center sits at
    (0.5, 0.5, 0.5). `canonical_extents` may be estimated (e.g. from the
    bounding box of predicted coordinates).
    """
    kind = CLASS_TO_KIND.get(int(semantic_class))
    if kind is None:
        raise ValueError(f"class {semantic_class} has no joint-axis convention")
    axis = joint_axis_in_part_frame(kind, canonical_extents)
    return JointAxis(axis.origin + 0.5, axis.direction, axis.kind)
